// update-mix: writes next to reads on the same structure.
//
//   1 submitter -> QueryEngine (2 workers) -> DynamicStore (2-sided,
//   background rebuild) -> SharedBufferPool -> FilePageDevice
//
// Open loop at one fixed rate: 80% 2-sided queries, 20% durable update
// groups of equal inserts and erases (live size stays level).  Keys arrive
// in x order, like a time-keyed log: each group inserts the next keys and
// erases the oldest live ones.  Half the queries read the newest keys,
// which sit in the overlay until a rebuild absorbs them.  Flush policy: the
// store's own single Sync per group commit.
//
// Answers are checked after the run against a brute-force replay of the
// update history.  A query may see any group that was in flight while it
// ran, applied whole or not at all; everything acknowledged before it was
// submitted must be visible.
#include <algorithm>
#include <iterator>

#include "data.h"
#include "dynamic/dynamic_store.h"
#include "io/file_page_device.h"
#include "io/shared_buffer_pool.h"
#include "serve/query_engine.h"

namespace perfbench {
namespace {

constexpr double kUpdateShare = 0.2;
constexpr uint32_t kGroupHalf = 4;       // inserts (= erases) per group
constexpr uint64_t kRecentWindow = 256;  // newest keys a recent query covers
constexpr uint64_t kBaseAnswer = 64;     // expected answer of a base query

struct Config {
  uint64_t n;
  double rate;  // operations/s
  uint64_t rebuild_threshold;
  int setups;
};

Config ConfigFor(bool tiny) {
  if (tiny) return {5'000, 1'000, 250, 2};
  // 3200 overlay entries/s: a rebuild about every 1.25 s, so several
  // complete inside the timed window.
  return {20'000, 2'000, 4'000, 3};
}

struct Op {
  bool update = false;
  uint32_t group = 0;  // update: its group index; query: groups before it
  TwoSidedQuery q;
};

// Every record the run can touch, in x order: the base records (x rank i at
// x = i * kGrid) followed by the inserted ones.  Group g erases records
// [g*k, g*k + k) and inserts records n + g*k .. n + g*k + k - 1.
struct History {
  uint64_t n = 0;
  std::vector<int64_t> y;
  std::vector<uint64_t> id;

  int64_t x(uint64_t idx) const { return static_cast<int64_t>(idx) * kGrid; }
  DynamicItem item(uint64_t idx) const {
    return DynamicItem{x(idx), y[idx], id[idx]};
  }
  // The group that inserted / erased record idx (-1: base / never).
  int64_t ins_group(uint64_t idx) const {
    return idx < n ? -1 : static_cast<int64_t>((idx - n) / kGroupHalf);
  }
  int64_t del_group(uint64_t idx, uint64_t groups) const {
    const uint64_t g = idx / kGroupHalf;
    return g < groups ? static_cast<int64_t>(g) : -1;
  }
};

struct Schedule {
  History h;
  std::vector<Op> ops;
  uint64_t groups = 0;
};

Schedule MakeSchedule(const Config& cfg, size_t ops, uint64_t seed) {
  Schedule s;
  s.h.n = cfg.n;
  std::vector<Point> pts = GridPoints(cfg.n, seed);
  std::sort(pts.begin(), pts.end(), LessByX);
  Rng rng(seed * 17 + 11);
  const uint64_t max_groups = ops;  // at most one group per op
  s.h.y.resize(cfg.n + max_groups * kGroupHalf);
  s.h.id.resize(s.h.y.size());
  for (uint64_t i = 0; i < cfg.n; ++i) {
    s.h.y[i] = pts[i].y;
    s.h.id[i] = pts[i].id;
  }
  for (uint64_t i = cfg.n; i < s.h.y.size(); ++i) {
    // Odd half-grid y keeps inserted keys distinct from every base key.
    s.h.y[i] = static_cast<int64_t>(rng.Uniform(cfg.n)) * kGrid + kGrid / 2;
    s.h.id[i] = i;
  }
  s.ops.resize(ops);
  const double y_top = double(cfg.n) * kGrid;
  for (Op& op : s.ops) {
    op.group = static_cast<uint32_t>(s.groups);
    if (rng.Bernoulli(kUpdateShare)) {
      op.update = true;
      ++s.groups;
      continue;
    }
    const uint64_t erased = s.groups * kGroupHalf;
    const uint64_t frontier = cfg.n + erased;  // one past the newest key
    if (rng.Bernoulli(0.5)) {
      op.q.x_min = s.h.x(frontier - std::min(frontier, kRecentWindow));
      op.q.y_min = static_cast<int64_t>(rng.NextDouble() * y_top);
    } else {
      // Upper half of the live window; y threshold sized for a small answer.
      const uint64_t r = erased + cfg.n / 2 + rng.Uniform(cfg.n / 2);
      const double frac = std::min(1.0, double(kBaseAnswer) / double(frontier - r));
      op.q.x_min = s.h.x(r);
      op.q.y_min = static_cast<int64_t>((1.0 - frac) * y_top);
    }
  }
  return s;
}

std::vector<DynamicUpdate> GroupUpdates(const History& h, uint64_t g) {
  std::vector<DynamicUpdate> u;
  for (uint64_t k = 0; k < kGroupHalf; ++k) {
    u.push_back({UpdateOp::kInsert, h.item(h.n + g * kGroupHalf + k)});
  }
  for (uint64_t k = 0; k < kGroupHalf; ++k) {
    u.push_back({UpdateOp::kDelete, h.item(g * kGroupHalf + k)});
  }
  return u;
}

enum class GroupState : uint8_t { kAbsent, kMaybe, kApplied };

// True when `got` is the answer of `q` in some state that has every
// kApplied group, no kAbsent group, and each kMaybe group whole or not.
template <typename StateOf>
bool AnswerPossible(const History& h, uint64_t groups, const TwoSidedQuery& q,
                    const Fingerprint& got, StateOf state_of) {
  Fingerprint must;
  std::vector<std::pair<int64_t, Fingerprint>> maybe;  // group -> delta
  auto delta = [&](int64_t g, uint64_t hash, bool add) {
    auto it = std::find_if(maybe.begin(), maybe.end(),
                           [&](const auto& m) { return m.first == g; });
    if (it == maybe.end()) {
      maybe.push_back({g, Fingerprint{}});
      it = maybe.end() - 1;
    }
    it->second.count += add ? 1 : uint64_t(-1);
    it->second.sum += add ? hash : uint64_t(0) - hash;
  };
  const uint64_t first = static_cast<uint64_t>(
      std::max<int64_t>(0, (q.x_min + kGrid - 1) / kGrid));
  const uint64_t end = h.n + groups * kGroupHalf;
  for (uint64_t idx = first; idx < end; ++idx) {
    if (h.y[idx] < q.y_min) continue;
    const int64_t ig = h.ins_group(idx);
    const int64_t dg = h.del_group(idx, groups);
    const GroupState ins = ig < 0 ? GroupState::kApplied : state_of(ig);
    const GroupState del = dg < 0 ? GroupState::kAbsent : state_of(dg);
    if (ins == GroupState::kAbsent || del == GroupState::kApplied) continue;
    const uint64_t hash = RecordHash(h.x(idx), h.y[idx], h.id[idx]);
    if (ins == GroupState::kApplied) {
      must.count += 1;
      must.sum += hash;
    } else {
      delta(ig, hash, true);
    }
    if (del == GroupState::kMaybe) delta(dg, hash, false);
  }
  if (maybe.size() > 12) return true;  // too ambiguous to pin down; skip
  for (uint32_t mask = 0; mask < (1u << maybe.size()); ++mask) {
    Fingerprint f = must;
    for (size_t k = 0; k < maybe.size(); ++k) {
      if (mask & (1u << k)) {
        f.count += maybe[k].second.count;
        f.sum += maybe[k].second.sum;
      }
    }
    if (f == got) return true;
  }
  return false;
}

struct Stack {
  std::unique_ptr<FilePageDevice> file;
  std::unique_ptr<TimedDevice> tfile;
  std::unique_ptr<SharedBufferPool> pool;
  std::unique_ptr<DynamicStore> store;
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<TimedService> svc;
  uint32_t id = 0;

  ~Stack() {
    if (engine) engine->Stop();
    if (store) (void)store->WaitForRebuild();
  }
};

DynamicStoreOptions StoreOptions(const Config& cfg) {
  DynamicStoreOptions o;
  o.rebuild_threshold = cfg.rebuild_threshold;
  o.background_rebuild = true;
  return o;
}

std::vector<DynamicItem> BaseItems(const History& h) {
  std::vector<DynamicItem> items;
  items.reserve(h.n);
  for (uint64_t i = 0; i < h.n; ++i) items.push_back(h.item(i));
  return items;
}

// Create the store (build + save of the first generation), then register
// and start: what setup_s times.
std::unique_ptr<Stack> SetUp(const Config& cfg, const History& h,
                             const std::string& path) {
  auto st = std::make_unique<Stack>();
  st->file = Take(FilePageDevice::Create(path), "create store");
  st->tfile = std::make_unique<TimedDevice>(st->file.get(), "io.device");
  st->pool = std::make_unique<SharedBufferPool>(st->tfile.get(), 1u << 16);
  st->store = Take(DynamicStore::Create(st->pool.get(),
                                        DynamicStructure::kExternalPst,
                                        BaseItems(h), StoreOptions(cfg)),
                   "create dynamic store");
  QueryEngineOptions eo;
  eo.num_workers = 2;
  eo.queue_capacity = 4096;
  st->engine = std::make_unique<QueryEngine>(st->pool.get(), eo);
  st->id = Take(st->engine->AddDynamicStore(st->store.get()), "register");
  Check(st->engine->Start(), "start engine");
  st->svc = std::make_unique<TimedService>(st->engine.get());
  return st;
}

// Per-op outcome of the live run.
struct Outcome {
  uint64_t due = 0;
  uint64_t submit = 0;
  uint64_t done = 0;  // 0 = no completion
  bool ok = false;
  bool refused = false;  // Submit itself failed (already counted)
  Fingerprint got;
  uint64_t io_reads = 0;     // counted reads through the engine
  uint64_t stats_reads = 0;  // the base structure's QueryStats total
};

}  // namespace

int RunUpdateMix(const RunOptions& opt, RawResult* res) {
  const Config cfg = ConfigFor(opt.tiny);
  const double warm_s = opt.tiny ? 0.3 : 1.0;
  const double total_s = warm_s + opt.seconds;
  const auto total_ops = static_cast<size_t>(cfg.rate * total_s);
  const Schedule sc = MakeSchedule(cfg, total_ops, opt.seed);
  InputDigest in;
  for (uint64_t i = 0; i < sc.h.y.size(); ++i) in.Add(sc.h.y[i] ^ sc.h.id[i]);
  for (const Op& op : sc.ops) {
    in.Add(op.update ? op.group : static_cast<uint64_t>(op.q.x_min ^ op.q.y_min));
  }
  res->meta["inputs"] = std::to_string(in.h);

  // Each set-up writes a fresh file; none is deleted inside the run, so
  // freeing a store's blocks never overlaps the timed window.
  std::unique_ptr<Stack> st;
  for (int i = 0; i < cfg.setups; ++i) {
    st.reset();
    const std::string path =
        opt.workdir + "/update_mix_" + std::to_string(i) + ".db";
    const uint64_t t0 = NowNs();
    st = SetUp(cfg, sc.h, path);
    res->setup_s.push_back(double(NowNs() - t0) / 1e9);
  }
  res->meta["read_backend"] =
      st->file->read_backend() == FilePageDevice::ReadBackend::kIoUring
          ? "io_uring"
          : "preadv";
  res->meta["fadvise_drop"] = "not used by this workload";
  res->meta["flush_policy"] = "one Sync per group commit";

  // Segment boundaries, in ops: warm-up, then measured (or untraced +
  // traced when tracing).
  const auto warm_ops = static_cast<size_t>(cfg.rate * warm_s);
  const double part = opt.trace ? std::min(opt.seconds / 3.0, 2.0) : 0;
  const size_t traced_first =
      opt.trace ? warm_ops + static_cast<size_t>(cfg.rate * part) : total_ops;
  const size_t run_ops =
      opt.trace ? traced_first + static_cast<size_t>(cfg.rate * part)
                : total_ops;

  std::vector<Outcome> out(run_ops);
  std::vector<uint64_t> group_submit(sc.groups, 0), group_ack(sc.groups, 0);
  DynamicStoreStats d0{}, d1{};
  IoStats f0{}, f1{};
  ServeStats s0{}, s1{};
  uint64_t delta_max = 0;
  {
    const uint64_t t0 = NowNs() + 2'000'000;
    const double step_ns = 1e9 / cfg.rate;
    std::vector<DynamicUpdate> ups;
    for (size_t i = 0; i < run_ops; ++i) {
      if (opt.trace && i == traced_first) {
        d0 = st->store->stats();
        f0 = st->file->stats();
        s0 = st->engine->stats();
        SpanSink::Get().Enable(true);
      }
      const Op& op = sc.ops[i];
      Outcome& o = out[i];
      o.due = t0 + static_cast<uint64_t>(step_ns * double(i));
      SpinUntilNs(o.due);
      CurrentContext().req = i + 1;
      o.submit = NowNs();
      Status s;
      if (op.update) {
        group_submit[op.group] = o.submit;
        ups = GroupUpdates(sc.h, op.group);
        s = st->svc->SubmitUpdate(
            st->id, ups, [&, i, g = op.group](QueryResult r) {
              Outcome& oc = out[i];
              oc.done = NowNs();
              oc.ok = r.status.ok();
              if (oc.ok) group_ack[g] = oc.done;
            });
        if (opt.trace && i >= traced_first) {
          delta_max = std::max(delta_max, st->store->stats().delta_entries);
        }
      } else {
        s = st->svc->Submit(
            st->id, ServeQuery::TwoSided(op.q), [&, i](QueryResult r) {
              Outcome& oc = out[i];
              oc.got = Digest(r.points);
              oc.io_reads = r.io.reads;
              oc.stats_reads = r.stats.total_reads();
              oc.ok = r.status.ok();
              oc.done = NowNs();
            });
      }
      CurrentContext().req = 0;
      if (!s.ok()) {
        o.refused = true;
        res->Fail("submit: " + s.ToString());
      }
    }
    st->engine->Drain();
    SpanSink::Get().Enable(false);
    d1 = st->store->stats();
    f1 = st->file->stats();
    s1 = st->engine->stats();
  }
  res->attempted += run_ops;

  // Segments and the sandwich check, off the clock.
  auto segment = [&](const char* name, size_t a, size_t b) {
    Segment seg;
    seg.name = name;
    seg.rate = cfg.rate;
    seg.start_ns = out[a].due - RunOrigin();
    seg.seconds = double(b - a) / cfg.rate;
    for (size_t i = a; i < b; ++i) {
      const Outcome& o = out[i];
      if (o.done == 0 || !o.ok) continue;
      const uint64_t at = o.due - RunOrigin();
      if (sc.ops[i].update) {
        seg.update_ns.push_back(o.done - o.due);
        seg.update_at_ns.push_back(at);
      } else {
        seg.query_ns.push_back(o.done - o.due);
        seg.query_at_ns.push_back(at);
        seg.query_records.push_back(o.got.count);
        seg.records += o.got.count;
        seg.io_reads += o.io_reads;
      }
      seg.lag_ns.push_back(o.submit - o.due);
    }
    seg.queries = seg.query_ns.size();
    return seg;
  };
  if (opt.trace) {
    res->segments.push_back(segment("untraced", warm_ops, traced_first));
    res->segments.push_back(segment("traced", traced_first, run_ops));
  } else {
    res->segments.push_back(segment("measure", warm_ops, run_ops));
  }
  for (size_t i = 0; i < run_ops; ++i) {
    const Outcome& o = out[i];
    const Op& op = sc.ops[i];
    if (o.refused) continue;
    if (o.done == 0 || !o.ok) {
      res->Fail(op.update ? "update group failed" : "query failed");
      continue;
    }
    if (op.update) continue;
    auto state_of = [&](int64_t g) {
      const uint64_t ack = group_ack[g];
      if (ack != 0 && ack <= o.submit) return GroupState::kApplied;
      const uint64_t sub = group_submit[g];
      if (sub != 0 && sub < o.done) return GroupState::kMaybe;
      return GroupState::kAbsent;
    };
    if (!AnswerPossible(sc.h, sc.groups, op.q, o.got, state_of)) {
      res->Wrong("query " + std::to_string(i) + " (" +
                 std::to_string(o.got.count) +
                 " records) matches no state of the update history");
    }
  }
  BoundTracker bound;
  for (size_t i = 0; i < run_ops; ++i) {
    if (!sc.ops[i].update && out[i].ok) {
      bound.Add(out[i].stats_reads, cfg.n, out[i].got.count,
                RecordsPerPage(kDefaultPageSize));
    }
  }
  res->counters["bound_max"] = bound.max;
  res->counters["bound_mean"] = bound.mean();
  res->counters["rebuilds"] = double(st->store->stats().rebuilds);

  if (opt.trace) {
    const uint64_t groups = d1.groups_committed - d0.groups_committed;
    const uint64_t updates = d1.updates_applied - d0.updates_applied;
    SpanSink::Get().Counter(
        "dynamic",
        {{"groups", double(groups)},
         {"updates", double(updates)},
         {"device_writes", double(f1.writes - f0.writes)},
         {"device_syncs", double(f1.syncs - f0.syncs)},
         {"page_size", double(kDefaultPageSize)},
         {"rebuilds", double(d1.rebuilds - d0.rebuilds)},
         {"delta_entries_max", double(delta_max)}});
    SpanSink::Get().Counter(
        "serve", {{"submitted", double(s1.submitted - s0.submitted)},
                  {"completed", double(s1.completed - s0.completed)},
                  {"rejected", double(s1.rejected_overload + s1.rejected_quota -
                                      s0.rejected_overload - s0.rejected_quota)},
                  {"expired", double(s1.expired - s0.expired)},
                  {"max_queue_depth", double(s1.max_queue_depth)},
                  {"read_repins", double(s1.read_repins - s0.read_repins)}});
  }
  res->counters["store_bytes"] =
      double(st->file->live_pages() * uint64_t{kDefaultPageSize});
  res->counters["user_bytes"] = double(cfg.n * 24);
  st.reset();

  if (opt.trace) {
    // Direct pass on a twin store: File -> timer -> Pool -> timer -> store,
    // brought to the traced window's starting state, then the window's ops
    // replayed serially from one thread with the same request ids.
    const std::string twin_path = opt.workdir + "/update_mix_twin.db";
    auto file = Take(FilePageDevice::Create(twin_path), "create twin");
    TimedDevice tfile(file.get(), "io.device");
    SharedBufferPool pool(&tfile, 1u << 16);
    TimedDevice tpool(&pool, "io.pool");
    auto twin = Take(DynamicStore::Create(&tpool, DynamicStructure::kExternalPst,
                                          BaseItems(sc.h), StoreOptions(cfg)),
                     "create twin store");
    const uint64_t b = RecordsPerPage(kDefaultPageSize);
    DynamicReadHandle handle;
    uint64_t applied = 0;
    auto apply = [&](uint64_t g) {
      const std::vector<DynamicUpdate> ups = GroupUpdates(sc.h, g);
      SpanScope span("dynamic:apply");
      span.Arg("updates", double(ups.size()));
      Check(twin->Apply(ups), "twin apply");
      ++applied;
    };
    for (size_t i = 0; i < traced_first; ++i) {
      if (sc.ops[i].update) apply(sc.ops[i].group);
    }
    Check(twin->WaitForRebuild(), "twin rebuild");
    const uint64_t hits0 = pool.hits(), misses0 = pool.misses(),
                   ev0 = pool.evictions(), reads0 = file->stats().reads,
                   sys0 = file->read_syscalls();
    uint64_t queries = 0;
    SpanSink::Get().Enable(true);
    for (size_t i = traced_first; i < run_ops; ++i) {
      const Op& op = sc.ops[i];
      SpanScope req("direct:request", i + 1);
      if (op.update) {
        apply(op.group);
        continue;
      }
      ++queries;
      std::vector<Point> pts;
      for (;;) {
        const GenerationRef ref = twin->PinCurrent();
        if (handle.version != ref.version || !handle.ready) {
          Check(handle.Open(&tpool, twin->structure(), ref.manifest,
                            ref.version),
                "twin handle");
        }
        pts.clear();
        QueryStats qs;
        {
          SpanScope core("core:two_sided");
          Check(handle.QueryTwoSided(op.q, &pts, &qs), "twin query");
          AddQueryArgs(&core, qs, pts.size(), ref.items, b);
        }
        std::vector<uint64_t> before;
        for (const Point& p : pts) before.push_back(p.id);
        bool consistent;
        {
          SpanScope ov("dynamic:overlay");
          consistent = twin->OverlayTwoSided(ref.version, op.q, &pts);
          if (consistent) {
            std::vector<uint64_t> after;
            for (const Point& p : pts) after.push_back(p.id);
            std::sort(before.begin(), before.end());
            std::sort(after.begin(), after.end());
            std::vector<uint64_t> diff;
            std::set_symmetric_difference(before.begin(), before.end(),
                                          after.begin(), after.end(),
                                          std::back_inserter(diff));
            ov.Arg("entries", double(diff.size()));
          }
        }
        twin->Unpin(ref.version);
        if (consistent) break;
      }
      const uint64_t groups_before = applied;
      auto serial_state = [&](int64_t g) {
        return uint64_t(g) < groups_before ? GroupState::kApplied
                                           : GroupState::kAbsent;
      };
      if (!AnswerPossible(sc.h, sc.groups, op.q, Digest(pts), serial_state)) {
        res->Wrong("direct-pass query " + std::to_string(i) + " mismatch");
      }
    }
    SpanSink::Get().Enable(false);
    SpanSink::Get().Counter(
        "direct", {{"queries", double(queries)},
                   {"pool_hits", double(pool.hits() - hits0)},
                   {"pool_misses", double(pool.misses() - misses0)},
                   {"pool_evictions", double(pool.evictions() - ev0)},
                   {"device_reads", double(file->stats().reads - reads0)},
                   {"device_read_syscalls",
                    double(file->read_syscalls() - sys0)}});
    handle.Reset();
    Check(twin->WaitForRebuild(), "twin rebuild");
    twin.reset();
  }
  res->counters["peak_rss_kb"] = double(PeakRssKb());
  return 0;
}

}  // namespace perfbench
