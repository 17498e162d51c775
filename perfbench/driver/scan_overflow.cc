// scan-overflow: the paper's t/B regime on a store eight times its pool.
//
//   2 callers -> ShardRouter -> ShardedStore (2 shards, 1 worker each) ->
//   per-shard SharedBufferPool (1/8 of the store in total) ->
//   ChecksumPageDevice -> FilePageDevice
//
// Closed loop: each caller waits for its reply before sending the next
// query, so latency runs from the call.  Answers are large (about 50B to
// 500B records) and anchors are Zipf-skewed, so the pool hit rate is
// partial and device reads, CRC checks, eviction and the shard merge do
// the work.
#include <algorithm>
#include <future>

#include "data.h"
#include "io/checksum_page_device.h"
#include "io/file_page_device.h"
#include "io/shared_buffer_pool.h"
#include "shard/shard_router.h"
#include "shard/sharded_store.h"

namespace perfbench {
namespace {

constexpr uint32_t kShards = 2;
constexpr uint32_t kCallers = 2;
constexpr double kZipfTheta = 0.8;
// Store pages per pool page.
constexpr double kStoreOverPool = 8.0;

struct Config {
  uint64_t n_pts;
  uint64_t n_ivs;
  double iv_len_frac;
  size_t pool;  // candidates per kind
  int setups;
};

Config ConfigFor(bool tiny) {
  if (tiny) return {40'000, 10'000, 0.3, 16, 2};
  return {200'000, 40'000, 0.3, 1024, 3};
}

struct Data {
  std::vector<Point> pts;
  std::vector<Interval> ivs;
  std::vector<Candidate> cands[3];
};

struct ShardDevice {
  std::string path;
  std::unique_ptr<FilePageDevice> file;
  std::unique_ptr<TimedDevice> tfile;
  std::unique_ptr<ChecksumPageDevice> sum;
  std::unique_ptr<TimedDevice> tsum;
};

struct Stack {
  std::vector<ShardDevice> devs;
  std::unique_ptr<ShardedStore> store;
  std::unique_ptr<ShardRouter> router;
  std::unique_ptr<TimedService> svc;
  uint32_t ids[3] = {0, 0, 0};
  uint64_t pages[3] = {0, 0, 0};  // store pages per structure kind

  ~Stack() {
    if (store) store->Stop();
  }
  uint64_t store_pages() const {
    uint64_t p = 0;
    for (const ShardDevice& d : devs) p += d.file->live_pages();
    return p;
  }
};

// Devices, then build + save + register every structure and start: what
// setup_s times.  ShardedStore builds inside Add*, saving each shard's
// structure to its manifest and opening it on the shard engine.
std::unique_ptr<Stack> SetUp(const Data& d, const std::string& prefix,
                             size_t pool_pages) {
  auto st = std::make_unique<Stack>();
  st->devs.resize(kShards);
  ShardedStoreOptions so;
  so.shards = kShards;
  so.pool_pages_total = pool_pages;
  so.engine_workers = 1;
  for (uint32_t k = 0; k < kShards; ++k) {
    ShardDevice& sd = st->devs[k];
    sd.path = prefix + std::to_string(k) + ".db";
    sd.file = Take(FilePageDevice::Create(sd.path), "create shard store");
    sd.tfile = std::make_unique<TimedDevice>(sd.file.get(), "io.device");
    sd.sum = std::make_unique<ChecksumPageDevice>(sd.tfile.get());
    sd.tsum = std::make_unique<TimedDevice>(sd.sum.get(), "io.checksum");
    so.devices.push_back(sd.tsum.get());
  }
  st->store = std::make_unique<ShardedStore>(so);
  st->ids[0] = Take(st->store->AddTwoSided(d.pts), "build 2-sided");
  st->pages[0] = st->store_pages();
  st->ids[1] = Take(st->store->AddThreeSided(d.pts), "build 3-sided");
  st->pages[1] = st->store_pages() - st->pages[0];
  st->ids[2] = Take(st->store->AddStabbing(d.ivs), "build stab");
  st->pages[2] = st->store_pages() - st->pages[0] - st->pages[1];
  for (ShardDevice& sd : st->devs) Check(sd.file->Sync(), "sync shard");
  Check(st->store->Start(), "start shards");
  st->router = std::make_unique<ShardRouter>(st->store.get());
  st->svc = std::make_unique<TimedService>(st->router.get());
  return st;
}

// Closed loop over stream[first, ...) for `seconds`: caller c takes every
// kCallers-th request.  Per query: latency from the call, the answer
// checked against the oracle digest, and the routed counted reads.
Segment ClosedLoop(const Data& d, const std::vector<Draw>& stream,
                   size_t first, double seconds, Stack* st, const char* name,
                   RawResult* res, size_t* next, BoundTracker* bound) {
  Segment seg;
  seg.name = name;
  const uint64_t t0 = NowNs();
  const uint64_t end = t0 + static_cast<uint64_t>(seconds * 1e9);
  std::mutex merge_mu;
  std::atomic<size_t> high{first};
  auto caller = [&](uint32_t c) {
    std::vector<uint64_t> lat, at, recs;
    uint64_t records = 0, reads = 0, attempted = 0;
    std::vector<std::string> failures, wrongs;
    BoundTracker bt;
    size_t i = first + c;
    for (; NowNs() < end && i < stream.size(); i += kCallers) {
      const Candidate& cand = d.cands[stream[i].kind][stream[i].cand];
      std::promise<QueryResult> done;
      std::future<QueryResult> fut = done.get_future();
      ++attempted;
      uint64_t start;
      QueryResult r;
      {
        SpanScope span("caller:request", i + 1);
        start = NowNs();
        const Status s = st->svc->Submit(
            st->ids[stream[i].kind], Tagged(cand.kind, cand.q, i),
            [&done](QueryResult qr) { done.set_value(std::move(qr)); });
        if (!s.ok()) {
          failures.push_back("submit: " + s.ToString());
          continue;
        }
        r = fut.get();
      }
      const uint64_t now = NowNs();
      if (!r.status.ok()) {
        failures.push_back(r.status.ToString());
        continue;
      }
      const Fingerprint got = cand.kind == QueryKind::kStabbing
                                  ? Digest(r.intervals)
                                  : Digest(r.points);
      if (!(got == cand.expect)) {
        wrongs.push_back(std::string(KindName(cand.kind)) + " query " +
                         std::to_string(i) + ": " + std::to_string(got.count) +
                         " records, expected " +
                         std::to_string(cand.expect.count));
      }
      lat.push_back(now - start);
      at.push_back(start - RunOrigin());
      recs.push_back(got.count);
      records += got.count;
      reads += r.io.reads;
      const uint64_t n =
          cand.kind == QueryKind::kStabbing ? d.ivs.size() : d.pts.size();
      bt.Add(r.stats.total_reads(), n, got.count,
             RecordsPerPage(kDefaultPageSize - kPageTrailerBytes),
             std::max<size_t>(1, r.shards.size()));
    }
    size_t prev = high.load();
    while (i > prev && !high.compare_exchange_weak(prev, i)) {
    }
    std::lock_guard<std::mutex> lk(merge_mu);
    seg.query_ns.insert(seg.query_ns.end(), lat.begin(), lat.end());
    seg.query_at_ns.insert(seg.query_at_ns.end(), at.begin(), at.end());
    seg.query_records.insert(seg.query_records.end(), recs.begin(),
                             recs.end());
    seg.records += records;
    seg.io_reads += reads;
    res->AddAttempted(attempted);
    for (const auto& f : failures) res->Fail(f);
    for (const auto& w : wrongs) res->Wrong(w);
    if (bound != nullptr) {
      bound->max = std::max(bound->max, bt.max);
      bound->sum += bt.sum;
      bound->count += bt.count;
    }
  };
  std::vector<std::thread> callers;
  for (uint32_t c = 0; c < kCallers; ++c) callers.emplace_back(caller, c);
  for (auto& t : callers) t.join();
  seg.start_ns = t0 - RunOrigin();
  seg.seconds = double(NowNs() - t0) / 1e9;
  seg.queries = seg.query_ns.size();
  *next = high.load();
  return seg;
}

// The direct pass: per shard a stack the benchmark builds itself —
// File -> timer -> Checksum -> timer -> Pool -> timer -> structure — with
// the shard's slice of the same records and the same pool budget, queried
// from one thread in the router's shard order.
struct DirectShard {
  std::string path;
  std::unique_ptr<FilePageDevice> file;
  std::unique_ptr<TimedDevice> tfile;
  std::unique_ptr<ChecksumPageDevice> sum;
  std::unique_ptr<TimedDevice> tsum;
  std::unique_ptr<SharedBufferPool> pool;
  std::unique_ptr<TimedDevice> tpool;
  StaticHandles h;
  bool has[3] = {false, false, false};
};

void DirectPass(const Data& d, const std::vector<Draw>& stream,
                size_t warm_first, size_t warm_end, size_t first, size_t count,
                const ShardMap& map, size_t pool_pages, const std::string& dir,
                RawResult* res) {
  std::vector<DirectShard> shards(kShards);
  for (uint32_t k = 0; k < kShards; ++k) {
    DirectShard& s = shards[k];
    std::vector<Point> pts;
    std::vector<Interval> ivs;
    for (const Point& p : d.pts) {
      if (map.ShardOf(p.x) == k) pts.push_back(p);
    }
    for (const Interval& iv : d.ivs) {
      const auto [lo, hi] = map.Overlapping(iv.lo, iv.hi);
      if (lo <= k && k <= hi) ivs.push_back(iv);
    }
    s.path = dir + "/scan_overflow_direct_" + std::to_string(k) + ".db";
    s.file = Take(FilePageDevice::Create(s.path), "create direct store");
    s.tfile = std::make_unique<TimedDevice>(s.file.get(), "io.device");
    s.sum = std::make_unique<ChecksumPageDevice>(s.tfile.get());
    s.tsum = std::make_unique<TimedDevice>(s.sum.get(), "io.checksum");
    PageId m[3] = {kInvalidPageId, kInvalidPageId, kInvalidPageId};
    s.has[0] = s.has[1] = !pts.empty();
    s.has[2] = !ivs.empty();
    if (s.has[0]) {
      ExternalPst two(s.sum.get());
      Check(two.Build(pts), "direct build 2-sided");
      m[0] = Take(two.Save(), "direct save 2-sided");
      ThreeSidedPst three(s.sum.get());
      Check(three.Build(pts), "direct build 3-sided");
      m[1] = Take(three.Save(), "direct save 3-sided");
    }
    if (s.has[2]) {
      ExtSegmentTree seg(s.sum.get());
      Check(seg.Build(ivs), "direct build stab");
      m[2] = Take(seg.Save(), "direct save stab");
    }
    s.pool = std::make_unique<SharedBufferPool>(s.tsum.get(),
                                                pool_pages / kShards);
    s.tpool = std::make_unique<TimedDevice>(s.pool.get(), "io.pool");
    s.h.records_per_page = RecordsPerPage(s.tpool->page_size());
    // Open only the kinds this shard holds.
    if (s.has[0]) {
      s.h.two = std::make_unique<ExternalPst>(s.tpool.get());
      Check(s.h.two->Open(m[0]), "direct open 2-sided");
      s.h.three = std::make_unique<ThreeSidedPst>(s.tpool.get());
      Check(s.h.three->Open(m[1]), "direct open 3-sided");
    }
    if (s.has[2]) {
      s.h.stab = std::make_unique<ExtSegmentTree>(s.tpool.get());
      Check(s.h.stab->Open(m[2]), "direct open stab");
    }
    Check(s.file->Sync(), "direct sync");
    DropOsCache(s.path);
  }
  auto run = [&](size_t i, bool traced) {
    const Candidate& c = d.cands[stream[i].kind][stream[i].cand];
    const ServeQuery q = Tagged(c.kind, c.q, i);
    uint32_t lo = 0, hi = 0;
    switch (c.kind) {
      case QueryKind::kTwoSided:
        std::tie(lo, hi) = map.Overlapping(q.two_sided.x_min, INT64_MAX);
        break;
      case QueryKind::kThreeSided:
        std::tie(lo, hi) =
            map.Overlapping(q.three_sided.x_min, q.three_sided.x_max);
        break;
      case QueryKind::kStabbing:
        lo = hi = map.ShardOf(q.stab);
        break;
    }
    SpanScope span("direct:request", traced ? i + 1 : 0);
    Fingerprint total;
    for (uint32_t k = lo; k <= hi; ++k) {
      if (!shards[k].has[stream[i].kind]) continue;
      Fingerprint got;
      QueryStats qs;
      Check(shards[k].h.Run(c.kind, q, traced ? i + 1 : 0, &got, &qs),
            "direct query");
      total.count += got.count;
      total.sum += got.sum;
    }
    if (!(total == c.expect)) res->Wrong("direct-pass answer mismatch");
  };
  for (size_t i = warm_first; i < warm_end; ++i) run(i, false);
  uint64_t hits0 = 0, misses0 = 0, ev0 = 0, reads0 = 0, sys0 = 0;
  for (DirectShard& s : shards) {
    hits0 += s.pool->hits();
    misses0 += s.pool->misses();
    ev0 += s.pool->evictions();
    reads0 += s.file->stats().reads;
    sys0 += s.file->read_syscalls();
  }
  SpanSink::Get().Enable(true);
  for (size_t i = first; i < first + count; ++i) run(i, true);
  SpanSink::Get().Enable(false);
  uint64_t hits = 0, misses = 0, ev = 0, reads = 0, sys = 0;
  for (DirectShard& s : shards) {
    hits += s.pool->hits();
    misses += s.pool->misses();
    ev += s.pool->evictions();
    reads += s.file->stats().reads;
    sys += s.file->read_syscalls();
  }
  SpanSink::Get().Counter(
      "direct", {{"queries", double(count)},
                 {"pool_hits", double(hits - hits0)},
                 {"pool_misses", double(misses - misses0)},
                 {"pool_evictions", double(ev - ev0)},
                 {"device_reads", double(reads - reads0)},
                 {"device_read_syscalls", double(sys - sys0)}});
}

}  // namespace

int RunScanOverflow(const RunOptions& opt, RawResult* res) {
  const Config cfg = ConfigFor(opt.tiny);
  Data d;
  d.pts = GridPoints(cfg.n_pts, opt.seed);
  d.ivs = GridIntervals(cfg.n_ivs, cfg.iv_len_frac, opt.seed + 1);
  const uint64_t b = RecordsPerPage(kDefaultPageSize - kPageTrailerBytes);
  const uint64_t t_lo = opt.tiny ? b : 50 * b;
  const uint64_t t_hi = opt.tiny ? 20 * b : 500 * b;
  Rng rng(opt.seed * 7 + 3);
  d.cands[0] = TwoSidedCandidates(d.pts, cfg.pool, t_lo, t_hi, &rng);
  d.cands[1] = ThreeSidedCandidates(d.pts, cfg.pool, t_lo, t_hi, 4, &rng);
  d.cands[2] = StabCandidates(d.ivs, cfg.pool, t_lo, t_hi, &rng);
  InputDigest in;
  in.Add(d.pts);
  in.Add(d.ivs);

  // The pool budget is 1/8 of the store; the store's size is known only
  // once built, so the first setup sizes the pool for the later ones.
  size_t pool_pages = static_cast<size_t>(
      double(cfg.n_pts + cfg.n_ivs) * 0.25 / kStoreOverPool);
  // Each set-up writes fresh files; none is deleted inside the run, so
  // freeing a store's blocks never overlaps the timed window.
  std::unique_ptr<Stack> st;
  for (int i = 0; i < cfg.setups; ++i) {
    st.reset();
    const uint64_t t0 = NowNs();
    st = SetUp(d, opt.workdir + "/scan_overflow_" + std::to_string(i) + "_",
               pool_pages);
    res->setup_s.push_back(double(NowNs() - t0) / 1e9);
    pool_pages = static_cast<size_t>(double(st->store_pages()) / kStoreOverPool);
  }
  res->counters["pool_pages"] = double(pool_pages);
  res->counters["store_pages"] = double(st->store_pages());
  uint64_t store_bytes = 0;
  for (const ShardDevice& sd : st->devs) store_bytes += FileBytes(sd.path);
  res->counters["store_bytes"] = double(store_bytes);
  for (int k = 0; k < 3; ++k) {
    res->counters[std::string("store_pages.") +
                  KindName(static_cast<QueryKind>(k))] = double(st->pages[k]);
  }
  res->meta["read_backend"] =
      st->devs[0].file->read_backend() == FilePageDevice::ReadBackend::kIoUring
          ? "io_uring"
          : "preadv";
  std::string fadvise;
  for (const ShardDevice& sd : st->devs) {
    const std::string v = DropOsCache(sd.path);
    if (fadvise.empty() || v != "honored") fadvise = v;
  }
  res->meta["fadvise_drop"] = fadvise;

  const std::vector<Draw> stream =
      MakeStream(d.cands, opt.tiny ? 20'000 : 400'000, kZipfTheta,
                 opt.seed * 13 + 5);
  for (const Draw& dr : stream) {
    const Candidate& c = d.cands[dr.kind][dr.cand];
    in.Add(QueryKey(c.kind, c.q));
  }
  res->meta["inputs"] = std::to_string(in.h);

  size_t next = 0;
  BoundTracker bound;
  ClosedLoop(d, stream, next, opt.tiny ? 0.3 : 1.5, st.get(), "warmup", res,
             &next, &bound);
  const size_t warm_end = next;
  auto pool_stats = [&] {
    std::array<uint64_t, 3> v{0, 0, 0};
    for (uint32_t k = 0; k < kShards; ++k) {
      v[0] += st->store->pool(k)->hits();
      v[1] += st->store->pool(k)->misses();
      v[2] += st->store->pool(k)->evictions();
    }
    return v;
  };
  auto engine_stats = [&] {
    ServeStats sum;
    for (uint32_t k = 0; k < kShards; ++k) {
      const ServeStats s = st->store->engine(k)->stats();
      sum.submitted += s.submitted;
      sum.completed += s.completed;
      sum.rejected_overload += s.rejected_overload + s.rejected_quota;
      sum.expired += s.expired;
      sum.max_queue_depth = std::max(sum.max_queue_depth, s.max_queue_depth);
      sum.read_repins += s.read_repins;
    }
    return sum;
  };
  if (!opt.trace) {
    const auto p0 = pool_stats();
    res->segments.push_back(ClosedLoop(d, stream, next, opt.seconds, st.get(),
                                       "measure", res, &next, &bound));
    const auto p1 = pool_stats();
    res->counters["pool_hit_rate"] =
        double(p1[0] - p0[0]) /
        std::max<double>(1, double(p1[0] - p0[0] + p1[1] - p0[1]));
  } else {
    const double part = std::min(opt.seconds / 3.0, 2.0);
    res->segments.push_back(ClosedLoop(d, stream, next, part, st.get(),
                                       "untraced", res, &next, &bound));
    const ServeStats s0 = engine_stats();
    SpanSink::Get().Enable(true);
    const size_t traced_first = next;
    Segment traced = ClosedLoop(d, stream, next, part, st.get(), "traced", res,
                                &next, &bound);
    SpanSink::Get().Enable(false);
    const ServeStats s1 = engine_stats();
    SpanSink::Get().Counter(
        "serve", {{"submitted", double(s1.submitted - s0.submitted)},
                  {"completed", double(s1.completed - s0.completed)},
                  {"rejected", double(s1.rejected_overload - s0.rejected_overload)},
                  {"expired", double(s1.expired - s0.expired)},
                  {"max_queue_depth", double(s1.max_queue_depth)},
                  {"read_repins", double(s1.read_repins - s0.read_repins)}});
    res->segments.push_back(std::move(traced));
    const ShardMap map = st->store->map();
    st.reset();
    DirectPass(d, stream, 0, warm_end, traced_first,
               std::min<size_t>(next - traced_first, opt.tiny ? 200 : 400),
               map, pool_pages, opt.workdir, res);
  }
  res->counters["bound_max"] = bound.max;
  res->counters["bound_mean"] = bound.mean();
  res->counters["user_bytes"] = double((d.pts.size() + d.ivs.size()) * 24);
  res->counters["peak_rss_kb"] = double(PeakRssKb());
  return 0;
}

}  // namespace perfbench
