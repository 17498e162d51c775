// hot-wire: the remote-user path when the working set fits in memory.
//
//   NetClient x2 -> NetServer -> QueryEngine (2 workers) -> SharedBufferPool
//   (holds the whole store) -> ChecksumPageDevice -> FilePageDevice
//
// Open loop over loopback TCP: per connection one sender paces requests to
// a fixed schedule and one receiver drains the in-order responses; latency
// runs from each request's due time, so a stall also counts against every
// request queued behind it.  A reference-rate segment gives the latency
// percentiles; a fixed rate ladder gives the highest rate that meets the
// latency limit.
#include <algorithm>
#include <condition_variable>
#include <deque>

#include "data.h"
#include "io/checksum_page_device.h"
#include "io/file_page_device.h"
#include "io/shared_buffer_pool.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/query_engine.h"

namespace perfbench {
namespace {

constexpr double kZipfTheta = 0.99;
constexpr uint32_t kConnections = 2;
// Reference/ladder alternations per timed run.
constexpr int kPasses = 6;

struct Config {
  uint64_t n;          // records per structure
  size_t pool;         // candidates per kind
  double ref_rate;     // requests/s of the reference segment
  std::vector<double> ladder;
  int setups;
};

Config ConfigFor(bool tiny) {
  if (tiny) return {20'000, 64, 2'000, {2'000, 4'000}, 2};
  // n = 120k gives ceil(log_B n) = 3 at B = 170 (and at B = 256).
  return {120'000, 1024, 20'000,
          {60'000, 80'000, 100'000, 120'000, 140'000, 160'000}, 3};
}

struct Data {
  std::vector<Point> pts;
  std::vector<Interval> ivs;
  std::vector<Candidate> cands[3];
};

struct Stack {
  PageId manifests[3] = {kInvalidPageId, kInvalidPageId, kInvalidPageId};
  std::unique_ptr<FilePageDevice> file;
  std::unique_ptr<TimedDevice> tfile;
  std::unique_ptr<ChecksumPageDevice> sum;
  std::unique_ptr<TimedDevice> tsum;
  std::unique_ptr<SharedBufferPool> pool;
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<TimedService> svc;
  std::unique_ptr<net::NetServer> server;

  ~Stack() { Stop(); }
  void Stop() {
    if (server) server->Stop();
    if (engine) engine->Stop();
  }
};

// Build + cluster + save every structure, then open and start the serving
// stack: exactly what setup_s times.
std::unique_ptr<Stack> SetUp(const Data& d, const std::string& path) {
  auto st = std::make_unique<Stack>();
  {
    auto file = Take(FilePageDevice::Create(path), "create store");
    ChecksumPageDevice sum(file.get());
    ExternalPst two(&sum);
    Check(two.Build(d.pts), "build 2-sided");
    Check(two.Cluster(), "cluster 2-sided");
    st->manifests[0] = Take(two.Save(), "save 2-sided");
    ThreeSidedPst three(&sum);
    Check(three.Build(d.pts), "build 3-sided");
    Check(three.Cluster(), "cluster 3-sided");
    st->manifests[1] = Take(three.Save(), "save 3-sided");
    ExtSegmentTree seg(&sum);
    Check(seg.Build(d.ivs), "build stab");
    Check(seg.Cluster(), "cluster stab");
    st->manifests[2] = Take(seg.Save(), "save stab");
    Check(file->Sync(), "sync store");
  }
  st->file = Take(FilePageDevice::Open(path), "open store");
  st->tfile = std::make_unique<TimedDevice>(st->file.get(), "io.device");
  st->sum = std::make_unique<ChecksumPageDevice>(st->tfile.get());
  st->tsum = std::make_unique<TimedDevice>(st->sum.get(), "io.checksum");
  // Large enough for the whole store: after warm-up the device is idle.
  st->pool = std::make_unique<SharedBufferPool>(st->tsum.get(),
                                                st->file->live_pages() + 64);
  QueryEngineOptions eo;
  eo.num_workers = 2;
  eo.queue_capacity = 4096;
  st->engine = std::make_unique<QueryEngine>(st->pool.get(), eo);
  for (PageId m : st->manifests) {
    Take(st->engine->AddStructure(m), "register structure");
  }
  Check(st->engine->Start(), "start engine");
  st->svc = std::make_unique<TimedService>(st->engine.get());
  st->server = std::make_unique<net::NetServer>(st->svc.get());
  Check(st->server->Start(), "start server");
  return st;
}

net::Request MakeRequest(const Data& d, const Draw& dr, uint64_t i,
                         const uint32_t ids[3]) {
  const Candidate& c = d.cands[dr.kind][dr.cand];
  const ServeQuery q = Tagged(c.kind, c.q, i);
  net::Request r;
  r.request_id = i + 1;
  r.structure_id = ids[dr.kind];
  switch (c.kind) {
    case QueryKind::kTwoSided:
      r.type = net::MsgType::kQueryTwoSided;
      r.two_sided = q.two_sided;
      break;
    case QueryKind::kThreeSided:
      r.type = net::MsgType::kQueryThreeSided;
      r.three_sided = q.three_sided;
      break;
    case QueryKind::kStabbing:
      r.type = net::MsgType::kQueryStab;
      r.stab = q.stab;
      break;
  }
  return r;
}

// The open-loop generator: two connections, each with one sender thread
// pacing requests to its share of the schedule and one receiver thread
// draining the in-order responses.
class Loadgen {
 public:
  Loadgen(const Data& d, const std::vector<Draw>& stream, uint16_t port,
          const uint32_t ids[3])
      : d_(d), stream_(stream), ids_(ids) {
    for (net::NetClient& c : conns_) Check(c.Connect("127.0.0.1", port), "connect");
  }

  // Runs stream[first, ...) at `rate` for `seconds`.  Requests still unsent
  // half a segment past the end are counted as unsent (they miss any
  // latency limit) rather than stretching the run.
  Segment Run(size_t first, double rate, double seconds, const char* name,
              RawResult* res, size_t* next) {
    Segment seg;
    seg.name = name;
    seg.rate = rate;
    const auto total = static_cast<size_t>(rate * seconds);
    const uint64_t t0 = NowNs() + 1'000'000;
    std::mutex merge_mu;
    std::vector<std::thread> senders;
    for (uint32_t c = 0; c < kConnections; ++c) {
      senders.emplace_back([&, c] {
        Segment part = RunConnection(c, first, total, rate, seconds, t0, res);
        std::lock_guard<std::mutex> lk(merge_mu);
        auto append = [](std::vector<uint64_t>& to, const std::vector<uint64_t>& from) {
          to.insert(to.end(), from.begin(), from.end());
        };
        append(seg.query_ns, part.query_ns);
        append(seg.query_at_ns, part.query_at_ns);
        append(seg.query_records, part.query_records);
        append(seg.lag_ns, part.lag_ns);
        seg.records += part.records;
        seg.unsent += part.unsent;
      });
    }
    for (auto& t : senders) t.join();
    seg.start_ns = t0 - RunOrigin();
    seg.seconds = double(NowNs() - t0) / 1e9;
    seg.queries = seg.query_ns.size();
    *next = first + total;
    return seg;
  }

 private:
  // Connection c sends requests first + k for k = c, c + 2, ...
  Segment RunConnection(uint32_t c, size_t first, size_t total, double rate,
                        double seconds, uint64_t t0, RawResult* res) {
    TightTimerSlack();
    net::NetClient& conn = conns_[c];
    const uint64_t deadline = t0 + static_cast<uint64_t>(1.5e9 * seconds);
    const double step_ns = 1e9 / rate;
    Segment seg;
    struct Pending {
      uint64_t due;
      size_t i;
    };
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Pending> pending;
    bool done_sending = false;
    std::thread receiver([&] {
      net::Response resp;
      for (;;) {
        Pending p;
        {
          std::unique_lock<std::mutex> lk(mu);
          cv.wait(lk, [&] { return !pending.empty() || done_sending; });
          if (pending.empty()) return;
          p = pending.front();
          pending.pop_front();
        }
        const Status rs = conn.Receive(&resp);
        const uint64_t now = NowNs();
        if (!rs.ok()) {
          res->Fail("receive: " + rs.ToString());
          continue;
        }
        const Draw& dr = stream_[p.i];
        const Candidate& cand = d_.cands[dr.kind][dr.cand];
        if (resp.type != net::MsgType::kPoints &&
            resp.type != net::MsgType::kIntervals) {
          res->Fail("response type " + std::to_string(int(resp.type)) + ": " +
                    resp.message);
          continue;
        }
        const Fingerprint got = cand.kind == QueryKind::kStabbing
                                    ? Digest(resp.intervals)
                                    : Digest(resp.points);
        if (!(got == cand.expect) || resp.request_id != p.i + 1) {
          res->Wrong("request " + std::to_string(p.i) + " (" +
                     KindName(cand.kind) + "): " + std::to_string(got.count) +
                     " records, expected " + std::to_string(cand.expect.count));
        }
        seg.records += got.count;
        seg.query_ns.push_back(now - p.due);
        seg.query_at_ns.push_back(p.due - RunOrigin());
        seg.query_records.push_back(got.count);
        if (SpanSink::Get().on()) {
          Span s;
          s.name = "net:request";
          s.id = SpanSink::Get().NextId();
          s.req = p.i + 1;
          s.tid = ThreadTag();
          s.t0 = p.due;
          s.t1 = now;
          s.Arg("key",
                double(QueryKey(cand.kind, Tagged(cand.kind, cand.q, p.i))));
          SpanSink::Get().Push(s);
        }
      }
    });
    uint64_t sent = 0;
    size_t k = c;
    for (; k < total; k += kConnections) {
      const uint64_t due = t0 + static_cast<uint64_t>(step_ns * double(k));
      SleepUntilNs(due);
      if (NowNs() > deadline) break;
      const size_t i = first + k;
      const net::Request req = MakeRequest(d_, stream_[i], i, ids_);
      {
        std::lock_guard<std::mutex> lk(mu);
        pending.push_back({due, i});
      }
      cv.notify_one();
      const Status ss = conn.Send(req);
      seg.lag_ns.push_back(NowNs() - due);
      if (!ss.ok()) Die("send", ss);
      ++sent;
    }
    for (; k < total; k += kConnections) ++seg.unsent;
    {
      std::lock_guard<std::mutex> lk(mu);
      done_sending = true;
    }
    cv.notify_one();
    receiver.join();
    res->AddAttempted(sent);
    return seg;
  }

  const Data& d_;
  const std::vector<Draw>& stream_;
  const uint32_t* ids_;
  net::NetClient conns_[kConnections];
};

// Runs each candidate once directly on the structures and tracks
// reads / bound; any wrong answer is a correctness failure.
void BoundCheck(const Data& d, PageDevice* dev, const PageId manifests[3],
                RawResult* res) {
  StaticHandles h;
  Check(h.Open(dev, manifests), "open direct handles");
  BoundTracker bt;
  for (int k = 0; k < 3; ++k) {
    for (const Candidate& c : d.cands[k]) {
      Fingerprint got;
      QueryStats qs;
      Check(h.Run(c.kind, c.q, 0, &got, &qs), "bound-check query");
      if (!(got == c.expect)) res->Wrong("bound-check answer mismatch");
      bt.Add(qs.total_reads(), h.size(c.kind), got.count, h.records_per_page);
    }
  }
  res->counters["bound_max"] = bt.max;
  res->counters["bound_mean"] = bt.mean();
}

}  // namespace

int RunHotWire(const RunOptions& opt, RawResult* res) {
  const Config cfg = ConfigFor(opt.tiny);
  Data d;
  d.pts = GridPoints(cfg.n, opt.seed);
  d.ivs = GridIntervals(cfg.n, 0.0005, opt.seed + 1);
  Rng rng(opt.seed * 7 + 3);
  const uint64_t b = RecordsPerPage(kDefaultPageSize - kPageTrailerBytes);
  d.cands[0] = TwoSidedCandidates(d.pts, cfg.pool, 1, b, &rng);
  d.cands[1] = ThreeSidedCandidates(d.pts, cfg.pool, 1, b, 1e9, &rng);
  d.cands[2] = StabCandidates(d.ivs, cfg.pool, 0, b, &rng);
  InputDigest in;
  in.Add(d.pts);
  in.Add(d.ivs);

  // Each set-up writes a fresh file; none is deleted inside the run, so
  // freeing a store's blocks never overlaps the timed window.
  std::string path;
  std::unique_ptr<Stack> st;
  for (int i = 0; i < cfg.setups; ++i) {
    st.reset();
    path = opt.workdir + "/hot_wire_" + std::to_string(i) + ".db";
    const uint64_t t0 = NowNs();
    st = SetUp(d, path);
    res->setup_s.push_back(double(NowNs() - t0) / 1e9);
  }
  const uint32_t ids[3] = {0, 1, 2};
  const uint16_t port = st->server->port();
  res->meta["read_backend"] =
      st->file->read_backend() == FilePageDevice::ReadBackend::kIoUring
          ? "io_uring"
          : "preadv";
  res->meta["fadvise_drop"] = "not used by this workload";

  // The whole stream, seeded; segments consume consecutive slices.
  double planned = cfg.ref_rate * (opt.seconds + 1.0);
  for (double r : cfg.ladder) planned += r * opt.seconds;
  const std::vector<Draw> stream =
      MakeStream(d.cands, static_cast<size_t>(planned) + 1024, kZipfTheta,
                 opt.seed * 13 + 5);
  for (const Draw& dr : stream) {
    const Candidate& c = d.cands[dr.kind][dr.cand];
    in.Add(QueryKey(c.kind, c.q));
  }
  res->meta["inputs"] = std::to_string(in.h);

  // Warm-up: every candidate once directly through the serving pool (which
  // also checks each answer and the I/O bound), then a spell at the
  // reference rate, so the pool holds the working set before timing.
  BoundCheck(d, st->pool.get(), st->manifests, res);
  Loadgen gen(d, stream, port, ids);
  size_t next = 0;
  gen.Run(next, cfg.ref_rate, opt.tiny ? 0.3 : 1.5, "warmup", res, &next);

  if (!opt.trace) {
    // Reference segments and ladder rungs alternate over several passes, so
    // a burst of host noise lands in a few windows of each, not all of one.
    const double ref_s = 0.4 * opt.seconds / kPasses;
    const double rung_s = 0.6 * opt.seconds / kPasses / double(cfg.ladder.size());
    for (int pass = 0; pass < kPasses; ++pass) {
      const ServeStats before = st->engine->stats();
      Segment ref = gen.Run(next, cfg.ref_rate, ref_s, "reference", res, &next);
      const ServeStats after = st->engine->stats();
      ref.io_reads = after.io.reads - before.io.reads;
      ref.queries = after.completed - before.completed;
      res->segments.push_back(std::move(ref));
      for (double rate : cfg.ladder) {
        res->segments.push_back(gen.Run(next, rate, rung_s, "ladder", res, &next));
      }
    }
  } else {
    // Untraced and traced runs of the same rate, then the direct pass over
    // the traced segment's requests.  Spans are held in memory, so the
    // traced window is capped.
    const double part = std::min(opt.seconds / 3.0, 2.0);
    res->segments.push_back(
        gen.Run(next, cfg.ref_rate, part, "untraced", res, &next));
    const net::NetServerStats n0 = st->server->stats();
    const ServeStats s0 = st->engine->stats();
    SpanSink::Get().Enable(true);
    const size_t traced_first = next;
    Segment traced = gen.Run(next, cfg.ref_rate, part, "traced", res, &next);
    SpanSink::Get().Enable(false);
    const net::NetServerStats n1 = st->server->stats();
    const ServeStats s1 = st->engine->stats();
    SpanSink::Get().Counter(
        "net", {{"queries", double(traced.query_ns.size())},
                {"bytes", double(n1.bytes_in - n0.bytes_in + n1.bytes_out -
                                 n0.bytes_out)},
                {"read_pauses", double(n1.read_pauses - n0.read_pauses)},
                {"retry_after", double(n1.retry_after - n0.retry_after)}});
    SpanSink::Get().Counter(
        "serve",
        {{"submitted", double(s1.submitted - s0.submitted)},
         {"completed", double(s1.completed - s0.completed)},
         {"rejected",
          double(s1.rejected_overload + s1.rejected_quota -
                 s0.rejected_overload - s0.rejected_quota)},
         {"expired", double(s1.expired - s0.expired)},
         {"max_queue_depth", double(s1.max_queue_depth)},
         {"read_repins", double(s1.read_repins - s0.read_repins)}});
    res->segments.push_back(std::move(traced));

    // Direct pass: one thread, File -> timer -> Checksum -> timer -> Pool ->
    // timer -> structure, replaying the traced segment's requests with the
    // same request ids.
    st->Stop();
    auto file = Take(FilePageDevice::Open(path), "reopen store");
    TimedDevice tfile(file.get(), "io.device");
    ChecksumPageDevice sum(&tfile);
    TimedDevice tsum(&sum, "io.checksum");
    SharedBufferPool pool(&tsum, file->live_pages() + 64);
    TimedDevice tpool(&pool, "io.pool");
    StaticHandles h;
    Check(h.Open(&tpool, st->manifests), "open direct handles");
    Fingerprint got;
    QueryStats qs;
    for (int k = 0; k < 3; ++k) {
      for (const Candidate& c : d.cands[k]) {
        Check(h.Run(c.kind, c.q, 0, &got, &qs), "direct warm-up");
      }
    }
    const uint64_t hits0 = pool.hits(), misses0 = pool.misses(),
                   ev0 = pool.evictions(), reads0 = file->stats().reads,
                   sys0 = file->read_syscalls();
    const size_t count = std::min<size_t>(next - traced_first, 5'000);
    SpanSink::Get().Enable(true);
    for (size_t i = traced_first; i < traced_first + count; ++i) {
      const Candidate& c = d.cands[stream[i].kind][stream[i].cand];
      qs = QueryStats{};
      SpanScope span("direct:request", i + 1);
      Check(h.Run(c.kind, Tagged(c.kind, c.q, i), i + 1, &got, &qs),
            "direct query");
      if (!(got == c.expect)) res->Wrong("direct-pass answer mismatch");
    }
    SpanSink::Get().Enable(false);
    SpanSink::Get().Counter(
        "direct", {{"queries", double(count)},
                   {"pool_hits", double(pool.hits() - hits0)},
                   {"pool_misses", double(pool.misses() - misses0)},
                   {"pool_evictions", double(pool.evictions() - ev0)},
                   {"device_reads", double(file->stats().reads - reads0)},
                   {"device_read_syscalls",
                    double(file->read_syscalls() - sys0)}});
  }

  st->Stop();
  res->counters["store_bytes"] = double(FileBytes(path));
  res->counters["user_bytes"] = double((d.pts.size() + d.ivs.size()) * 24);
  res->counters["peak_rss_kb"] = double(PeakRssKb());
  return 0;
}

}  // namespace perfbench
