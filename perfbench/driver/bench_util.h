// Shared plumbing for the perfbench driver: clocks, answer fingerprints,
// the in-memory span recorder, timing decorators placed around the
// library's public interfaces, and the raw-result writer.
//
// Every layer is timed from outside: a TimedDevice wraps a PageDevice, a
// TimedService wraps a QueryService, and the workload code opens spans
// around direct structure calls.  Nothing here reaches into src/ internals.
#ifndef PERFBENCH_DRIVER_BENCH_UTIL_H_
#define PERFBENCH_DRIVER_BENCH_UTIL_H_

#include <sys/prctl.h>
#include <sys/resource.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "io/page_device.h"
#include "serve/query_service.h"
#include "util/geometry.h"
#include "util/json_writer.h"
#include "util/status.h"

namespace perfbench {

using namespace pathcache;  // NOLINT: the driver is one program over one library

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The steady-clock time the process started measuring from; sample
/// timestamps are offsets from it, so windows from different segments of
/// one run never collide.
uint64_t RunOrigin();

/// Sleeps until `due_ns` on the steady clock.  Senders call
/// TightTimerSlack() once so these sleeps wake within a few microseconds
/// instead of the default 50 µs slack; how late a sender still runs is
/// reported as loadgen lag.
inline void SleepUntilNs(uint64_t due_ns) {
  const uint64_t now = NowNs();
  if (now < due_ns) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
  }
}
/// Busy-waits until `due_ns`: keeps the submitting CPU awake, so a sleep's
/// wake-up latency on an idle virtual CPU never enters a latency sample.
inline void SpinUntilNs(uint64_t due_ns) {
  while (NowNs() < due_ns) {
  }
}
inline void TightTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

[[noreturn]] inline void Die(const std::string& what, const Status& s) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               s.ToString().c_str());
  std::exit(2);
}
inline void Check(const Status& s, const char* what) {
  if (!s.ok()) Die(what, s);
}
template <typename T>
T Take(Result<T> r, const char* what) {
  if (!r.ok()) Die(what, r.status());
  return std::move(r).value();
}

inline uint64_t Mix64(uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Order-insensitive digest of a result set.  Two answers with the same
/// records (in any order) digest equal; a missing, extra or altered record
/// changes the sum with overwhelming probability.
struct Fingerprint {
  uint64_t count = 0;
  uint64_t sum = 0;
  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};
inline uint64_t RecordHash(int64_t a, int64_t b, uint64_t id) {
  return Mix64(Mix64(static_cast<uint64_t>(a)) ^
               Mix64(static_cast<uint64_t>(b) + 0x51ULL) ^ (id * 0x2545F4914F6CDD1DULL));
}
inline Fingerprint Digest(std::span<const Point> pts) {
  Fingerprint f;
  for (const Point& p : pts) f.sum += RecordHash(p.x, p.y, p.id);
  f.count = pts.size();
  return f;
}
inline Fingerprint Digest(std::span<const Interval> ivs) {
  Fingerprint f;
  for (const Interval& iv : ivs) f.sum += RecordHash(iv.lo, iv.hi, iv.id);
  f.count = ivs.size();
  return f;
}

/// Digest of the generated inputs, printed so two runs can be shown to use
/// identical (same seed) or different (other seed) data.
struct InputDigest {
  uint64_t h = 0x1234567;
  void Add(uint64_t v) { h = Mix64(h ^ v); }
  void Add(const std::vector<Point>& pts) {
    for (const Point& p : pts) Add(RecordHash(p.x, p.y, p.id));
  }
  void Add(const std::vector<Interval>& ivs) {
    for (const Interval& iv : ivs) Add(RecordHash(iv.lo, iv.hi, iv.id));
  }
};

inline uint64_t PeakRssKb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_maxrss);
}

// ---------------------------------------------------------------------------
// Spans.  Held in memory while tracing is on, written once at the end as a
// Chrome trace (ph "X" events; exact nanosecond bounds and the request /
// parent links ride in args).

struct Span {
  static constexpr int kMaxArgs = 14;
  const char* name = "";
  uint64_t t0 = 0;
  uint64_t t1 = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t req = 0;
  uint32_t tid = 0;
  int nargs = 0;
  std::array<const char*, kMaxArgs> keys{};
  std::array<double, kMaxArgs> vals{};
  void Arg(const char* k, double v) {
    if (nargs < kMaxArgs) {
      keys[nargs] = k;
      vals[nargs] = v;
      ++nargs;
    }
  }
};

/// Process-wide span store.  Recording takes one mutex per span; its cost is
/// what trace.overhead_frac reports.
class SpanSink {
 public:
  static SpanSink& Get() {
    static SpanSink sink;
    return sink;
  }
  bool on() const { return on_.load(std::memory_order_relaxed); }
  void Enable(bool on) { on_.store(on, std::memory_order_relaxed); }
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Push(Span s) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(std::move(s));
  }
  /// A stable copy of `name` that outlives whoever built it: spans keep
  /// name pointers until the trace is written at exit.
  const char* Intern(const std::string& name) {
    std::lock_guard<std::mutex> lk(mu_);
    return names_.insert(name).first->c_str();
  }
  /// A named counter snapshot, written as a Chrome "C" event.
  void Counter(const std::string& name,
               std::vector<std::pair<std::string, double>> vals) {
    std::lock_guard<std::mutex> lk(mu_);
    counters_.emplace_back(name, std::move(vals));
  }
  /// Writes every span and counter; returns false if the file cannot be
  /// written.
  bool WriteChromeTrace(const std::string& path, uint64_t origin_ns) const;

 private:
  std::atomic<bool> on_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::set<std::string> names_;
  std::vector<std::pair<std::string, std::vector<std::pair<std::string, double>>>>
      counters_;
};

uint32_t ThreadTag();

/// The span the calling thread is inside (0 = none) and its request id;
/// decorators below parent their spans here.
struct SpanContext {
  uint64_t parent = 0;
  uint64_t req = 0;
};
SpanContext& CurrentContext();

/// RAII span on the calling thread.  Inert while the sink is off.
class SpanScope {
 public:
  SpanScope(const char* name, uint64_t req = 0) {
    SpanSink& sink = SpanSink::Get();
    if (!sink.on()) return;
    active_ = true;
    SpanContext& ctx = CurrentContext();
    span_.name = name;
    span_.id = sink.NextId();
    span_.parent = ctx.parent;
    span_.req = req != 0 ? req : ctx.req;
    span_.tid = ThreadTag();
    saved_ = ctx;
    ctx.parent = span_.id;
    ctx.req = span_.req;
    span_.t0 = NowNs();
  }
  ~SpanScope() {
    if (!active_) return;
    span_.t1 = NowNs();
    CurrentContext() = saved_;
    SpanSink::Get().Push(std::move(span_));
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  void Arg(const char* k, double v) {
    if (active_) span_.Arg(k, v);
  }
  bool active() const { return active_; }

 private:
  bool active_ = false;
  Span span_;
  SpanContext saved_;
};

/// PageDevice decorator that opens one span per call.  `layer` names the
/// device below it ("io.pool", "io.checksum", "io.device"); spans are
/// "<layer>:<op>".  A pure pass-through while the sink is off.
class TimedDevice final : public PageDevice {
 public:
  TimedDevice(PageDevice* inner, std::string layer);

  uint32_t page_size() const override { return inner_->page_size(); }
  Result<PageId> Allocate() override { return inner_->Allocate(); }
  Status Free(PageId id) override { return inner_->Free(id); }
  Status Read(PageId id, std::byte* buf) override {
    SpanScope s(op_read_);
    s.Arg("pages", 1);
    return inner_->Read(id, buf);
  }
  Status ReadBatch(std::span<const PageId> ids, std::byte* bufs) override {
    SpanScope s(op_batch_);
    s.Arg("pages", static_cast<double>(ids.size()));
    return inner_->ReadBatch(ids, bufs);
  }
  Result<uint64_t> SubmitBatch(std::span<const PageId> ids,
                               std::byte* bufs) override {
    SpanScope s(op_submit_);
    s.Arg("pages", static_cast<double>(ids.size()));
    return inner_->SubmitBatch(ids, bufs);
  }
  Status AwaitBatch(uint64_t ticket) override {
    SpanScope s(op_await_);
    return inner_->AwaitBatch(ticket);
  }
  Status Write(PageId id, const std::byte* buf) override {
    SpanScope s(op_write_);
    s.Arg("pages", 1);
    return inner_->Write(id, buf);
  }
  Status Sync() override {
    SpanScope s(op_sync_);
    return inner_->Sync();
  }
  Status ListLivePages(std::vector<PageId>* out) override {
    return inner_->ListLivePages(out);
  }
  Result<const std::byte*> Pin(PageId id) override {
    SpanScope s(op_pin_);
    s.Arg("pages", 1);
    return inner_->Pin(id);
  }
  void Unpin(PageId id) override { inner_->Unpin(id); }
  const IoStats& stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }
  uint64_t live_pages() const override { return inner_->live_pages(); }

 private:
  PageDevice* inner_;
  const char* op_read_;
  const char* op_batch_;
  const char* op_submit_;
  const char* op_await_;
  const char* op_write_;
  const char* op_sync_;
  const char* op_pin_;
};

/// QueryService decorator: one "serve:request" span from Submit to the
/// completion callback (which runs on a worker thread, so the span is
/// closed by hand).  The span carries the request's structure-side counts
/// and, for routed queries, the per-shard slice breakdown.
class TimedService final : public QueryService {
 public:
  explicit TimedService(QueryService* inner) : inner_(inner) {}

  Status Submit(uint32_t structure_id, const ServeQuery& query,
                QueryDoneCallback done, uint64_t deadline_micros = 0,
                uint32_t tenant = 0) override;
  Status SubmitUpdate(uint32_t structure_id,
                      std::span<const DynamicUpdate> updates,
                      QueryDoneCallback done, uint64_t deadline_micros = 0,
                      uint32_t tenant = 0) override;
  size_t num_structures() const override { return inner_->num_structures(); }
  QueryKind structure_kind(uint32_t id) const override {
    return inner_->structure_kind(id);
  }
  bool structure_dynamic(uint32_t id) const override {
    return inner_->structure_dynamic(id);
  }
  Clock* clock() const override { return inner_->clock(); }

 private:
  QueryService* inner_;
};

/// A 52-bit key of a query's exact coordinates, exact in a double.  The
/// network path cannot hand the wire request id to the service, so the
/// client and the service span both carry this key and the analysis joins
/// on it (queries carry a per-request tag in bits their answer ignores).
uint64_t QueryKey(QueryKind kind, const ServeQuery& q);

// ---------------------------------------------------------------------------
// Raw results: what the driver measured, before any statistics.  run.py
// turns these into metrics.

struct Segment {
  std::string name;
  double rate = 0;        // offered requests/s (0 = closed loop)
  uint64_t start_ns = 0;  // from RunOrigin()
  double seconds = 0;     // wall time of the segment
  // Per completed query / acknowledged update group: its latency and when
  // it was due (open loop) or called (closed loop), from segment start.
  std::vector<uint64_t> query_ns;
  std::vector<uint64_t> query_at_ns;
  std::vector<uint64_t> query_records;  // answer size
  std::vector<uint64_t> update_ns;
  std::vector<uint64_t> update_at_ns;
  std::vector<uint64_t> lag_ns;     // send time minus due time
  uint64_t unsent = 0;  // scheduled but not sent within the segment
  uint64_t records = 0;
  uint64_t queries = 0;
  uint64_t io_reads = 0;
};

/// Samples the virtual machine's cumulative steal time (the "steal" column
/// of /proc/stat: time the hypervisor ran something else while a virtual
/// CPU of ours was runnable) every 50 ms until destroyed.  run.py drops
/// time windows in which it ran high, since a shared host's load is not the
/// program's.  Yields no samples where /proc/stat is unavailable.
class StealSampler {
 public:
  StealSampler();
  ~StealSampler();
  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;
  /// (ns from RunOrigin(), cumulative steal in USER_HZ ticks) pairs.
  std::vector<std::pair<uint64_t, uint64_t>> Samples();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<std::pair<uint64_t, uint64_t>> samples_;
  std::thread thread_;
};

struct RawResult {
  std::string workload;
  uint64_t seed = 0;
  std::map<std::string, std::string> meta;
  std::map<std::string, double> counters;
  std::vector<double> setup_s;
  std::vector<Segment> segments;
  std::vector<std::pair<uint64_t, uint64_t>> steal;  // StealSampler::Samples
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  std::string first_error;

  // Safe from several load-generator threads at once.
  void Fail(const std::string& why) {
    std::lock_guard<std::mutex> lk(mu);
    ++failed;
    if (first_error.empty()) first_error = why;
  }
  void Wrong(const std::string& why) {
    std::lock_guard<std::mutex> lk(mu);
    ++wrong;
    if (first_error.empty()) first_error = why;
  }
  void AddAttempted(uint64_t n) {
    std::lock_guard<std::mutex> lk(mu);
    attempted += n;
  }
  std::mutex mu;
  bool Write(const std::string& path) const;
};

/// Options every workload receives.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string workdir;
  std::string trace_out;
};

/// posix_fadvise(DONTNEED) on `path` after fdatasync; returns "honored" when
/// mincore shows the file's pages left the page cache, otherwise why not.
std::string DropOsCache(const std::string& path);

/// Store bytes on disk.
uint64_t FileBytes(const std::string& path);

int RunHotWire(const RunOptions& opt, RawResult* out);
int RunScanOverflow(const RunOptions& opt, RawResult* out);
int RunUpdateMix(const RunOptions& opt, RawResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_BENCH_UTIL_H_
