#include "bench_util.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstring>

namespace perfbench {

namespace {

// Integral values go out as exact integers: the writer's %.6g double format
// would round nanosecond timestamps and 52-bit query keys.
void PutNumber(JsonWriter& w, double v) {
  if (v >= 0 && v < 9007199254740992.0 && std::floor(v) == v) {
    w.Uint(static_cast<uint64_t>(v));
  } else {
    w.Double(v);
  }
}

}  // namespace

uint64_t RunOrigin() {
  static const uint64_t origin = NowNs();
  return origin;
}

uint32_t ThreadTag() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t tag = next.fetch_add(1);
  return tag;
}

SpanContext& CurrentContext() {
  thread_local SpanContext ctx;
  return ctx;
}

bool SpanSink::WriteChromeTrace(const std::string& path,
                                uint64_t origin_ns) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lk(mu_);
  JsonWriter w(f);
  w.BeginObject().Key("displayTimeUnit").Str("ns").Key("traceEvents");
  w.BeginArray();
  for (const Span& s : spans_) {
    const uint64_t t0 = s.t0 >= origin_ns ? s.t0 - origin_ns : 0;
    const uint64_t t1 = s.t1 >= origin_ns ? s.t1 - origin_ns : 0;
    w.BeginObject();
    w.Key("name").Str(s.name).Key("ph").Str("X");
    w.Key("ts").Uint(t0 / 1000).Key("dur").Uint((t1 - t0) / 1000);
    w.Key("pid").Uint(1).Key("tid").Uint(s.tid);
    w.Key("args").BeginObject();
    w.Key("id").Uint(s.id).Key("parent").Uint(s.parent).Key("req").Uint(s.req);
    w.Key("t0").Uint(t0).Key("t1").Uint(t1);
    for (int i = 0; i < s.nargs; ++i) {
      w.Key(s.keys[i]);
      PutNumber(w, s.vals[i]);
    }
    w.EndObject();
    w.EndObject();
  }
  for (const auto& [name, vals] : counters_) {
    w.BeginObject();
    w.Key("name").Str(name).Key("ph").Str("C").Key("ts").Uint(0);
    w.Key("pid").Uint(1).Key("tid").Uint(0);
    w.Key("args").BeginObject();
    for (const auto& [k, v] : vals) {
      w.Key(k);
      PutNumber(w, v);
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  std::fputc('\n', f);
  return std::fclose(f) == 0;
}

TimedDevice::TimedDevice(PageDevice* inner, std::string layer)
    : inner_(inner),
      op_read_(SpanSink::Get().Intern(layer + ":read")),
      op_batch_(SpanSink::Get().Intern(layer + ":read_batch")),
      op_submit_(SpanSink::Get().Intern(layer + ":submit_batch")),
      op_await_(SpanSink::Get().Intern(layer + ":await_batch")),
      op_write_(SpanSink::Get().Intern(layer + ":write")),
      op_sync_(SpanSink::Get().Intern(layer + ":sync")),
      op_pin_(SpanSink::Get().Intern(layer + ":pin")) {}

uint64_t QueryKey(QueryKind kind, const ServeQuery& q) {
  uint64_t h = Mix64(static_cast<uint64_t>(kind) + 1);
  switch (kind) {
    case QueryKind::kTwoSided:
      h = Mix64(h ^ static_cast<uint64_t>(q.two_sided.x_min));
      h = Mix64(h ^ static_cast<uint64_t>(q.two_sided.y_min));
      break;
    case QueryKind::kThreeSided:
      h = Mix64(h ^ static_cast<uint64_t>(q.three_sided.x_min));
      h = Mix64(h ^ static_cast<uint64_t>(q.three_sided.x_max));
      h = Mix64(h ^ static_cast<uint64_t>(q.three_sided.y_min));
      break;
    case QueryKind::kStabbing:
      h = Mix64(h ^ static_cast<uint64_t>(q.stab));
      break;
  }
  return h >> 12;
}

namespace {

QueryDoneCallback WrapDone(const char* name, uint64_t key,
                           QueryDoneCallback done) {
  SpanSink& sink = SpanSink::Get();
  const SpanContext ctx = CurrentContext();
  Span s;
  s.name = name;
  s.id = sink.NextId();
  s.parent = ctx.parent;
  s.req = ctx.req;
  s.tid = ThreadTag();
  s.t0 = NowNs();
  if (key != 0) s.Arg("key", static_cast<double>(key));
  return [s, done = std::move(done)](QueryResult r) mutable {
    s.t1 = NowNs();
    s.Arg("ok", r.status.ok() ? 1 : 0);
    s.Arg("reads", static_cast<double>(r.io.reads));
    s.Arg("records",
          static_cast<double>(r.points.size() + r.intervals.size()));
    s.Arg("engine_us", static_cast<double>(r.latency_micros));
    if (!r.shards.empty()) {
      uint64_t max_us = 0;
      uint64_t sum_us = 0;
      for (const ShardSlice& sl : r.shards) {
        max_us = std::max(max_us, sl.latency_micros);
        sum_us += sl.latency_micros;
      }
      s.Arg("fanout", static_cast<double>(r.shards.size()));
      s.Arg("slice_max_us", static_cast<double>(max_us));
      s.Arg("slice_mean_us",
            static_cast<double>(sum_us) / static_cast<double>(r.shards.size()));
    }
    SpanSink::Get().Push(s);
    done(std::move(r));
  };
}

}  // namespace

Status TimedService::Submit(uint32_t structure_id, const ServeQuery& query,
                            QueryDoneCallback done, uint64_t deadline_micros,
                            uint32_t tenant) {
  if (!SpanSink::Get().on()) {
    return inner_->Submit(structure_id, query, std::move(done),
                          deadline_micros, tenant);
  }
  const QueryKind kind = inner_->structure_kind(structure_id);
  return inner_->Submit(
      structure_id, query,
      WrapDone("serve:request", QueryKey(kind, query), std::move(done)),
      deadline_micros, tenant);
}

Status TimedService::SubmitUpdate(uint32_t structure_id,
                                  std::span<const DynamicUpdate> updates,
                                  QueryDoneCallback done,
                                  uint64_t deadline_micros, uint32_t tenant) {
  if (!SpanSink::Get().on()) {
    return inner_->SubmitUpdate(structure_id, updates, std::move(done),
                                deadline_micros, tenant);
  }
  return inner_->SubmitUpdate(structure_id, updates,
                              WrapDone("serve:update", 0, std::move(done)),
                              deadline_micros, tenant);
}

namespace {

// The steal column of /proc/stat's aggregate "cpu" line; false if absent.
bool ReadSteal(uint64_t* ticks) {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return false;
  unsigned long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return false;
  *ticks = v[7];
  return true;
}

}  // namespace

StealSampler::StealSampler() {
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lk(mu_);
    while (!stop_) {
      uint64_t ticks = 0;
      if (!ReadSteal(&ticks)) return;
      samples_.emplace_back(NowNs() - RunOrigin(), ticks);
      cv_.wait_for(lk, std::chrono::milliseconds(50), [this] { return stop_; });
    }
  });
}

StealSampler::~StealSampler() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

std::vector<std::pair<uint64_t, uint64_t>> StealSampler::Samples() {
  std::lock_guard<std::mutex> lk(mu_);
  return samples_;
}

bool RawResult::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  JsonWriter w(f);
  w.BeginObject();
  w.Key("workload").Str(workload).Key("seed").Uint(seed);
  w.Key("attempted").Uint(attempted).Key("failed").Uint(failed);
  w.Key("wrong").Uint(wrong).Key("first_error").Str(first_error);
  w.Key("meta").BeginObject();
  for (const auto& [k, v] : meta) w.Key(k).Str(v);
  w.EndObject();
  w.Key("counters").BeginObject();
  for (const auto& [k, v] : counters) {
    w.Key(k);
    PutNumber(w, v);
  }
  w.EndObject();
  w.Key("steal").BeginArray();
  for (const auto& [t, ticks] : steal) {
    w.BeginArray().Uint(t).Uint(ticks).EndArray();
  }
  w.EndArray();
  w.Key("setup_ns").BeginArray();
  for (double s : setup_s) w.Uint(static_cast<uint64_t>(s * 1e9));
  w.EndArray();
  w.Key("segments").BeginArray();
  for (const Segment& seg : segments) {
    w.BeginObject();
    w.Key("name").Str(seg.name);
    w.Key("rate");
    PutNumber(w, seg.rate);
    w.Key("start_ns").Uint(seg.start_ns);
    w.Key("seconds").Double(seg.seconds);
    w.Key("unsent").Uint(seg.unsent).Key("records").Uint(seg.records);
    w.Key("queries").Uint(seg.queries).Key("io_reads").Uint(seg.io_reads);
    auto arr = [&](const char* k, const std::vector<uint64_t>& v) {
      w.Key(k).BeginArray();
      for (uint64_t x : v) w.Uint(x);
      w.EndArray();
    };
    arr("query_ns", seg.query_ns);
    arr("query_at_ns", seg.query_at_ns);
    arr("query_records", seg.query_records);
    arr("update_ns", seg.update_ns);
    arr("update_at_ns", seg.update_at_ns);
    arr("lag_ns", seg.lag_ns);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  std::fputc('\n', f);
  return std::fclose(f) == 0;
}

std::string DropOsCache(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return std::string("unsupported: open failed");
  ::fdatasync(fd);
  const int rc = ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  if (rc != 0) {
    ::close(fd);
    return std::string("unsupported: posix_fadvise errno ") +
           std::to_string(rc);
  }
  struct stat st {};
  std::string verdict = "honored";
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    const size_t len = static_cast<size_t>(st.st_size);
    void* map = ::mmap(nullptr, len, PROT_READ, MAP_SHARED, fd, 0);
    if (map == MAP_FAILED) {
      verdict = "unverified: mmap failed";
    } else {
      const long page = ::sysconf(_SC_PAGESIZE);
      const size_t pages = (len + static_cast<size_t>(page) - 1) /
                           static_cast<size_t>(page);
      std::vector<unsigned char> vec(pages);
      if (::mincore(map, len, vec.data()) == 0) {
        size_t resident = 0;
        for (unsigned char c : vec) resident += (c & 1u);
        if (resident * 20 > pages) {
          verdict = "partial: " + std::to_string(resident) + "/" +
                    std::to_string(pages) + " pages still cached";
        }
      } else {
        verdict = "unverified: mincore failed";
      }
      ::munmap(map, len);
    }
  }
  ::close(fd);
  return verdict;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

}  // namespace perfbench
