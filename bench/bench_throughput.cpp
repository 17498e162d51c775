// Concurrent query throughput over a file-backed store — the wall-clock
// side of the batching + lock-striped-pool + disk-layout work.
//
// Everything else in bench/ measures COUNTED I/Os on a MemPageDevice (the
// paper's cost model, deterministic and machine-independent).  This harness
// instead measures the transport layer under that unchanged cost model,
// with an ExternalPst + ThreeSidedPst built over a FilePageDevice behind a
// SharedBufferPool:
//
//   * Cold ablation (E15): {readahead off/on} x {clustered off/on}, each
//     cell a single-threaded cold-cache pass.  Clustering (io/layout.h)
//     relocates each structure's pages so chains and skeletal levels are
//     disk-contiguous; the preadv coalescing in ReadBatch then folds more
//     counted reads into each syscall, raising syscalls_saved.  Counted
//     file reads are asserted IDENTICAL down each column — layout is
//     invisible to the paper's cost model.
//   * Warm sweeps: QPS per thread count (1, 2, 4, 8) on the clustered
//     store — lock-striping scalability, pool hit rate.
//
// `--json out.json` dumps every number machine-readably (CI uploads it);
// `--points N` / `--queries N` shrink the fixture for smoke runs.
//
// Not a google-benchmark binary: config sweeps over one shared fixture are
// clearer as a plain main(), and keeping wall-clock timing out of the
// counted-I/O suite keeps EXPERIMENTS.md's tables machine-independent.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/persist.h"
#include "core/pst_external.h"
#include "core/three_sided.h"
#include "io/checksum_page_device.h"
#include "io/file_page_device.h"
#include "io/shared_buffer_pool.h"
#include "kernels/dispatch.h"
#include "workload/generators.h"

namespace pathcache {
namespace {

constexpr uint32_t kShards = 16;
const uint32_t kThreadCounts[] = {1, 2, 4, 8};

struct Options {
  uint64_t points = 200'000;
  uint64_t queries = 1'000;  // per thread, and per cold pass
  bool checksums = false;    // also measure the CRC32C trailer's warm cost
  std::string json_path;
};

Options ParseArgs(int argc, char** argv) {
  Options o;
  auto value_of = [&](int* i, const char* flag) -> const char* {
    const size_t len = std::strlen(flag);
    if (std::strncmp(argv[*i], flag, len) != 0) return nullptr;
    if (argv[*i][len] == '=') return argv[*i] + len + 1;
    if (argv[*i][len] == '\0' && *i + 1 < argc) return argv[++*i];
    return nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    if (const char* pv = value_of(&i, "--points")) {
      o.points = std::strtoull(pv, nullptr, 10);
    } else if (const char* qv = value_of(&i, "--queries")) {
      o.queries = std::strtoull(qv, nullptr, 10);
    } else if (const char* jv = value_of(&i, "--json")) {
      o.json_path = jv;
    } else if (std::strcmp(argv[i], "--checksums") == 0) {
      o.checksums = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--points N] [--queries N] [--checksums] "
                   "[--json out.json]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  return o;
}

struct QuerySet {
  std::vector<TwoSidedQuery> two;
  std::vector<ThreeSidedQuery> three;
};

QuerySet MakeQueries(uint64_t count, uint32_t seed) {
  QuerySet qs;
  Rng rng(seed);
  qs.two.reserve(count);
  qs.three.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    qs.two.push_back(TwoSidedQuery{
        rng.UniformRange(500'000'000, 1'000'000'000),
        rng.UniformRange(800'000'000, 1'000'000'000)});
    const int64_t x1 = rng.UniformRange(0, 900'000'000);
    qs.three.push_back(ThreeSidedQuery{
        x1, x1 + 100'000'000, rng.UniformRange(800'000'000, 1'000'000'000)});
  }
  return qs;
}

// One built store: both structures over one FilePageDevice behind one pool.
// Building THROUGH the pool (write-through) lets the same handles serve
// pooled queries later.
struct Store {
  std::unique_ptr<FilePageDevice> dev;
  std::unique_ptr<ChecksumPageDevice> sum;  // set only with --checksums
  std::unique_ptr<SharedBufferPool> pool;
  std::unique_ptr<ExternalPst> pst;
  std::unique_ptr<ThreeSidedPst> pst3;
  PageId pst_manifest = kInvalidPageId;
  PageId pst3_manifest = kInvalidPageId;
};

Store BuildStore(const std::string& path, const std::vector<Point>& points,
                 bool clustered, bool checksums = false) {
  Store s;
  s.dev = BenchValue(FilePageDevice::Create(path), "create device");
  PageDevice* base = s.dev.get();
  if (checksums) {
    // File -> Checksum -> pool: every page entering the pool is CRC-verified
    // once; warm hits pay nothing extra (see README stacking order).
    s.sum = std::make_unique<ChecksumPageDevice>(base);
    base = s.sum.get();
  }
  // Capacity covers the whole store: warm passes measure lock-striping
  // scalability, not eviction.
  s.pool = std::make_unique<SharedBufferPool>(base,
                                              /*capacity_pages=*/1 << 20,
                                              kShards);
  // Age the allocator the way long-lived stores age: build and destroy a
  // sacrificial pair of structures first.  The real build below then draws
  // every page from the LIFO free list in reverse order, so its chains come
  // out id-descending — zero contig runs, the preadv coalescing can fold
  // nothing.  A freshly created file would be accidentally near-optimal and
  // leave the clustering pass nothing to show.
  {
    ExternalPst tmp(s.pool.get());
    BenchCheck(tmp.Build(points), "age build 2-sided");
    ThreeSidedPst tmp3(s.pool.get());
    BenchCheck(tmp3.Build(points), "age build 3-sided");
    BenchCheck(tmp.Destroy(), "age destroy 2-sided");
    BenchCheck(tmp3.Destroy(), "age destroy 3-sided");
    s.pool->ClearAndResetStats();
  }
  s.pst = std::make_unique<ExternalPst>(s.pool.get());
  BenchCheck(s.pst->Build(points), "build 2-sided");
  s.pst3 = std::make_unique<ThreeSidedPst>(s.pool.get());
  BenchCheck(s.pst3->Build(points), "build 3-sided");
  if (clustered) {
    BenchCheck(s.pst->Cluster(), "cluster 2-sided");
    BenchCheck(s.pst3->Cluster(), "cluster 3-sided");
  }
  // Save manifests so the readahead-off cold passes can reopen the same
  // structures under different query options.
  s.pst_manifest = BenchValue(s.pst->Save(), "save 2-sided");
  s.pst3_manifest = BenchValue(s.pst3->Save(), "save 3-sided");
  return s;
}

struct ColdCell {
  bool clustered = false;
  bool readahead = false;
  uint64_t file_reads = 0;
  uint64_t read_syscalls = 0;
  uint64_t sorted_batches = 0;
  double syscalls_saved_pct = 0.0;
  double hit_rate = 0.0;
};

// Single-threaded cold-cache pass over `queries` 2-sided + 3-sided lookups,
// reopening the saved structures with `readahead` on or off.
ColdCell RunColdPass(Store& s, const QuerySet& qs, bool clustered,
                     bool readahead) {
  ExternalPstOptions o2;
  o2.enable_readahead = readahead;
  ExternalPst pst(s.pool.get(), o2);
  BenchCheck(pst.Open(s.pst_manifest), "open 2-sided");
  ThreeSidedPstOptions o3;
  o3.enable_readahead = readahead;
  ThreeSidedPst pst3(s.pool.get(), o3);
  BenchCheck(pst3.Open(s.pst3_manifest), "open 3-sided");

  s.pool->ClearAndResetStats();
  s.dev->ResetStats();
  std::vector<Point> out;
  for (uint64_t i = 0; i < qs.two.size(); ++i) {
    out.clear();
    BenchCheck(pst.QueryTwoSided(qs.two[i], &out), "cold 2-sided query");
    out.clear();
    BenchCheck(pst3.QueryThreeSided(qs.three[i], &out), "cold 3-sided query");
  }

  ColdCell c;
  c.clustered = clustered;
  c.readahead = readahead;
  c.file_reads = s.dev->stats().reads;
  c.read_syscalls = s.dev->read_syscalls();
  c.sorted_batches = s.dev->sorted_batches();
  c.syscalls_saved_pct =
      c.file_reads == 0
          ? 0.0
          : 100.0 * static_cast<double>(c.file_reads - c.read_syscalls) /
                static_cast<double>(c.file_reads);
  const uint64_t logical = s.pool->hits() + s.pool->misses();
  c.hit_rate = logical == 0 ? 0.0
                            : static_cast<double>(s.pool->hits()) /
                                  static_cast<double>(logical);
  return c;
}

struct WarmRow {
  uint32_t threads = 0;
  double qps = 0.0;
  double speedup = 0.0;
  double hit_rate = 0.0;
  uint64_t file_reads = 0;
};

// Runs `nthreads` workers concurrently (each gets its thread ordinal) and
// returns aggregate queries/second.  Workers park on an atomic start flag so
// thread spawn cost stays outside the timed region.
template <typename WorkFn>
double RunThreads(uint32_t nthreads, uint64_t queries_per_thread,
                  const WorkFn& work) {
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(nthreads);
  for (uint32_t t = 0; t < nthreads; ++t) {
    workers.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      work(t);
    });
  }
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return static_cast<double>(nthreads) * queries_per_thread / secs;
}

struct KernelAblation {
  const char* tier = "scalar";     // the tier "kernels on" dispatches to
  uint64_t cold_reads_scalar = 0;  // counted reads, kernels forced scalar
  uint64_t cold_reads_kernels = 0; // counted reads, full dispatch tier
  double qps_scalar = 0.0;         // warm 1-thread best-of-5, scalar forced
  double qps_kernels = 0.0;        // warm 1-thread best-of-5, kernels on
  double speedup = 0.0;
};

struct ChecksumResult {
  bool enabled = false;
  double qps_plain = 0.0;       // contemporaneous 1-thread warm baseline
  double qps_checksummed = 0.0; // same pass through File -> Checksum -> pool
  double overhead_pct = 0.0;    // target: < 3% (E16)
  uint64_t pages_verified = 0;
};

void WriteJson(const Options& opt, const std::vector<ColdCell>& cold,
               const std::vector<WarmRow>& warm, const KernelAblation& ka,
               const ChecksumResult& sum) {
  std::FILE* f = std::fopen(opt.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FATAL cannot open %s for writing\n",
                 opt.json_path.c_str());
    std::abort();
  }
  JsonWriter w(f);
  w.BeginObject();
  w.Key("bench").Str("bench_throughput");
  w.Key("points").Uint(opt.points);
  w.Key("queries_per_thread").Uint(opt.queries);
  w.Key("cold_ablation").BeginArray();
  for (const ColdCell& c : cold) {
    w.BeginObject();
    w.Key("clustered").Bool(c.clustered);
    w.Key("readahead").Bool(c.readahead);
    w.Key("file_reads").Uint(c.file_reads);
    w.Key("read_syscalls").Uint(c.read_syscalls);
    w.Key("sorted_batches").Uint(c.sorted_batches);
    w.Key("syscalls_saved_pct").Double(c.syscalls_saved_pct);
    w.Key("hit_rate").Double(c.hit_rate);
    w.EndObject();
  }
  w.EndArray();
  w.Key("warm_sweep").BeginArray();
  for (const WarmRow& r : warm) {
    w.BeginObject();
    w.Key("threads").Uint(r.threads);
    w.Key("qps").Double(r.qps);
    w.Key("speedup").Double(r.speedup);
    w.Key("hit_rate").Double(r.hit_rate);
    w.Key("file_reads").Uint(r.file_reads);
    w.EndObject();
  }
  w.EndArray();
  w.Key("kernel_ablation").BeginObject();
  w.Key("tier").Str(ka.tier);
  w.Key("cold_file_reads_scalar").Uint(ka.cold_reads_scalar);
  w.Key("cold_file_reads_kernels").Uint(ka.cold_reads_kernels);
  w.Key("warm_qps_scalar").Double(ka.qps_scalar);
  w.Key("warm_qps_kernels").Double(ka.qps_kernels);
  w.Key("kernel_speedup").Double(ka.speedup);
  w.EndObject();
  if (sum.enabled) {
    w.Key("checksum_overhead").BeginObject();
    w.Key("qps_plain").Double(sum.qps_plain);
    w.Key("qps_checksummed").Double(sum.qps_checksummed);
    w.Key("checksum_overhead_pct").Double(sum.overhead_pct);
    w.Key("pages_verified").Uint(sum.pages_verified);
    w.EndObject();
  }
  w.EndObject();
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("wrote %s\n", opt.json_path.c_str());
}

int Main(int argc, char** argv) {
  const Options opt = ParseArgs(argc, argv);

  PointGenOptions po;
  po.n = opt.points;
  po.seed = 42;
  const auto points = GenPointsUniform(po);
  const QuerySet cold_qs = MakeQueries(opt.queries, 7);

  // ---- Cold 2x2 ablation: readahead x clustering.  One build per layout;
  // the readahead toggle reopens the saved structures. ----
  std::vector<ColdCell> cold;
  Store clustered_store;
  for (bool clustered : {false, true}) {
    const std::string path = std::string("/tmp/pathcache_bench_throughput") +
                             (clustered ? ".clustered.bin" : ".plain.bin");
    Store s = BuildStore(path, points, clustered);
    for (bool readahead : {false, true}) {
      cold.push_back(RunColdPass(s, cold_qs, clustered, readahead));
      const ColdCell& c = cold.back();
      std::printf(
          "cold clustered=%d readahead=%d: file reads=%llu  "
          "read syscalls=%llu  syscalls_saved=%.1f%%  hit_rate=%.4f\n",
          c.clustered ? 1 : 0, c.readahead ? 1 : 0,
          static_cast<unsigned long long>(c.file_reads),
          static_cast<unsigned long long>(c.read_syscalls),
          c.syscalls_saved_pct, c.hit_rate);
    }
    if (clustered) clustered_store = std::move(s);
  }

  // Layout is invisible to the paper's cost model: each readahead column
  // must show identical counted file reads with and without clustering.
  for (size_t i = 0; i < 2; ++i) {
    if (cold[i].file_reads != cold[i + 2].file_reads) {
      std::fprintf(stderr,
                   "FATAL counted reads differ with clustering: "
                   "readahead=%d %llu vs %llu\n",
                   cold[i].readahead ? 1 : 0,
                   static_cast<unsigned long long>(cold[i].file_reads),
                   static_cast<unsigned long long>(cold[i + 2].file_reads));
      std::abort();
    }
  }
  std::printf("counted file reads identical across layouts (asserted)\n\n");

  // ---- Warm sweeps on the clustered store: pool already holds every page
  // the queries touch.  Query streams are pre-generated per thread ordinal
  // so the timed region holds only query execution. ----
  Store& s = clustered_store;
  uint32_t max_threads = 1;
  for (uint32_t n : kThreadCounts) max_threads = std::max(max_threads, n);
  std::vector<QuerySet> streams;
  streams.reserve(max_threads);
  for (uint32_t t = 0; t < max_threads; ++t) {
    streams.push_back(MakeQueries(opt.queries, 100 + t));
  }

  std::printf("hardware threads available: %u\n",
              std::thread::hardware_concurrency());
  std::vector<WarmRow> warm;
  double qps1 = 0.0;
  for (uint32_t nthreads : kThreadCounts) {
    s.pool->ResetStats();
    s.dev->ResetStats();
    const double qps = RunThreads(nthreads, 2 * opt.queries, [&](uint32_t t) {
      const QuerySet& qs = streams[t];
      std::vector<Point> out;
      for (uint64_t i = 0; i < qs.two.size(); ++i) {
        out.clear();
        BenchCheck(s.pst->QueryTwoSided(qs.two[i], &out), "2-sided query");
        out.clear();
        BenchCheck(s.pst3->QueryThreeSided(qs.three[i], &out),
                   "3-sided query");
      }
    });
    if (nthreads == 1) qps1 = qps;
    const uint64_t hits = s.pool->hits();
    const uint64_t misses = s.pool->misses();
    WarmRow row;
    row.threads = nthreads;
    row.qps = qps;
    row.speedup = qps1 == 0.0 ? 0.0 : qps / qps1;
    row.hit_rate = hits + misses == 0
                       ? 0.0
                       : static_cast<double>(hits) /
                             static_cast<double>(hits + misses);
    row.file_reads = s.dev->stats().reads;
    warm.push_back(row);
    std::printf(
        "warm threads=%u  qps=%9.0f  speedup=%.2fx  hit_rate=%.4f  "
        "file reads=%llu\n",
        row.threads, row.qps, row.speedup, row.hit_rate,
        static_cast<unsigned long long>(row.file_reads));
  }
  std::printf(
      "\n(each \"query\" above is one 2-sided plus one 3-sided lookup; "
      "speedup beyond 1 thread requires as many hardware threads)\n");

  // ---- Kernel ablation (E19): the same pass with the SIMD kernels forced
  // to the scalar tier vs the full dispatch tier.  Two claims: (1) kernels
  // change NO counted I/O — a cold pass per tier must read the identical
  // number of pages (the first-match family returns the same scan prefix on
  // every tier, see kernels/search.h) — and (2) warm QPS improves, since a
  // warm pass is all in-page work.  Warm timing is alternating best-of-5
  // for the same reason as the checksum comparison below. ----
  KernelAblation ka;
  ka.tier = kernels::TierName(kernels::DetectedTier());
  auto warm_pass = [&](uint32_t t) {
    const QuerySet& qs = streams[t];
    std::vector<Point> out;
    for (uint64_t i = 0; i < qs.two.size(); ++i) {
      out.clear();
      BenchCheck(s.pst->QueryTwoSided(qs.two[i], &out), "e19 2-sided");
      out.clear();
      BenchCheck(s.pst3->QueryThreeSided(qs.three[i], &out), "e19 3-sided");
    }
  };
  kernels::ForceTier(kernels::Tier::kScalar);
  s.pool->ClearAndResetStats();
  s.dev->ResetStats();
  warm_pass(0);
  ka.cold_reads_scalar = s.dev->stats().reads;
  kernels::ResetTier();
  s.pool->ClearAndResetStats();
  s.dev->ResetStats();
  warm_pass(0);
  ka.cold_reads_kernels = s.dev->stats().reads;
  if (ka.cold_reads_scalar != ka.cold_reads_kernels) {
    std::fprintf(stderr,
                 "FATAL counted reads differ across kernel tiers: "
                 "scalar=%llu %s=%llu\n",
                 static_cast<unsigned long long>(ka.cold_reads_scalar),
                 ka.tier,
                 static_cast<unsigned long long>(ka.cold_reads_kernels));
    std::abort();
  }
  for (int round = 0; round < 5; ++round) {
    kernels::ForceTier(kernels::Tier::kScalar);
    ka.qps_scalar = std::max(
        ka.qps_scalar,
        RunThreads(1, 2 * opt.queries, [&](uint32_t) { warm_pass(0); }));
    kernels::ResetTier();
    ka.qps_kernels = std::max(
        ka.qps_kernels,
        RunThreads(1, 2 * opt.queries, [&](uint32_t) { warm_pass(0); }));
  }
  ka.speedup = ka.qps_scalar == 0.0 ? 0.0 : ka.qps_kernels / ka.qps_scalar;
  std::printf(
      "\nkernels (E19): tier=%s  counted reads identical (asserted, "
      "%llu)  warm qps scalar=%9.0f  kernels=%9.0f  speedup=%.3fx\n",
      ka.tier, static_cast<unsigned long long>(ka.cold_reads_kernels),
      ka.qps_scalar, ka.qps_kernels, ka.speedup);

  // ---- Checksum overhead (E16): the same warm single-threaded pass on a
  // clustered store read through File -> Checksum -> pool.  Every page is
  // CRC-verified exactly once on its way into the pool; warm hits bypass the
  // trailer entirely, so the steady-state overhead should stay under 3%. ----
  ChecksumResult sumres;
  if (opt.checksums) {
    Store cs = BuildStore("/tmp/pathcache_bench_throughput.sum.bin", points,
                          /*clustered=*/true, /*checksums=*/true);
    auto run_once = [&](Store& st) {
      const QuerySet& qs = streams[0];
      std::vector<Point> out;
      for (uint64_t i = 0; i < qs.two.size(); ++i) {
        out.clear();
        BenchCheck(st.pst->QueryTwoSided(qs.two[i], &out), "sum 2-sided");
        out.clear();
        BenchCheck(st.pst3->QueryThreeSided(qs.three[i], &out), "sum 3-sided");
      }
    };
    cs.pool->ClearAndResetStats();  // drop build-time frames
    run_once(cs);  // fill the pool: verification cost paid here, once
    sumres.enabled = true;
    // Alternating best-of-5: the true warm delta (hits never reach the
    // trailer) is far below scheduler noise on a shared machine, so a
    // single pass per stack can report either sign.  Best-of filters the
    // noise floor; alternation keeps thermal drift from biasing one side.
    for (int round = 0; round < 5; ++round) {
      sumres.qps_checksummed = std::max(
          sumres.qps_checksummed,
          RunThreads(1, 2 * opt.queries, [&](uint32_t) { run_once(cs); }));
      sumres.qps_plain = std::max(
          sumres.qps_plain,
          RunThreads(1, 2 * opt.queries, [&](uint32_t) { run_once(s); }));
    }
    sumres.overhead_pct =
        sumres.qps_plain == 0.0
            ? 0.0
            : 100.0 * (sumres.qps_plain - sumres.qps_checksummed) /
                  sumres.qps_plain;
    sumres.pages_verified = cs.sum->pages_verified();
    std::printf(
        "\nchecksums: warm qps plain=%9.0f  checksummed=%9.0f  "
        "overhead=%.2f%%  pages_verified=%llu  (target < 3%%)\n",
        sumres.qps_plain, sumres.qps_checksummed, sumres.overhead_pct,
        static_cast<unsigned long long>(sumres.pages_verified));
  }

  if (!opt.json_path.empty()) WriteJson(opt, cold, warm, ka, sumres);
  return 0;
}

}  // namespace
}  // namespace pathcache

int main(int argc, char** argv) { return pathcache::Main(argc, argv); }
