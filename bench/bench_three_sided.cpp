// Experiment E5 (Theorem 3.3): 3-sided queries — path-cached vs the
// uncached PST walk vs the B+-tree x-range scan-and-filter.
//
// Expected shape: path-cached I/O ~ log_B n + t/B; the uncached walk pays
// ~2 log_2(n/B) extra; the B+-tree scan pays (x-range selectivity)/B, which
// explodes for wide, y-selective queries.  Space tracks (n/B) log^2 B for
// the cached version (the anchored sibling caches) vs n/B uncached.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>

#include "bench_common.h"
#include "core/baselines.h"
#include "core/three_sided.h"
#include "io/mem_page_device.h"
#include "util/mathutil.h"
#include "workload/generators.h"

namespace pathcache {
namespace {

struct Env {
  std::unique_ptr<MemPageDevice> dev;
  std::unique_ptr<ThreeSidedPst> cached;
  std::unique_ptr<ThreeSidedPst> uncached;
  std::unique_ptr<XSortedBaseline> scan;
  std::vector<Point> pts;
  std::vector<int64_t> ys_desc;
};

Env* GetEnv(uint64_t n) {
  static std::map<uint64_t, std::unique_ptr<Env>> cache;
  auto it = cache.find(n);
  if (it != cache.end()) return it->second.get();
  auto env = std::make_unique<Env>();
  env->dev = std::make_unique<MemPageDevice>(4096);
  PointGenOptions o;
  o.n = n;
  o.seed = 42;
  env->pts = GenPointsUniform(o);
  env->cached = std::make_unique<ThreeSidedPst>(env->dev.get());
  BenchCheck(env->cached->Build(env->pts), "build cached");
  ThreeSidedPstOptions un;
  un.enable_path_caching = false;
  env->uncached = std::make_unique<ThreeSidedPst>(env->dev.get(), un);
  BenchCheck(env->uncached->Build(env->pts), "build uncached");
  env->scan = std::make_unique<XSortedBaseline>(env->dev.get());
  BenchCheck(env->scan->Build(env->pts), "build scan");
  for (const auto& p : env->pts) env->ys_desc.push_back(p.y);
  std::sort(env->ys_desc.begin(), env->ys_desc.end(), std::greater<>());
  Env* raw = env.get();
  cache[n] = std::move(env);
  return raw;
}

// x-band width in permille of the domain; y edge at the given rank (a high
// rank = low y edge = DEEP corner paths, the regime where the uncached
// walk pays its log_2 n and caches earn their keep).
ThreeSidedQuery MakeQuery(const Env& env, int64_t x_permille,
                          uint64_t y_rank, Rng* rng) {
  int64_t width = 1'000'000'000 / 1000 * x_permille;
  int64_t x1 = rng->UniformRange(0, 1'000'000'000 - width);
  return ThreeSidedQuery{x1, x1 + width, env.ys_desc[y_rank]};
}

template <typename F>
void Run(benchmark::State& state, F&& query_fn) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  const int64_t x_permille = state.range(1);
  const uint64_t y_rank =
      std::min<uint64_t>(n - 1, n * static_cast<uint64_t>(state.range(2)) /
                                    100);
  Env* env = GetEnv(n);
  const uint32_t B = RecordsPerPage<Point>(4096);
  Rng rng(23);
  env->dev->ResetStats();
  uint64_t ops = 0, total_t = 0;
  for (auto _ : state) {
    auto q = MakeQuery(*env, x_permille, y_rank, &rng);
    std::vector<Point> out;
    BenchCheck(query_fn(*env, q, &out), "query");
    total_t += out.size();
    ++ops;
  }
  RegisterIoCounters(state, env->dev->stats(), ops, "io_per_query");
  state.counters["t_mean"] =
      static_cast<double>(total_t) / static_cast<double>(ops);
  state.counters["bound_logB_n"] = static_cast<double>(CeilLogBase(n, B));
}

void BM_ThreeSided_Cached(benchmark::State& state) {
  Run(state, [](Env& e, const ThreeSidedQuery& q, std::vector<Point>* out) {
    return e.cached->QueryThreeSided(q, out);
  });
  state.counters["storage_blocks"] =
      static_cast<double>(GetEnv(state.range(0))->cached->storage().total());
}
void BM_ThreeSided_Uncached(benchmark::State& state) {
  Run(state, [](Env& e, const ThreeSidedQuery& q, std::vector<Point>* out) {
    return e.uncached->QueryThreeSided(q, out);
  });
  state.counters["storage_blocks"] = static_cast<double>(
      GetEnv(state.range(0))->uncached->storage().total());
}
void BM_ThreeSided_BtreeScan(benchmark::State& state) {
  Run(state, [](Env& e, const ThreeSidedQuery& q, std::vector<Point>* out) {
    return e.scan->QueryThreeSided(q, out);
  });
}

static void Args(benchmark::internal::Benchmark* b) {
  // (n, x-band width in permille, y-edge rank as % of n).
  for (int64_t n : {50'000, 300'000}) {
    b->Args({n, 2, 90});    // narrow band, deep corners: the log_2 n regime
    b->Args({n, 20, 50});   // moderate band and depth
    b->Args({n, 200, 2});   // wide band, y-selective, descendant-dominated
  }
}
BENCHMARK(BM_ThreeSided_Cached)->Apply(Args)->Iterations(kCountedIterations);
BENCHMARK(BM_ThreeSided_Uncached)->Apply(Args)->Iterations(kCountedIterations);
BENCHMARK(BM_ThreeSided_BtreeScan)->Apply(Args)->Iterations(kCountedIterations);

}  // namespace
}  // namespace pathcache

BENCHMARK_MAIN();
