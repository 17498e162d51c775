// Experiment E2 (Theorem 3.2): 2-sided queries on the basic path-cached PST
// vs the [IKO] no-cache baseline vs the B+-tree x-scan, across n and output
// size t.  Queries are built with controlled t (k-th largest x as the edge)
// so the additive log term is visible.
//
// Expected shape: path-cached I/O ~ log_B n + t/B (flat in n); [IKO] adds
// ~log_2(n/B) underfull reads; the B+-tree scan grows with the
// x-selectivity t_x >> t.  Space: basic ~ (n/B) log B, [IKO] ~ n/B.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>

#include "bench_common.h"
#include "core/baselines.h"
#include "core/pst_external.h"
#include "io/mem_page_device.h"
#include "util/mathutil.h"
#include "workload/generators.h"

namespace pathcache {
namespace {

struct Env {
  std::unique_ptr<MemPageDevice> dev;
  std::unique_ptr<ExternalPst> cached;
  std::unique_ptr<ExternalPst> iko;
  std::unique_ptr<XSortedBaseline> scan;
  std::vector<int64_t> xs_desc;  // for controlled-t queries
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
  auto pts = GenPointsUniform(o);
  env->cached = std::make_unique<ExternalPst>(env->dev.get());
  BenchCheck(env->cached->Build(pts), "build cached");
  ExternalPstOptions iko_opts;
  iko_opts.enable_path_caching = false;
  env->iko = std::make_unique<ExternalPst>(env->dev.get(), iko_opts);
  BenchCheck(env->iko->Build(pts), "build iko");
  env->scan = std::make_unique<XSortedBaseline>(env->dev.get());
  BenchCheck(env->scan->Build(pts), "build scan");
  for (const auto& p : pts) {
    env->xs_desc.push_back(p.x);
    env->ys_desc.push_back(p.y);
  }
  std::sort(env->xs_desc.begin(), env->xs_desc.end(), std::greater<>());
  std::sort(env->ys_desc.begin(), env->ys_desc.end(), std::greater<>());
  Env* raw = env.get();
  cache[n] = std::move(env);
  return raw;
}

// Query with t ~ t_target, built to be Y-SELECTIVE over a wide x-range:
// x >= median x (half the data passes the x test), y >= the 2*t_target-th
// largest y, so t ~ t_target.  This is the regime the paper targets — a
// 1-D index on x must scan ~n/2 records to produce ~t results.
TwoSidedQuery ControlledQuery(const Env& env, uint64_t t_target, Rng* rng) {
  uint64_t k = 2 * t_target + rng->Uniform(std::max<uint64_t>(1, t_target));
  k = std::min<uint64_t>(k, env.ys_desc.size() - 1);
  return TwoSidedQuery{env.xs_desc[env.xs_desc.size() / 2], env.ys_desc[k]};
}

template <typename F>
void RunTwoSided(benchmark::State& state, uint64_t n, uint64_t t_target,
                 F&& query_fn) {
  Env* env = GetEnv(n);
  const uint32_t B = RecordsPerPage<Point>(4096);
  Rng rng(13);
  env->dev->ResetStats();
  uint64_t ops = 0, total_t = 0;
  for (auto _ : state) {
    std::vector<Point> out;
    BenchCheck(query_fn(*env, ControlledQuery(*env, t_target, &rng), &out),
               "query");
    total_t += out.size();
    ++ops;
  }
  RegisterIoCounters(state, env->dev->stats(), ops, "io_per_query");
  state.counters["t_mean"] =
      static_cast<double>(total_t) / static_cast<double>(ops);
  state.counters["bound_logB_n"] = static_cast<double>(CeilLogBase(n, B));
  state.counters["log2_n_over_B"] =
      static_cast<double>(CeilLog2(std::max<uint64_t>(2, n / B)));
}

void BM_PstBasic_Cached(benchmark::State& state) {
  RunTwoSided(state, state.range(0), state.range(1),
              [](Env& e, const TwoSidedQuery& q, std::vector<Point>* out) {
                return e.cached->QueryTwoSided(q, out);
              });
  state.counters["storage_blocks"] =
      static_cast<double>(GetEnv(state.range(0))->cached->storage().total());
}
void BM_PstBasic_IKO(benchmark::State& state) {
  RunTwoSided(state, state.range(0), state.range(1),
              [](Env& e, const TwoSidedQuery& q, std::vector<Point>* out) {
                return e.iko->QueryTwoSided(q, out);
              });
  state.counters["storage_blocks"] =
      static_cast<double>(GetEnv(state.range(0))->iko->storage().total());
}
void BM_PstBasic_BtreeScan(benchmark::State& state) {
  RunTwoSided(state, state.range(0), state.range(1),
              [](Env& e, const TwoSidedQuery& q, std::vector<Point>* out) {
                return e.scan->QueryTwoSided(q, out);
              });
}

static void Args(benchmark::internal::Benchmark* b) {
  for (int64_t n : {20'000, 100'000, 500'000}) {
    for (int64_t t : {64, 1024, 16'384}) b->Args({n, t});
  }
}
BENCHMARK(BM_PstBasic_Cached)->Apply(Args)->Iterations(kCountedIterations);
BENCHMARK(BM_PstBasic_IKO)->Apply(Args)->Iterations(kCountedIterations);
BENCHMARK(BM_PstBasic_BtreeScan)->Apply(Args)->Iterations(kCountedIterations);

// DEEP-CORNER queries: x >= (t-th largest x) with a LOW y edge, so the
// corner descent runs the full tree depth while t stays small.  This is the
// regime exposing [IKO]'s additive log_2(n/B): every path node and sibling
// costs an underfull read, while the cached version reads O(log_B n)
// coalesced caches.
TwoSidedQuery DeepCornerQuery(const Env& env, uint64_t t_target, Rng* rng) {
  uint64_t k = t_target + rng->Uniform(std::max<uint64_t>(1, t_target / 4));
  k = std::min<uint64_t>(k, env.xs_desc.size() - 1);
  return TwoSidedQuery{env.xs_desc[k],
                       env.ys_desc[env.ys_desc.size() * 19 / 20]};
}

template <typename F>
void RunDeep(benchmark::State& state, F&& query_fn) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  const uint64_t t_target = static_cast<uint64_t>(state.range(1));
  Env* env = GetEnv(n);
  const uint32_t B = RecordsPerPage<Point>(4096);
  Rng rng(29);
  env->dev->ResetStats();
  uint64_t ops = 0, total_t = 0;
  for (auto _ : state) {
    std::vector<Point> out;
    BenchCheck(query_fn(*env, DeepCornerQuery(*env, t_target, &rng), &out),
               "query");
    total_t += out.size();
    ++ops;
  }
  RegisterIoCounters(state, env->dev->stats(), ops, "io_per_query");
  state.counters["t_mean"] =
      static_cast<double>(total_t) / static_cast<double>(ops);
  state.counters["bound_logB_n"] = static_cast<double>(CeilLogBase(n, B));
  state.counters["log2_n_over_B"] =
      static_cast<double>(CeilLog2(std::max<uint64_t>(2, n / B)));
}

void BM_PstBasic_Cached_DeepCorner(benchmark::State& state) {
  RunDeep(state, [](Env& e, const TwoSidedQuery& q, std::vector<Point>* out) {
    return e.cached->QueryTwoSided(q, out);
  });
}
void BM_PstBasic_IKO_DeepCorner(benchmark::State& state) {
  RunDeep(state, [](Env& e, const TwoSidedQuery& q, std::vector<Point>* out) {
    return e.iko->QueryTwoSided(q, out);
  });
}
static void DeepArgs(benchmark::internal::Benchmark* b) {
  for (int64_t n : {20'000, 100'000, 500'000}) {
    for (int64_t t : {64, 512}) b->Args({n, t});
  }
}
BENCHMARK(BM_PstBasic_Cached_DeepCorner)->Apply(DeepArgs)
    ->Iterations(kCountedIterations);
BENCHMARK(BM_PstBasic_IKO_DeepCorner)->Apply(DeepArgs)
    ->Iterations(kCountedIterations);

}  // namespace
}  // namespace pathcache

BENCHMARK_MAIN();
