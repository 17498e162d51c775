// Experiment E8 (Figure 1): the four query shapes of the paper, each
// answered by the structure specialized for it — diagonal-corner queries
// via the [KRV] stabbing reduction, 2-sided via the two-level PST, 3-sided
// via the 3-sided PST, and general 2-D composed from a 3-sided query plus
// an in-memory filter (the paper leaves optimal general 4-sided external
// search open; the composition is output-sensitive only in the open side).

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "bench_common.h"
#include "core/pathcache.h"
#include "util/mathutil.h"
#include "workload/generators.h"

namespace pathcache {
namespace {

struct Env {
  std::unique_ptr<MemPageDevice> dev;
  std::unique_ptr<TwoLevelPst> two;
  std::unique_ptr<ThreeSidedPst> three;
  std::unique_ptr<DynamicStabbingIndex> stab;
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
  env->two = std::make_unique<TwoLevelPst>(env->dev.get());
  BenchCheck(env->two->Build(pts), "build 2-sided");
  env->three = std::make_unique<ThreeSidedPst>(env->dev.get());
  BenchCheck(env->three->Build(pts), "build 3-sided");
  IntervalGenOptions io;
  io.n = n;
  io.seed = 43;
  io.domain_max = 1'000'000'000;
  io.mean_len_frac = 0.002;
  env->stab = std::make_unique<DynamicStabbingIndex>(env->dev.get());
  BenchCheck(env->stab->Build(GenIntervalsUniform(io)), "build stabbing");
  Env* raw = env.get();
  cache[n] = std::move(env);
  return raw;
}

void BM_Shape_DiagonalCorner(benchmark::State& state) {
  Env* env = GetEnv(state.range(0));
  Rng rng(3);
  env->dev->ResetStats();
  uint64_t ops = 0, total_t = 0;
  for (auto _ : state) {
    // Stabbing IS the diagonal-corner query after the [KRV] reduction.
    std::vector<Interval> out;
    BenchCheck(env->stab->Stab(rng.UniformRange(0, 1'000'000'000), &out),
               "stab");
    total_t += out.size();
    ++ops;
  }
  RegisterIoCounters(state, env->dev->stats(), ops, "io_per_query");
  state.counters["t_mean"] =
      static_cast<double>(total_t) / static_cast<double>(ops);
}
BENCHMARK(BM_Shape_DiagonalCorner)->Arg(200'000)
    ->Iterations(kCountedIterations);

void BM_Shape_TwoSided(benchmark::State& state) {
  Env* env = GetEnv(state.range(0));
  Rng rng(5);
  env->dev->ResetStats();
  uint64_t ops = 0, total_t = 0;
  for (auto _ : state) {
    TwoSidedQuery q{rng.UniformRange(800'000'000, 1'000'000'000),
                    rng.UniformRange(800'000'000, 1'000'000'000)};
    std::vector<Point> out;
    BenchCheck(env->two->QueryTwoSided(q, &out), "query");
    total_t += out.size();
    ++ops;
  }
  RegisterIoCounters(state, env->dev->stats(), ops, "io_per_query");
  state.counters["t_mean"] =
      static_cast<double>(total_t) / static_cast<double>(ops);
}
BENCHMARK(BM_Shape_TwoSided)->Arg(200'000)->Iterations(kCountedIterations);

void BM_Shape_ThreeSided(benchmark::State& state) {
  Env* env = GetEnv(state.range(0));
  Rng rng(7);
  env->dev->ResetStats();
  uint64_t ops = 0, total_t = 0;
  for (auto _ : state) {
    int64_t x1 = rng.UniformRange(0, 900'000'000);
    ThreeSidedQuery q{x1, x1 + 100'000'000,
                      rng.UniformRange(900'000'000, 1'000'000'000)};
    std::vector<Point> out;
    BenchCheck(env->three->QueryThreeSided(q, &out), "query");
    total_t += out.size();
    ++ops;
  }
  RegisterIoCounters(state, env->dev->stats(), ops, "io_per_query");
  state.counters["t_mean"] =
      static_cast<double>(total_t) / static_cast<double>(ops);
}
BENCHMARK(BM_Shape_ThreeSided)->Arg(200'000)->Iterations(kCountedIterations);

void BM_Shape_General2D(benchmark::State& state) {
  Env* env = GetEnv(state.range(0));
  Rng rng(9);
  env->dev->ResetStats();
  uint64_t ops = 0, total_t = 0;
  for (auto _ : state) {
    int64_t x1 = rng.UniformRange(0, 900'000'000);
    int64_t y1 = rng.UniformRange(700'000'000, 950'000'000);
    RangeQuery q{x1, x1 + 100'000'000, y1, y1 + 50'000'000};
    std::vector<Point> tmp, out;
    BenchCheck(env->three->QueryThreeSided(
                   ThreeSidedQuery{q.x_min, q.x_max, q.y_min}, &tmp),
               "query");
    for (const auto& p : tmp) {
      if (p.y <= q.y_max) out.push_back(p);
    }
    total_t += out.size();
    ++ops;
  }
  RegisterIoCounters(state, env->dev->stats(), ops, "io_per_query");
  state.counters["t_mean"] =
      static_cast<double>(total_t) / static_cast<double>(ops);
}
BENCHMARK(BM_Shape_General2D)->Arg(200'000)->Iterations(kCountedIterations);

}  // namespace
}  // namespace pathcache

BENCHMARK_MAIN();
