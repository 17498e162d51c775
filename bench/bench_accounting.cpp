// Experiment E10 (Figure 4 / Section 3 accounting): per-query breakdown of
// block reads by structural role — navigation / caches / corner / ancestor /
// sibling / descendant — and the useful-vs-wasteful classification that the
// paper's charging argument is built on ("every wasteful I/O is paid for by
// a useful one": wasteful <= 2*useful + O(log_B n)).

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "bench_common.h"
#include "core/pst_two_level.h"
#include "io/mem_page_device.h"
#include "util/mathutil.h"
#include "workload/generators.h"

namespace pathcache {
namespace {

struct Env {
  std::unique_ptr<MemPageDevice> dev;
  std::unique_ptr<TwoLevelPst> pst;
  std::vector<Point> pts;
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
  env->pst = std::make_unique<TwoLevelPst>(env->dev.get());
  BenchCheck(env->pst->Build(env->pts), "build");
  Env* raw = env.get();
  cache[n] = std::move(env);
  return raw;
}

void BM_Accounting_Breakdown(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  const int64_t corner_pct = state.range(1);  // query corner position
  Env* env = GetEnv(n);
  const uint32_t B = RecordsPerPage<Point>(4096);

  const int64_t c = 10'000'000 * corner_pct;
  Rng rng(37);
  QueryStats agg;
  uint64_t ops = 0;
  for (auto _ : state) {
    TwoSidedQuery q{c + rng.UniformRange(0, 10'000'000),
                    c + rng.UniformRange(0, 10'000'000)};
    std::vector<Point> out;
    QueryStats qs;
    BenchCheck(env->pst->QueryTwoSided(q, &out, &qs), "query");
    agg += qs;
    ++ops;
  }
  auto per = [&](uint64_t v) {
    return static_cast<double>(v) / static_cast<double>(ops);
  };
  state.counters["nav"] = per(agg.navigation);
  state.counters["cache"] = per(agg.cache);
  state.counters["ancestor"] = per(agg.ancestor);
  state.counters["sibling"] = per(agg.sibling);
  state.counters["descendant"] = per(agg.descendant);
  state.counters["useful"] = per(agg.useful);
  state.counters["wasteful"] = per(agg.wasteful);
  state.counters["t_mean"] = per(agg.records_reported);
  state.counters["paid_bound"] =
      2.0 * per(agg.useful) + 10.0 * CeilLogBase(n, B) + 16;
}

static void Args(benchmark::internal::Benchmark* b) {
  // Corner at 30%/70%/95% of the domain: sweeping output size from huge to
  // tiny shifts the breakdown from descendant-dominated to cache-dominated.
  for (int64_t pct : {30, 70, 95}) b->Args({400'000, pct});
}
BENCHMARK(BM_Accounting_Breakdown)->Apply(Args)->Iterations(kCountedIterations);

}  // namespace
}  // namespace pathcache

BENCHMARK_MAIN();
