// Experiment E7 (Section 5, Theorem 5.1): the dynamic two-level structure.
// Measures amortized I/Os per insert/delete against the log_B n bound,
// query cost under a mixed workload with buffered updates, and the cost
// spikes of buffer-overflow cascades (reported via flush/rebuild counts).
//
// Expected shape: io_per_update flat-amortized near a small multiple of
// log_B n (inserts log in O(1) I/Os; flush and rebuild costs amortize);
// queries stay at log_B n + t/B despite pending updates.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "bench_common.h"
#include "core/pst_dynamic.h"
#include "io/mem_page_device.h"
#include "util/mathutil.h"
#include "workload/generators.h"

namespace pathcache {
namespace {

void BM_Dynamic_InsertOnly(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  MemPageDevice dev(4096);
  DynamicPst pst(&dev);
  PointGenOptions o;
  o.n = n;
  o.seed = 42;
  BenchCheck(pst.Build(GenPointsUniform(o)), "build");
  const uint32_t B = RecordsPerPage<Point>(4096);

  Rng rng(7);
  uint64_t next_id = 100'000'000;
  dev.ResetStats();
  uint64_t ops = 0;
  for (auto _ : state) {
    BenchCheck(pst.Insert({rng.UniformRange(0, 1'000'000'000),
                           rng.UniformRange(0, 1'000'000'000), next_id++}),
               "insert");
    ++ops;
  }
  RegisterIoCounters(state, dev.stats(), ops, "io_per_update", /*count_writes=*/true);
  state.counters["bound_logB_n"] = static_cast<double>(CeilLogBase(n, B));
  state.counters["flushes"] = static_cast<double>(pst.flushes());
  state.counters["rebuilds"] = static_cast<double>(pst.rebuilds());
}
BENCHMARK(BM_Dynamic_InsertOnly)
    ->Arg(20'000)
    ->Arg(100'000)
    ->Arg(400'000)
    ->Iterations(3000);

void BM_Dynamic_MixedUpdates(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  MemPageDevice dev(4096);
  DynamicPst pst(&dev);
  PointGenOptions o;
  o.n = n;
  o.seed = 42;
  auto pts = GenPointsUniform(o);
  BenchCheck(pst.Build(pts), "build");
  const uint32_t B = RecordsPerPage<Point>(4096);

  Rng rng(11);
  uint64_t next_id = 100'000'000;
  std::vector<Point> live = pts;
  dev.ResetStats();
  uint64_t ops = 0;
  for (auto _ : state) {
    if (rng.Bernoulli(0.5)) {
      Point p{rng.UniformRange(0, 1'000'000'000),
              rng.UniformRange(0, 1'000'000'000), next_id++};
      BenchCheck(pst.Insert(p), "insert");
      live.push_back(p);
    } else {
      size_t k = rng.Uniform(live.size());
      BenchCheck(pst.Erase(live[k]), "erase");
      live[k] = live.back();
      live.pop_back();
    }
    ++ops;
  }
  RegisterIoCounters(state, dev.stats(), ops, "io_per_update", /*count_writes=*/true);
  state.counters["bound_logB_n"] = static_cast<double>(CeilLogBase(n, B));
}
BENCHMARK(BM_Dynamic_MixedUpdates)->Arg(100'000)->Iterations(3000);

void BM_Dynamic_QueryUnderChurn(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  static std::map<uint64_t, std::unique_ptr<MemPageDevice>> devs;
  static std::map<uint64_t, std::unique_ptr<DynamicPst>> psts;
  if (psts.find(n) == psts.end()) {
    devs[n] = std::make_unique<MemPageDevice>(4096);
    psts[n] = std::make_unique<DynamicPst>(devs[n].get());
    PointGenOptions o;
    o.n = n;
    o.seed = 42;
    BenchCheck(psts[n]->Build(GenPointsUniform(o)), "build");
    Rng rng(13);
    for (int i = 0; i < 2000; ++i) {
      BenchCheck(
          psts[n]->Insert({rng.UniformRange(0, 1'000'000'000),
                           rng.UniformRange(0, 1'000'000'000),
                           200'000'000ULL + i}),
          "churn insert");
    }
  }
  MemPageDevice* dev = devs[n].get();
  DynamicPst* pst = psts[n].get();
  const uint32_t B = RecordsPerPage<Point>(4096);

  Rng rng(17);
  dev->ResetStats();
  uint64_t ops = 0, total_t = 0;
  for (auto _ : state) {
    TwoSidedQuery q{rng.UniformRange(500'000'000, 1'000'000'000),
                    rng.UniformRange(900'000'000, 1'000'000'000)};
    std::vector<Point> out;
    BenchCheck(pst->QueryTwoSided(q, &out), "query");
    total_t += out.size();
    ++ops;
  }
  RegisterIoCounters(state, dev->stats(), ops, "io_per_query");
  state.counters["t_mean"] =
      static_cast<double>(total_t) / static_cast<double>(ops);
  state.counters["bound_logB_n"] = static_cast<double>(CeilLogBase(n, B));
}
BENCHMARK(BM_Dynamic_QueryUnderChurn)->Arg(100'000)->Arg(400'000)
    ->Iterations(kCountedIterations);

}  // namespace
}  // namespace pathcache

BENCHMARK_MAIN();
