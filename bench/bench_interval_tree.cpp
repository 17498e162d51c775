// Experiment E6 (Theorem 3.5): stabbing via the external interval tree —
// optimal queries at O((n/B) log B) space, contrasted with the external
// segment tree (same query bound, O((n/B) log n) space because every
// interval is replicated across O(log n) cover-lists).
//
// Expected shape: both cached trees answer in ~log_B n + t/B reads; the
// interval tree stores each interval O(1) times so its storage sits near
// 2n/B + caches, well under the segment tree's.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "bench_common.h"
#include "core/ext_interval_tree.h"
#include "core/ext_segment_tree.h"
#include "io/mem_page_device.h"
#include "util/mathutil.h"
#include "workload/generators.h"

namespace pathcache {
namespace {

struct Env {
  std::unique_ptr<MemPageDevice> dev_it;
  std::unique_ptr<MemPageDevice> dev_st;
  std::unique_ptr<ExtIntervalTree> itree;
  std::unique_ptr<ExtSegmentTree> stree;
  std::vector<Interval> ivs;
};

Env* GetEnv(uint64_t n) {
  static std::map<uint64_t, std::unique_ptr<Env>> cache;
  auto it = cache.find(n);
  if (it != cache.end()) return it->second.get();
  auto env = std::make_unique<Env>();
  env->dev_it = std::make_unique<MemPageDevice>(4096);
  env->dev_st = std::make_unique<MemPageDevice>(4096);
  IntervalGenOptions o;
  o.n = n;
  o.seed = 42;
  o.domain_max = 10'000'000;
  o.mean_len_frac = 0.005;
  env->ivs = GenIntervalsUniform(o);
  MakeEndpointsDistinct(&env->ivs);
  env->itree = std::make_unique<ExtIntervalTree>(env->dev_it.get());
  BenchCheck(env->itree->Build(env->ivs), "build interval tree");
  env->stree = std::make_unique<ExtSegmentTree>(env->dev_st.get());
  BenchCheck(env->stree->Build(env->ivs), "build segment tree");
  Env* raw = env.get();
  cache[n] = std::move(env);
  return raw;
}

void BM_IntervalTree_Stab(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  Env* env = GetEnv(n);
  const uint32_t B = RecordsPerPage<Interval>(4096);
  Rng rng(29);
  const int64_t domain = static_cast<int64_t>(n) * 4;
  env->dev_it->ResetStats();
  uint64_t ops = 0, total_t = 0;
  for (auto _ : state) {
    std::vector<Interval> out;
    BenchCheck(env->itree->Stab(rng.UniformRange(0, domain), &out), "stab");
    total_t += out.size();
    ++ops;
  }
  RegisterIoCounters(state, env->dev_it->stats(), ops, "io_per_query");
  state.counters["t_mean"] =
      static_cast<double>(total_t) / static_cast<double>(ops);
  state.counters["storage_blocks"] =
      static_cast<double>(env->dev_it->live_pages());
  state.counters["bound_nB_logB"] =
      static_cast<double>(CeilDiv(n, B) * (FloorLog2(B) + 1));
}

void BM_SegmentTree_Stab(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  Env* env = GetEnv(n);
  const uint32_t B = RecordsPerPage<Interval>(4096);
  Rng rng(29);
  const int64_t domain = static_cast<int64_t>(n) * 4;
  env->dev_st->ResetStats();
  uint64_t ops = 0, total_t = 0;
  for (auto _ : state) {
    std::vector<Interval> out;
    BenchCheck(env->stree->Stab(rng.UniformRange(0, domain), &out), "stab");
    total_t += out.size();
    ++ops;
  }
  RegisterIoCounters(state, env->dev_st->stats(), ops, "io_per_query");
  state.counters["t_mean"] =
      static_cast<double>(total_t) / static_cast<double>(ops);
  state.counters["storage_blocks"] =
      static_cast<double>(env->dev_st->live_pages());
  state.counters["bound_nB_logn"] =
      static_cast<double>(CeilDiv(n, B) * CeilLog2(n));
}

BENCHMARK(BM_IntervalTree_Stab)->Arg(20'000)->Arg(100'000)->Arg(400'000)
    ->Iterations(kCountedIterations);
BENCHMARK(BM_SegmentTree_Stab)->Arg(20'000)->Arg(100'000)->Arg(400'000)
    ->Iterations(kCountedIterations);

}  // namespace
}  // namespace pathcache

BENCHMARK_MAIN();
