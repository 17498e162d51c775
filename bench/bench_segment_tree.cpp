// Experiment E1 (Section 2, Figure 3, Theorem 3.4): stabbing-query I/Os on
// the external segment tree, path caching ON vs OFF, across n.
//
// Expected shape: with caching, reads/query stay ~flat in n at fixed output
// (log_B n + t/B); without caching every underfull cover-list on the
// log_2 n-deep path costs a read, so the OFF curve grows with log_2 n.
// Counters: io_per_query, t_mean, wasteful/useful split, storage_blocks.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "bench_common.h"
#include "core/ext_segment_tree.h"
#include "io/mem_page_device.h"
#include "util/mathutil.h"
#include "workload/generators.h"

namespace pathcache {
namespace {

struct Env {
  std::unique_ptr<MemPageDevice> dev;
  std::unique_ptr<ExtSegmentTree> tree;
  std::vector<Interval> ivs;
};

Env* GetEnv(uint64_t n, bool caching) {
  static std::map<std::pair<uint64_t, bool>, std::unique_ptr<Env>> cache;
  auto key = std::make_pair(n, caching);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second.get();
  auto env = std::make_unique<Env>();
  env->dev = std::make_unique<MemPageDevice>(4096);
  IntervalGenOptions o;
  o.n = n;
  o.seed = 42;
  o.domain_max = 10'000'000;
  o.mean_len_frac = 0.001;  // short intervals: underfull cover-lists
  env->ivs = GenIntervalsUniform(o);
  MakeEndpointsDistinct(&env->ivs);
  ExtSegmentTreeOptions opts;
  opts.enable_path_caching = caching;
  env->tree = std::make_unique<ExtSegmentTree>(env->dev.get(), opts);
  BenchCheck(env->tree->Build(env->ivs), "build");
  Env* raw = env.get();
  cache[key] = std::move(env);
  return raw;
}

void RunStab(benchmark::State& state, bool caching) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  Env* env = GetEnv(n, caching);
  const uint32_t B = RecordsPerPage<Interval>(4096);

  Rng rng(7);
  const int64_t domain = static_cast<int64_t>(env->ivs.size()) * 4;
  env->dev->ResetStats();
  uint64_t ops = 0, total_t = 0;
  QueryStats agg;
  for (auto _ : state) {
    std::vector<Interval> out;
    QueryStats qs;
    BenchCheck(env->tree->Stab(rng.UniformRange(0, domain), &out, &qs),
               "stab");
    total_t += out.size();
    agg += qs;
    ++ops;
  }
  RegisterIoCounters(state, env->dev->stats(), ops, "io_per_query");
  state.counters["t_mean"] =
      static_cast<double>(total_t) / static_cast<double>(ops);
  state.counters["wasteful_per_q"] =
      static_cast<double>(agg.wasteful) / static_cast<double>(ops);
  state.counters["useful_per_q"] =
      static_cast<double>(agg.useful) / static_cast<double>(ops);
  state.counters["bound_logB_n"] = static_cast<double>(CeilLogBase(n, B));
  state.counters["log2_n"] = static_cast<double>(CeilLog2(n));
  state.counters["storage_blocks"] =
      static_cast<double>(env->dev->live_pages());
}

void BM_SegTree_PathCached(benchmark::State& state) { RunStab(state, true); }
void BM_SegTree_Naive(benchmark::State& state) { RunStab(state, false); }

BENCHMARK(BM_SegTree_PathCached)
    ->Arg(10'000)
    ->Arg(50'000)
    ->Arg(200'000)
    ->Arg(500'000)
    ->Iterations(kCountedIterations);
BENCHMARK(BM_SegTree_Naive)
    ->Arg(10'000)
    ->Arg(50'000)
    ->Arg(200'000)
    ->Arg(500'000)
    ->Iterations(kCountedIterations);

}  // namespace
}  // namespace pathcache

BENCHMARK_MAIN();
