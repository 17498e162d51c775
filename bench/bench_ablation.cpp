// Experiment E12 (ablations): design-choice sweeps DESIGN.md calls out.
//  (a) Page size B: 512..16384 bytes — query I/O falls as log_B n and the
//      caches get relatively cheaper.
//  (b) Buffer pool on top of the device: hit rates convert logical reads
//      into fewer physical reads; the structures' bounds apply to misses.
//  (c) Cache segment length: shorter segments = more caches per query but
//      smaller ones; the floor(log2 B) default is the sweet spot.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "bench_common.h"
#include "core/pst_two_level.h"
#include "io/buffer_pool.h"
#include "io/mem_page_device.h"
#include "util/mathutil.h"
#include "workload/generators.h"

namespace pathcache {
namespace {

struct Env {
  std::unique_ptr<MemPageDevice> dev;
  std::unique_ptr<TwoLevelPst> pst;
};

Env* GetEnv(uint32_t page_size, uint32_t seg_len) {
  static std::map<std::pair<uint32_t, uint32_t>, std::unique_ptr<Env>> cache;
  auto key = std::make_pair(page_size, seg_len);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second.get();
  auto env = std::make_unique<Env>();
  env->dev = std::make_unique<MemPageDevice>(page_size);
  PointGenOptions o;
  o.n = 300'000;
  o.seed = 42;
  TwoLevelPstOptions opts;
  opts.segment_len = seg_len;
  env->pst = std::make_unique<TwoLevelPst>(env->dev.get(), opts);
  BenchCheck(env->pst->Build(GenPointsUniform(o)), "build");
  Env* raw = env.get();
  cache[key] = std::move(env);
  return raw;
}

void QueryLoop(benchmark::State& state, Env* env, MemPageDevice* counter,
               PageDevice* via, uint32_t page_size) {
  (void)via;
  Rng rng(41);
  counter->ResetStats();
  uint64_t ops = 0, total_t = 0;
  for (auto _ : state) {
    TwoSidedQuery q{rng.UniformRange(700'000'000, 1'000'000'000),
                    rng.UniformRange(900'000'000, 1'000'000'000)};
    std::vector<Point> out;
    BenchCheck(env->pst->QueryTwoSided(q, &out), "query");
    total_t += out.size();
    ++ops;
  }
  const uint32_t B = RecordsPerPage<Point>(page_size);
  RegisterIoCounters(state, counter->stats(), ops, "io_per_query");
  state.counters["t_mean"] =
      static_cast<double>(total_t) / static_cast<double>(ops);
  state.counters["B"] = static_cast<double>(B);
  state.counters["storage_blocks"] =
      static_cast<double>(counter->live_pages());
}

void BM_Ablation_PageSize(benchmark::State& state) {
  const uint32_t page_size = static_cast<uint32_t>(state.range(0));
  Env* env = GetEnv(page_size, 0);
  QueryLoop(state, env, env->dev.get(), env->dev.get(), page_size);
}
BENCHMARK(BM_Ablation_PageSize)->Arg(512)->Arg(1024)->Arg(4096)->Arg(16384)
    ->Iterations(kCountedIterations);

void BM_Ablation_SegmentLen(benchmark::State& state) {
  const uint32_t seg = static_cast<uint32_t>(state.range(0));
  Env* env = GetEnv(4096, seg);
  QueryLoop(state, env, env->dev.get(), env->dev.get(), 4096);
  state.counters["seg_len"] = static_cast<double>(env->pst->segment_len());
}
BENCHMARK(BM_Ablation_SegmentLen)->Arg(1)->Arg(2)->Arg(4)->Arg(7)
    ->Iterations(kCountedIterations);

// Buffer pool ablation: a pool in front of the same device turns repeat
// touches (skeletal top pages, hot caches) into hits.
void BM_Ablation_BufferPool(benchmark::State& state) {
  const uint64_t pool_pages = static_cast<uint64_t>(state.range(0));
  static std::unique_ptr<MemPageDevice> inner;
  static std::unique_ptr<BufferPool> pool;
  static std::unique_ptr<TwoLevelPst> pst;
  static uint64_t built_pool = UINT64_MAX;
  if (built_pool != pool_pages) {
    inner = std::make_unique<MemPageDevice>(4096);
    pool = std::make_unique<BufferPool>(inner.get(), pool_pages);
    pst = std::make_unique<TwoLevelPst>(pool.get());
    PointGenOptions o;
    o.n = 300'000;
    o.seed = 42;
    BenchCheck(pst->Build(GenPointsUniform(o)), "build");
    built_pool = pool_pages;
  }
  Rng rng(43);
  inner->ResetStats();
  pool->ResetStats();
  uint64_t ops = 0;
  for (auto _ : state) {
    TwoSidedQuery q{rng.UniformRange(700'000'000, 1'000'000'000),
                    rng.UniformRange(900'000'000, 1'000'000'000)};
    std::vector<Point> out;
    BenchCheck(pst->QueryTwoSided(q, &out), "query");
    ++ops;
  }
  RegisterIoCounters(state, inner->stats(), ops, "physical_io_per_query");
  RegisterIoCounters(state, pool->stats(), ops, "logical_io_per_query");
  state.counters["hit_rate"] =
      pool->hits() + pool->misses() == 0
          ? 0.0
          : static_cast<double>(pool->hits()) /
                static_cast<double>(pool->hits() + pool->misses());
}
BENCHMARK(BM_Ablation_BufferPool)->Arg(0)->Arg(64)->Arg(1024)->Arg(16384)
    ->Iterations(kCountedIterations);

}  // namespace
}  // namespace pathcache

BENCHMARK_MAIN();
