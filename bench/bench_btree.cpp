// Experiment E11 (Section 1 baseline claims): B+-tree external 1-D range
// search costs O(log_B n + t/B) I/Os and updates cost O(log_B n).
//
// Counters reported per benchmark:
//   io_per_query   measured device reads per operation
//   bound          the paper's bound with constant 1 (log_B n + t/B)
//   t              mean output size

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "btree/bplus_tree.h"
#include "io/mem_page_device.h"
#include "util/mathutil.h"
#include "util/random.h"

namespace pathcache {
namespace {

std::vector<BTreeEntry> MakeEntries(uint64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<BTreeEntry> entries(n);
  for (uint64_t i = 0; i < n; ++i) {
    entries[i] = {static_cast<int64_t>(i * 16 + rng.Uniform(16)), i};
  }
  return entries;
}

void BM_BTreePointLookup(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  MemPageDevice dev(4096);
  BPlusTree tree(&dev);
  auto entries = MakeEntries(n, 1);
  BenchCheck(tree.BulkLoad(entries), "bulk load");

  Rng rng(7);
  dev.ResetStats();
  uint64_t ops = 0;
  for (auto _ : state) {
    bool found;
    uint64_t v;
    BenchCheck(tree.Get(entries[rng.Uniform(n)].key, &v, &found), "get");
    benchmark::DoNotOptimize(found);
    ++ops;
  }
  RegisterIoCounters(state, dev.stats(), ops, "io_per_query");
  state.counters["bound_logB_n"] =
      static_cast<double>(CeilLogBase(n, tree.leaf_capacity()));
}
BENCHMARK(BM_BTreePointLookup)->Arg(10'000)->Arg(100'000)->Arg(1'000'000)
    ->Iterations(kCountedIterations);

void BM_BTreeRangeScan(benchmark::State& state) {
  const uint64_t n = 1'000'000;
  const uint64_t t_target = static_cast<uint64_t>(state.range(0));
  MemPageDevice dev(4096);
  BPlusTree tree(&dev);
  auto entries = MakeEntries(n, 2);
  BenchCheck(tree.BulkLoad(entries), "bulk load");

  Rng rng(11);
  dev.ResetStats();
  uint64_t ops = 0, total_t = 0;
  for (auto _ : state) {
    uint64_t start = rng.Uniform(n - t_target);
    std::vector<BTreeEntry> out;
    BenchCheck(tree.RangeScan(entries[start].key,
                              entries[start + t_target - 1].key, &out),
               "range scan");
    total_t += out.size();
    ++ops;
  }
  RegisterIoCounters(state, dev.stats(), ops, "io_per_query");
  state.counters["t"] = static_cast<double>(total_t) / static_cast<double>(ops);
  state.counters["bound"] = static_cast<double>(
      CeilLogBase(n, tree.leaf_capacity()) +
      CeilDiv(t_target, tree.leaf_capacity()));
}
BENCHMARK(BM_BTreeRangeScan)->Arg(100)->Arg(1'000)->Arg(10'000)->Arg(100'000)
    ->Iterations(kCountedIterations);

void BM_BTreeInsert(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  MemPageDevice dev(4096);
  BPlusTree tree(&dev);
  auto entries = MakeEntries(n, 3);
  BenchCheck(tree.BulkLoad(entries), "bulk load");

  Rng rng(13);
  dev.ResetStats();
  uint64_t ops = 0;
  for (auto _ : state) {
    BTreeEntry e{static_cast<int64_t>(rng.Uniform(n * 16)),
                 (1ULL << 40) + ops};
    BenchCheck(tree.Insert(e), "insert");
    ++ops;
  }
  RegisterIoCounters(state, dev.stats(), ops, "io_per_op", /*count_writes=*/true);
  state.counters["bound_logB_n"] =
      static_cast<double>(CeilLogBase(n, tree.leaf_capacity()));
}
BENCHMARK(BM_BTreeInsert)->Arg(100'000)->Arg(1'000'000)
    ->Iterations(kCountedIterations);

}  // namespace
}  // namespace pathcache

BENCHMARK_MAIN();
