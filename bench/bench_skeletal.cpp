// Experiment E9 (Figure 2): skeletal-B-tree blocking — a root-to-leaf
// descent of a binary tree costs one page read per chunk of ~log2(B) levels,
// i.e. O(log_B n) instead of O(log_2 n), across page sizes.
//
// Expected shape: reads per descent track ceil(height / chunk_height) and
// shrink as the page grows; the pointer-chased (1-node-per-page) layout
// pays the full height.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "bench_common.h"
#include "core/skeletal.h"
#include "io/mem_page_device.h"
#include "util/mathutil.h"
#include "util/random.h"

namespace pathcache {
namespace {

struct TestRec {
  int64_t key = 0;
  NodeRef left;
  NodeRef right;
};

struct Env {
  std::unique_ptr<MemPageDevice> dev;
  SkeletalTreeInfo info;
  int32_t n = 0;
};

Env* GetEnv(int64_t n, uint32_t page_size, bool blocked) {
  static std::map<std::tuple<int64_t, uint32_t, bool>, std::unique_ptr<Env>>
      cache;
  auto key = std::make_tuple(n, page_size, blocked);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second.get();
  auto env = std::make_unique<Env>();
  // "Unblocked" pointer-chasing: a page so small it fits one node.
  env->dev = std::make_unique<MemPageDevice>(
      blocked ? page_size : sizeof(SkeletalPageHeader) + sizeof(TestRec));
  env->n = static_cast<int32_t>(n);

  // Complete BST over keys 0..n-1 in heap order.
  std::vector<TestRec> recs(n);
  std::vector<int32_t> left(n, -1), right(n, -1);
  struct R {
    std::vector<TestRec>& recs;
    std::vector<int32_t>& left;
    std::vector<int32_t>& right;
    int64_t next_key = 0;
    void Visit(int32_t i) {
      int32_t l = 2 * i + 1, r = 2 * i + 2;
      if (l < static_cast<int32_t>(recs.size())) {
        left[i] = l;
        Visit(l);
      }
      recs[i].key = next_key++;
      if (r < static_cast<int32_t>(recs.size())) {
        right[i] = r;
        Visit(r);
      }
    }
  } builder{recs, left, right};
  builder.Visit(0);
  auto r = WriteSkeletalTree<TestRec>(env->dev.get(), recs, left, right, 0);
  BenchCheck(r.ToStatus(), "write skeletal tree");
  env->info = std::move(r).value();
  Env* raw = env.get();
  cache[key] = std::move(env);
  return raw;
}

void RunDescent(benchmark::State& state, bool blocked) {
  const int64_t n = state.range(0);
  const uint32_t page_size = static_cast<uint32_t>(state.range(1));
  Env* env = GetEnv(n, page_size, blocked);

  Rng rng(31);
  env->dev->ResetStats();
  uint64_t ops = 0;
  for (auto _ : state) {
    SkeletalTreeReader<TestRec> reader(env->dev.get());
    int64_t target = rng.UniformRange(0, n - 1);
    NodeRef cur = env->info.root;
    TestRec rec;
    while (cur.valid()) {
      BenchCheck(reader.Read(cur, &rec), "read");
      if (rec.key == target) break;
      cur = target < rec.key ? rec.left : rec.right;
    }
    ++ops;
  }
  const uint32_t cap = SkeletalNodesPerPage<TestRec>(
      blocked ? page_size
              : sizeof(SkeletalPageHeader) + sizeof(TestRec));
  RegisterIoCounters(state, env->dev->stats(), ops, "io_per_descent");
  state.counters["height"] = static_cast<double>(CeilLog2(n));
  state.counters["chunk_height"] =
      static_cast<double>(std::max<uint32_t>(1, FloorLog2(cap + 1)));
}

void BM_Skeletal_Blocked(benchmark::State& state) { RunDescent(state, true); }
void BM_Skeletal_PointerChase(benchmark::State& state) {
  RunDescent(state, false);
}

static void Args(benchmark::internal::Benchmark* b) {
  for (int64_t n : {65'535, 1'048'575}) {
    for (int64_t page : {512, 4096, 16384}) b->Args({n, page});
  }
}
BENCHMARK(BM_Skeletal_Blocked)->Apply(Args)->Iterations(kCountedIterations);
BENCHMARK(BM_Skeletal_PointerChase)->Args({65'535, 4096})
    ->Args({1'048'575, 4096})
    ->Iterations(kCountedIterations);

}  // namespace
}  // namespace pathcache

BENCHMARK_MAIN();
