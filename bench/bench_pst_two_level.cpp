// Experiment E3 (Lemmas 4.1/4.2, Theorem 4.3): the two-level recursive
// scheme — optimal query I/O at O((n/B) log log B) space.
//
// Expected shape: io_per_query matches the basic scheme's (both optimal),
// while storage_blocks tracks (n/B) log log B, well below the basic
// scheme's (n/B) log B; the top level alone (X/Y/A/S) is O(n/B).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>

#include "bench_common.h"
#include "core/pst_external.h"
#include "core/pst_two_level.h"
#include "io/mem_page_device.h"
#include "util/mathutil.h"
#include "workload/generators.h"

namespace pathcache {
namespace {

struct Env {
  std::unique_ptr<MemPageDevice> dev;
  std::unique_ptr<TwoLevelPst> two;
  std::unique_ptr<ExternalPst> basic;
  std::vector<int64_t> xs_desc, ys_desc;
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
  BenchCheck(env->two->Build(pts), "build two-level");
  env->basic = std::make_unique<ExternalPst>(env->dev.get());
  BenchCheck(env->basic->Build(pts), "build basic");
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

template <typename F>
void Run(benchmark::State& state, F&& query_fn) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  const uint64_t t_target = static_cast<uint64_t>(state.range(1));
  Env* env = GetEnv(n);
  const uint32_t B = RecordsPerPage<Point>(4096);
  Rng rng(17);
  env->dev->ResetStats();
  uint64_t ops = 0, total_t = 0;
  for (auto _ : state) {
    uint64_t k = std::min<uint64_t>(t_target + rng.Uniform(t_target / 4 + 1),
                                    n - 1);
    TwoSidedQuery q{env->xs_desc[k], env->ys_desc[n / 2]};
    std::vector<Point> out;
    BenchCheck(query_fn(*env, q, &out), "query");
    total_t += out.size();
    ++ops;
  }
  RegisterIoCounters(state, env->dev->stats(), ops, "io_per_query");
  state.counters["t_mean"] =
      static_cast<double>(total_t) / static_cast<double>(ops);
  state.counters["bound_logB_n"] = static_cast<double>(CeilLogBase(n, B));
  state.counters["n_over_B"] = static_cast<double>(CeilDiv(n, B));
  state.counters["loglogB"] = static_cast<double>(FloorLogLog2(B));
}

void BM_TwoLevel_Query(benchmark::State& state) {
  Run(state, [](Env& e, const TwoSidedQuery& q, std::vector<Point>* out) {
    return e.two->QueryTwoSided(q, out);
  });
  Env* env = GetEnv(state.range(0));
  auto st = env->two->storage();
  state.counters["storage_blocks"] = static_cast<double>(st.total());
  state.counters["top_level_blocks"] =
      static_cast<double>(st.total() - st.second_level);
  state.counters["second_level_blocks"] = static_cast<double>(st.second_level);
}

void BM_Basic_Query(benchmark::State& state) {
  Run(state, [](Env& e, const TwoSidedQuery& q, std::vector<Point>* out) {
    return e.basic->QueryTwoSided(q, out);
  });
  state.counters["storage_blocks"] =
      static_cast<double>(GetEnv(state.range(0))->basic->storage().total());
}

static void Args(benchmark::internal::Benchmark* b) {
  for (int64_t n : {50'000, 200'000, 1'000'000}) {
    for (int64_t t : {128, 8'192}) b->Args({n, t});
  }
}
BENCHMARK(BM_TwoLevel_Query)->Apply(Args)->Iterations(kCountedIterations);
BENCHMARK(BM_Basic_Query)->Apply(Args)->Iterations(kCountedIterations);

}  // namespace
}  // namespace pathcache

BENCHMARK_MAIN();
