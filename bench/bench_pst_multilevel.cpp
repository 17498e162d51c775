// Experiment E4 (Section 4.2, Theorem 4.4): the multilevel recursion.
// Space follows the iterated-log progression (log B, log log B, log* B ...)
// asymptotically; the query picks up +O(1) cache reads per extra level
// (the +log* B term).
//
// Honest expectation at laptop-scale B (~170): log log B ~ 3 and
// log log log B ~ 1.6, so the asymptotic savings of levels >= 3 are largely
// eaten by per-substructure constant overheads — the benchmark reports the
// actual storage so EXPERIMENTS.md can show where the theory's regime
// starts.  The query-time penalty per level IS visible.

#include <benchmark/benchmark.h>

#include <algorithm>
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
  std::vector<int64_t> xs_desc, ys_desc;
};

Env* GetEnv(uint64_t n, uint32_t levels) {
  static std::map<std::pair<uint64_t, uint32_t>, std::unique_ptr<Env>> cache;
  auto key = std::make_pair(n, levels);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second.get();
  auto env = std::make_unique<Env>();
  env->dev = std::make_unique<MemPageDevice>(4096);
  PointGenOptions o;
  o.n = n;
  o.seed = 42;
  auto pts = GenPointsUniform(o);
  TwoLevelPstOptions opts;
  opts.levels = levels;
  env->pst = std::make_unique<TwoLevelPst>(env->dev.get(), opts);
  BenchCheck(env->pst->Build(pts), "build");
  for (const auto& p : pts) {
    env->xs_desc.push_back(p.x);
    env->ys_desc.push_back(p.y);
  }
  std::sort(env->xs_desc.begin(), env->xs_desc.end(), std::greater<>());
  std::sort(env->ys_desc.begin(), env->ys_desc.end(), std::greater<>());
  Env* raw = env.get();
  cache[key] = std::move(env);
  return raw;
}

void BM_Multilevel(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  const uint32_t levels = static_cast<uint32_t>(state.range(1));
  Env* env = GetEnv(n, levels);
  const uint32_t B = RecordsPerPage<Point>(4096);

  Rng rng(19);
  env->dev->ResetStats();
  uint64_t ops = 0, total_t = 0;
  for (auto _ : state) {
    uint64_t k = std::min<uint64_t>(512 + rng.Uniform(128), n - 1);
    TwoSidedQuery q{env->xs_desc[k], env->ys_desc[n / 2]};
    std::vector<Point> out;
    BenchCheck(env->pst->QueryTwoSided(q, &out), "query");
    total_t += out.size();
    ++ops;
  }
  RegisterIoCounters(state, env->dev->stats(), ops, "io_per_query");
  state.counters["t_mean"] =
      static_cast<double>(total_t) / static_cast<double>(ops);
  state.counters["storage_blocks"] =
      static_cast<double>(env->pst->storage().total());
  state.counters["n_over_B"] = static_cast<double>(CeilDiv(n, B));
  state.counters["logstarB"] = static_cast<double>(LogStar(B));
}

static void Args(benchmark::internal::Benchmark* b) {
  for (int64_t n : {200'000, 1'000'000}) {
    for (int64_t levels : {2, 3, 4}) b->Args({n, levels});
  }
}
BENCHMARK(BM_Multilevel)->Apply(Args)->Iterations(kCountedIterations);

}  // namespace
}  // namespace pathcache

BENCHMARK_MAIN();
