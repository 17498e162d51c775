// Experiment E13 (Section 1's worst-case-vs-heuristic argument): query I/O
// across data distributions for the worst-case-optimal two-level PST vs the
// grid-file heuristic ([NHS]-style) vs the B+-tree scan.
//
// Expected shape: the grid is competitive on uniform data (its design
// point) and degrades on clustered/diagonal/Zipf inputs where points crowd
// into few cells; the path-cached structure's counts barely move across
// distributions — the paper's case for worst-case bounds in one table.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>

#include "bench_common.h"
#include "core/baselines.h"
#include "core/grid_baseline.h"
#include "core/pst_two_level.h"
#include "io/mem_page_device.h"
#include "util/mathutil.h"
#include "workload/generators.h"

namespace pathcache {
namespace {

const char* DistName(int d) {
  switch (d) {
    case 0: return "uniform";
    case 1: return "clustered";
    case 2: return "diagonal";
    case 3: return "zipf";
  }
  return "?";
}

std::vector<Point> MakePoints(int dist, uint64_t n) {
  PointGenOptions o;
  o.n = n;
  o.seed = 42;
  switch (dist) {
    case 0: return GenPointsUniform(o);
    case 1: return GenPointsClustered(o, 6, 5'000'000);
    case 2: return GenPointsDiagonal(o, 10'000'000);
    default: return GenPointsZipfX(o, 0.99);
  }
}

struct Env {
  std::unique_ptr<MemPageDevice> dev;
  std::unique_ptr<TwoLevelPst> pst;
  std::unique_ptr<GridBaseline> grid;
  std::unique_ptr<XSortedBaseline> scan;
  std::vector<Point> pts;
  std::vector<int64_t> xs_desc, ys_desc;
};

Env* GetEnv(int dist, uint64_t n) {
  static std::map<std::pair<int, uint64_t>, std::unique_ptr<Env>> cache;
  auto key = std::make_pair(dist, n);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second.get();
  auto env = std::make_unique<Env>();
  env->dev = std::make_unique<MemPageDevice>(4096);
  env->pts = MakePoints(dist, n);
  env->pst = std::make_unique<TwoLevelPst>(env->dev.get());
  BenchCheck(env->pst->Build(env->pts), "build pst");
  env->grid = std::make_unique<GridBaseline>(env->dev.get());
  BenchCheck(env->grid->Build(env->pts), "build grid");
  env->scan = std::make_unique<XSortedBaseline>(env->dev.get());
  BenchCheck(env->scan->Build(env->pts), "build scan");
  for (const auto& p : env->pts) {
    env->xs_desc.push_back(p.x);
    env->ys_desc.push_back(p.y);
  }
  std::sort(env->xs_desc.begin(), env->xs_desc.end(), std::greater<>());
  std::sort(env->ys_desc.begin(), env->ys_desc.end(), std::greater<>());
  Env* raw = env.get();
  cache[key] = std::move(env);
  return raw;
}

template <typename F>
void Run(benchmark::State& state, F&& query_fn) {
  const int dist = static_cast<int>(state.range(0));
  const uint64_t n = static_cast<uint64_t>(state.range(1));
  Env* env = GetEnv(dist, n);
  Rng rng(7);
  env->dev->ResetStats();
  uint64_t ops = 0, total_t = 0;
  for (auto _ : state) {
    // Selective corners (t <= ~1k): both edges at high ranks, so the cost
    // differences are structural, not output-volume.
    uint64_t k = 200 + rng.Uniform(800);
    TwoSidedQuery q{env->xs_desc[k], env->ys_desc[k]};
    std::vector<Point> out;
    BenchCheck(query_fn(*env, q, &out), "query");
    total_t += out.size();
    ++ops;
  }
  const uint32_t B = RecordsPerPage<Point>(4096);
  state.SetLabel(DistName(dist));
  RegisterIoCounters(state, env->dev->stats(), ops, "io_per_query");
  state.counters["t_mean"] =
      static_cast<double>(total_t) / static_cast<double>(ops);
  state.counters["t_over_B"] = static_cast<double>(total_t) /
                               static_cast<double>(ops) /
                               static_cast<double>(B);
}

void BM_Dist_TwoLevelPst(benchmark::State& state) {
  Run(state, [](Env& e, const TwoSidedQuery& q, std::vector<Point>* out) {
    return e.pst->QueryTwoSided(q, out);
  });
}
void BM_Dist_GridFile(benchmark::State& state) {
  Run(state, [](Env& e, const TwoSidedQuery& q, std::vector<Point>* out) {
    return e.grid->QueryTwoSided(q, out);
  });
}
void BM_Dist_BtreeScan(benchmark::State& state) {
  Run(state, [](Env& e, const TwoSidedQuery& q, std::vector<Point>* out) {
    return e.scan->QueryTwoSided(q, out);
  });
}

static void Args(benchmark::internal::Benchmark* b) {
  for (int dist : {0, 1, 2, 3}) b->Args({dist, 200'000});
}
BENCHMARK(BM_Dist_TwoLevelPst)->Apply(Args)->Iterations(kCountedIterations);
BENCHMARK(BM_Dist_GridFile)->Apply(Args)->Iterations(kCountedIterations);
BENCHMARK(BM_Dist_BtreeScan)->Apply(Args)->Iterations(kCountedIterations);

}  // namespace
}  // namespace pathcache

BENCHMARK_MAIN();
