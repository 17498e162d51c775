// Shared helpers for the experiment harnesses.
//
// Every bench binary prints, alongside google-benchmark timings, the counted
// I/O quantities the paper's theorems bound (reads per query, blocks of
// storage) as benchmark counters, so the tables in EXPERIMENTS.md can be
// regenerated by just running the binaries.

#ifndef PATHCACHE_BENCH_BENCH_COMMON_H_
#define PATHCACHE_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "io/io_types.h"
#include "util/json_writer.h"  // JsonWriter, used by the --json dump paths
#include "util/random.h"
#include "util/status.h"

namespace pathcache {

/// Zipfian key-popularity stream (first step of the ROADMAP "scenario
/// diversity" item): `count` indices into a candidate pool of size `pool`,
/// rank r hit with probability proportional to 1/(r+1)^theta.  Ranks map
/// onto the pool identically — candidate pools are themselves randomly
/// generated, so "candidate 0 is the hottest key" introduces no bias —
/// and theta = 0 degenerates to the uniform stream.  Deterministic per
/// seed, like every workload generator in this repo.
inline std::vector<size_t> ZipfIndexStream(size_t pool, size_t count,
                                           double theta, uint64_t seed) {
  std::vector<size_t> idx(count);
  if (pool == 0) return idx;
  Zipf zipf(pool, theta, seed);
  for (size_t i = 0; i < count; ++i) {
    idx[i] = static_cast<size_t>(zipf.Next());
  }
  return idx;
}

/// Iteration count of every counted-I/O benchmark.  Each benchmark replays
/// a seeded query stream and reports its mean I/O; a time-based iteration
/// count would average a different prefix of the stream on every run, so
/// the count is fixed and the counters come out identical run to run.
inline constexpr int64_t kCountedIterations = 2000;

/// Registers the per-operation counted-I/O counter every bench reports,
/// under the bench's established name (io_per_query, io_per_update, ...).
/// `count_writes` selects reads+writes (update benches) over reads only.
/// When any reads were batched, a `batches` counter is added so the effect
/// of vectored I/O stays visible next to the unchanged counted reads.
inline void RegisterIoCounters(benchmark::State& state, const IoStats& stats,
                               uint64_t ops,
                               const char* name = "io_per_query",
                               bool count_writes = false) {
  const uint64_t io = count_writes ? stats.total() : stats.reads;
  state.counters[name] =
      static_cast<double>(io) / static_cast<double>(ops);
  if (stats.batch_reads > 0) {
    state.counters["batches"] = static_cast<double>(stats.batch_reads);
  }
}

/// Aborts the benchmark on error; benches run on trusted in-memory devices,
/// so any failure is a bug worth a loud stop.
inline void BenchCheck(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, s.ToString().c_str());
    std::abort();
  }
}

template <typename T>
T BenchValue(Result<T> r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, r.status().ToString().c_str());
    std::abort();
  }
  return std::move(r).value();
}

}  // namespace pathcache

#endif  // PATHCACHE_BENCH_BENCH_COMMON_H_
