// Microbenchmark for the in-page search kernels (E19's per-page half).
//
// For every dispatch tier the CPU offers, times each kernel family against
// the code it replaced — std::lower_bound for the sorted-bound family, the
// naive early-exit loop for the first-match family, slice-by-8 for CRC32C —
// at the array sizes the structures actually probe: B+-tree nodes and
// block-list directories hold tens to a few hundred 8/16-byte keys, record
// pages 128-170 records.
//
// `--json out.json` dumps every row machine-readably (CI uploads it);
// `--check-speedup X` exits nonzero unless the best vectorized tier beats
// the scalar-loop baseline by at least X at a directory-typical size, for
// both the bound family and the scan family — the regression gate for this
// optimization.  The run also hard-fails if the scalar fallback tier was
// never measured, so the gate can never silently pass while the portable
// path rots.
//
// Not a google-benchmark binary for the same reason as bench_throughput: a
// tier x kernel x size sweep over shared fixtures with a pass/fail gate is
// clearer as a plain main().

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "io/crc32c.h"
#include "kernels/dispatch.h"
#include "kernels/search.h"
#include "util/json_writer.h"

namespace pathcache {
namespace {

using kernels::Tier;

volatile uint64_t g_sink = 0;  // defeats dead-code elimination

struct Options {
  uint64_t reps = 200;        // passes over the query set per measurement
  double check_speedup = 0.0; // 0 = report only, no gate
  std::string json_path;
};

Options ParseArgs(int argc, char** argv) {
  Options o;
  auto value_of = [&](int* i, const char* flag) -> const char* {
    const size_t len = std::strlen(flag);
    if (std::strncmp(argv[*i], flag, len) != 0) return nullptr;
    if (argv[*i][len] == '=') return argv[*i] + len + 1;
    if (argv[*i][len] == '\0' && *i + 1 < argc) return argv[++*i];
    return nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    if (const char* rv = value_of(&i, "--reps")) {
      o.reps = std::strtoull(rv, nullptr, 10);
    } else if (const char* sv = value_of(&i, "--check-speedup")) {
      o.check_speedup = std::strtod(sv, nullptr);
    } else if (const char* jv = value_of(&i, "--json")) {
      o.json_path = jv;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--reps N] [--check-speedup X] [--json out]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  return o;
}

std::vector<Tier> AvailableTiers() {
  std::vector<Tier> tiers{Tier::kScalar};
  const Tier best = kernels::DetectedTier();
  if (best == Tier::kNeon) tiers.push_back(Tier::kNeon);
  if (best == Tier::kSse2 || best == Tier::kAvx2) tiers.push_back(Tier::kSse2);
  if (best == Tier::kAvx2) tiers.push_back(Tier::kAvx2);
  return tiers;
}

// Best-of-3 ns/op for `fn` run `reps` times over `per_pass` operations.
template <typename Fn>
double TimeNsPerOp(uint64_t reps, size_t per_pass, const Fn& fn) {
  double best = 1e300;
  for (int round = 0; round < 3; ++round) {
    const auto start = std::chrono::steady_clock::now();
    for (uint64_t r = 0; r < reps; ++r) fn();
    const double ns =
        std::chrono::duration<double, std::nano>(
            std::chrono::steady_clock::now() - start)
            .count();
    best = std::min(best, ns / (static_cast<double>(reps) * per_pass));
  }
  return best;
}

struct Row {
  const char* kernel;
  size_t n;
  const char* tier;   // "baseline" = the replaced scalar loop
  double ns_per_op;
  double speedup;     // vs the baseline row of the same (kernel, n)
};

const size_t kSizes[] = {16, 32, 64, 128, 256, 512};

// Enough distinct probes that the branch predictor cannot memorize the
// branchy baseline's per-query decision paths across reps — with a few
// hundred repeated queries std::lower_bound measures the predictor's
// capacity, not the search (real workloads probe with unbounded distinct
// keys, so mispredict-free repeats are the unrealistic case).
constexpr size_t kQueries = 4096;

// ---- Sorted-bound family: kernels::LowerBoundI64 vs std::lower_bound ----
void BenchLowerBound(const Options& opt, std::vector<Row>* rows) {
  std::mt19937_64 rng(42);
  for (size_t n : kSizes) {
    std::vector<int64_t> a(n);
    for (auto& v : a) v = static_cast<int64_t>(rng() % (4 * n));
    std::sort(a.begin(), a.end());
    std::vector<int64_t> queries(kQueries);
    for (auto& q : queries) q = static_cast<int64_t>(rng() % (4 * n + 2)) - 1;

    const double base_ns = TimeNsPerOp(opt.reps, kQueries, [&] {
      uint64_t acc = 0;
      for (int64_t q : queries) {
        acc += std::lower_bound(a.begin(), a.end(), q) - a.begin();
      }
      g_sink += acc;
    });
    rows->push_back({"lower_bound_i64", n, "baseline", base_ns, 1.0});
    for (Tier t : AvailableTiers()) {
      kernels::ForceTier(t);
      const double ns = TimeNsPerOp(opt.reps, kQueries, [&] {
        uint64_t acc = 0;
        for (int64_t q : queries) {
          acc += kernels::LowerBoundI64(a.data(), n, q);
        }
        g_sink += acc;
      });
      rows->push_back(
          {"lower_bound_i64", n, kernels::TierName(t), ns, base_ns / ns});
    }
    kernels::ResetTier();
  }
}

// ---- First-match family: kernels::FindFirstBelow vs the naive loop, over
// a plain int64 array (stride 8, the directory-probe shape).  Keys are
// arranged so the crossing lands in the last block: the page-scan case that
// dominates query time is "scan (almost) the whole page, then stop". ----
void BenchFindFirst(const Options& opt, std::vector<Row>* rows) {
  std::mt19937_64 rng(43);
  for (size_t n : kSizes) {
    std::vector<int64_t> a(n);
    for (auto& v : a) v = 1000 + static_cast<int64_t>(rng() % 1000);
    if (n > 0) a[n - 1] = 0;  // first (and only) key below the bound
    const int64_t bound = 500;

    const double base_ns = TimeNsPerOp(opt.reps, kQueries, [&] {
      uint64_t acc = 0;
      for (size_t rep = 0; rep < kQueries; ++rep) {
        size_t hit = n;
        for (size_t i = 0; i < n; ++i) {
          if (a[i] < bound) {
            hit = i;
            break;
          }
        }
        acc += hit;
      }
      g_sink += acc;
    });
    rows->push_back({"find_first_below", n, "baseline", base_ns, 1.0});
    for (Tier t : AvailableTiers()) {
      kernels::ForceTier(t);
      const double ns = TimeNsPerOp(opt.reps, kQueries, [&] {
        uint64_t acc = 0;
        for (size_t rep = 0; rep < kQueries; ++rep) {
          acc += kernels::FindFirstBelow(a.data(), sizeof(int64_t), n, bound);
        }
        g_sink += acc;
      });
      rows->push_back(
          {"find_first_below", n, kernels::TierName(t), ns, base_ns / ns});
    }
    kernels::ResetTier();
  }
}

// ---- 16-byte KV bounds: kernels::LowerBoundKV vs std::lower_bound with
// the lexicographic comparator (the B+-tree leaf-search shape). ----
struct KV {
  int64_t key;
  uint64_t value;
};

void BenchLowerBoundKV(const Options& opt, std::vector<Row>* rows) {
  std::mt19937_64 rng(44);
  for (size_t n : kSizes) {
    std::vector<KV> a(n);
    for (auto& r : a) {
      r.key = static_cast<int64_t>(rng() % (4 * n));
      r.value = rng() % 8;
    }
    std::sort(a.begin(), a.end(), [](const KV& x, const KV& y) {
      if (x.key != y.key) return x.key < y.key;
      return x.value < y.value;
    });
    std::vector<KV> queries(kQueries);
    for (auto& q : queries) {
      q.key = static_cast<int64_t>(rng() % (4 * n + 2)) - 1;
      q.value = rng() % 8;
    }

    const double base_ns = TimeNsPerOp(opt.reps, kQueries, [&] {
      uint64_t acc = 0;
      for (const KV& q : queries) {
        acc += std::lower_bound(a.begin(), a.end(), q,
                                [](const KV& x, const KV& y) {
                                  if (x.key != y.key) return x.key < y.key;
                                  return x.value < y.value;
                                }) -
               a.begin();
      }
      g_sink += acc;
    });
    rows->push_back({"lower_bound_kv", n, "baseline", base_ns, 1.0});
    for (Tier t : AvailableTiers()) {
      kernels::ForceTier(t);
      const double ns = TimeNsPerOp(opt.reps, kQueries, [&] {
        uint64_t acc = 0;
        for (const KV& q : queries) {
          acc += kernels::LowerBoundKV(a.data(), n, q.key, q.value);
        }
        g_sink += acc;
      });
      rows->push_back(
          {"lower_bound_kv", n, kernels::TierName(t), ns, base_ns / ns});
    }
    kernels::ResetTier();
  }
}

struct CrcResult {
  bool hw_active = false;
  double sw_gbps = 0.0;
  double hw_gbps = 0.0;
};

// ---- CRC32C: slice-by-8 software vs the CRC instruction, 4 KiB pages ----
CrcResult BenchCrc(const Options& opt) {
  CrcResult res;
  res.hw_active = kernels::HwCrc32cActive();
  std::vector<unsigned char> page(4096);
  std::mt19937_64 rng(45);
  for (auto& b : page) b = static_cast<unsigned char>(rng());
  auto gbps = [&](double ns_per_page) {
    return page.size() / ns_per_page;  // bytes/ns == GB/s
  };
  kernels::ForceTier(Tier::kScalar);  // HwCrc32cActive() false -> slice-by-8
  res.sw_gbps = gbps(TimeNsPerOp(opt.reps / 4 + 1, 1, [&] {
    g_sink += Crc32c(page.data(), page.size());
  }));
  kernels::ResetTier();
  if (res.hw_active) {
    res.hw_gbps = gbps(TimeNsPerOp(opt.reps / 4 + 1, 1, [&] {
      g_sink += Crc32c(page.data(), page.size());
    }));
  }
  return res;
}

// The gate: at directory-typical sizes (n in [min_n, 512]), the best
// vectorized tier must beat the replaced loop by `need`.  Best-over-sizes
// because each family has a sweet spot — bounds win biggest where the
// vectorized count covers the whole array (tail-key directories hold tens
// of keys), scans win biggest where most of a page is scanned.
bool CheckSpeedup(const std::vector<Row>& rows, double need,
                  const char* kernel, size_t min_n) {
  double best = 0.0;
  for (const Row& r : rows) {
    if (std::strcmp(r.kernel, kernel) != 0) continue;
    if (r.n < min_n) continue;
    if (std::strcmp(r.tier, "baseline") == 0 ||
        std::strcmp(r.tier, "scalar") == 0) {
      continue;  // only vectorized tiers count toward the gate
    }
    best = std::max(best, r.speedup);
  }
  std::printf("gate %-18s best vectorized speedup at n>=%zu: %.2fx "
              "(need %.2fx)\n",
              kernel, min_n, best, need);
  return best >= need;
}

void WriteJson(const Options& opt, const std::vector<Row>& rows,
               const CrcResult& crc) {
  std::FILE* f = std::fopen(opt.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FATAL cannot open %s for writing\n",
                 opt.json_path.c_str());
    std::abort();
  }
  JsonWriter w(f);
  w.BeginObject();
  w.Key("bench").Str("bench_kernels");
  w.Key("detected_tier").Str(kernels::TierName(kernels::DetectedTier()));
  w.Key("rows").BeginArray();
  for (const Row& r : rows) {
    w.BeginObject();
    w.Key("kernel").Str(r.kernel);
    w.Key("n").Uint(r.n);
    w.Key("tier").Str(r.tier);
    w.Key("ns_per_op").Double(r.ns_per_op);
    w.Key("speedup_vs_baseline").Double(r.speedup);
    w.EndObject();
  }
  w.EndArray();
  w.Key("crc32c").BeginObject();
  w.Key("hw_active").Bool(crc.hw_active);
  w.Key("sw_gbps").Double(crc.sw_gbps);
  if (crc.hw_active) w.Key("hw_gbps").Double(crc.hw_gbps);
  w.EndObject();
  w.EndObject();
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("wrote %s\n", opt.json_path.c_str());
}

int Main(int argc, char** argv) {
  const Options opt = ParseArgs(argc, argv);
  std::printf("detected tier: %s\n",
              kernels::TierName(kernels::DetectedTier()));

  std::vector<Row> rows;
  BenchLowerBound(opt, &rows);
  BenchLowerBoundKV(opt, &rows);
  BenchFindFirst(opt, &rows);

  for (const Row& r : rows) {
    std::printf("%-18s n=%4zu  %-8s  %7.2f ns/op  %5.2fx\n", r.kernel, r.n,
                r.tier, r.ns_per_op, r.speedup);
  }

  const CrcResult crc = BenchCrc(opt);
  std::printf("crc32c 4KiB: software %.2f GB/s", crc.sw_gbps);
  if (crc.hw_active) {
    std::printf("  hardware %.2f GB/s  (%.2fx)", crc.hw_gbps,
                crc.hw_gbps / crc.sw_gbps);
  }
  std::printf("\n");

  // The scalar fallback must always be in the measurement set — if dispatch
  // ever stopped offering it, the portable path would go untested.
  bool scalar_measured = false;
  for (const Row& r : rows) {
    if (std::strcmp(r.tier, "scalar") == 0) scalar_measured = true;
  }
  if (!scalar_measured) {
    std::fprintf(stderr, "FATAL scalar fallback tier was never measured\n");
    return 1;
  }

  if (!opt.json_path.empty()) WriteJson(opt, rows, crc);

  if (opt.check_speedup > 0.0) {
    if (kernels::DetectedTier() == Tier::kScalar) {
      // No vector unit: nothing to gate; correctness is the tests' job.
      std::printf("no vectorized tier on this CPU; speedup gate skipped\n");
      return 0;
    }
    const bool ok_bound =
        CheckSpeedup(rows, opt.check_speedup, "lower_bound_i64", 16);
    const bool ok_scan =
        CheckSpeedup(rows, opt.check_speedup, "find_first_below", 32);
    if (!ok_bound || !ok_scan) {
      std::fprintf(stderr, "FATAL kernel speedup gate failed\n");
      return 1;
    }
    std::printf("speedup gate passed\n");
  }
  return 0;
}

}  // namespace
}  // namespace pathcache

int main(int argc, char** argv) { return pathcache::Main(argc, argv); }
