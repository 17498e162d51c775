// Named input distributions for the parameterised sweeps.
//
// gtest names a parameterised case by a byte dump of its case struct, and
// that name is the CTest test name.  A `const char*` name would put a
// string's address in the dump, which differs from build to build; a Dist
// is the same bytes on every build.

#ifndef PATHCACHE_TESTS_SWEEP_DIST_H_
#define PATHCACHE_TESTS_SWEEP_DIST_H_

#include <cstdint>

namespace pathcache {

// 64 bits wide so it leaves no padding in the case structs that hold it.
enum class Dist : uint64_t {
  kUniform,
  kClustered,
  kDiagonal,
  kAnti,
  kNested,
  kBursty,
};

inline const char* DistName(Dist d) {
  switch (d) {
    case Dist::kUniform:
      return "uniform";
    case Dist::kClustered:
      return "clustered";
    case Dist::kDiagonal:
      return "diagonal";
    case Dist::kAnti:
      return "anti";
    case Dist::kNested:
      return "nested";
    case Dist::kBursty:
      return "bursty";
  }
  return "?";
}

}  // namespace pathcache

#endif  // PATHCACHE_TESTS_SWEEP_DIST_H_
