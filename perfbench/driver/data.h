// Seeded inputs for the workloads: record sets on a coordinate grid that
// leaves room for per-request tags, candidate queries with oracle-checked
// output sizes, and the I/O-bound bookkeeping of the paper's theorem.
#ifndef PERFBENCH_DRIVER_DATA_H_
#define PERFBENCH_DRIVER_DATA_H_

#include <cstdint>
#include <vector>

#include "bench_util.h"
#include "core/ext_segment_tree.h"
#include "core/pst_external.h"
#include "core/three_sided.h"
#include "util/random.h"

namespace perfbench {

/// Every generated coordinate and interval endpoint is a multiple of this.
/// A query bound moved by less than one grid step selects exactly the same
/// records, so those low bits carry a per-request tag that lets the trace
/// join a client's request to the service span it caused.
inline constexpr int64_t kGrid = 1024;

/// Records per page for 24-byte records: the paper's B.
inline uint64_t RecordsPerPage(uint32_t page_size) { return page_size / 24; }

/// n uniform points with pairwise-distinct x and y, on the grid, ids 0..n-1.
std::vector<Point> GridPoints(uint64_t n, uint64_t seed);

/// n uniform intervals with distinct endpoints on the grid; mean length is
/// `mean_len_frac` of the domain.
std::vector<Interval> GridIntervals(uint64_t n, double mean_len_frac,
                                    uint64_t seed);

/// One candidate query and the digest of its brute-force answer.
struct Candidate {
  QueryKind kind = QueryKind::kTwoSided;
  ServeQuery q;
  Fingerprint expect;
};

/// Candidates whose oracle answer size lies in [t_lo, t_hi].  Answers are
/// computed with workload/oracle.h brute force.
std::vector<Candidate> TwoSidedCandidates(const std::vector<Point>& pts,
                                          size_t count, uint64_t t_lo,
                                          uint64_t t_hi, Rng* rng);
/// The x-slab holds between t and `max_slab_over_t` * t points, so a small
/// factor makes candidates read mostly disjoint pages.
std::vector<Candidate> ThreeSidedCandidates(const std::vector<Point>& pts,
                                            size_t count, uint64_t t_lo,
                                            uint64_t t_hi,
                                            double max_slab_over_t, Rng* rng);
std::vector<Candidate> StabCandidates(const std::vector<Interval>& ivs,
                                      size_t count, uint64_t t_lo,
                                      uint64_t t_hi, Rng* rng);

/// One request of a seeded stream: which kind (index into the per-kind
/// candidate pools) and which candidate.
struct Draw {
  uint8_t kind;
  uint32_t cand;
};

/// `count` requests: 40% 2-sided, 30% 3-sided, 30% stab; within a kind,
/// candidate rank r is drawn with probability proportional to
/// 1/(r+1)^theta.
std::vector<Draw> MakeStream(const std::vector<Candidate> cands[3],
                             size_t count, double theta, uint64_t seed);

/// `q` with request `i`'s tag folded into the bits its answer ignores.
ServeQuery Tagged(QueryKind kind, const ServeQuery& q, uint64_t i);

/// reads / (ceil(log_B n) + ceil(t / B)), the paper's bound with constant 1.
/// A query answered by `parts` shards pays one descent and one partial
/// output block per part.
struct BoundTracker {
  double max = 0;
  double sum = 0;
  uint64_t count = 0;
  void Add(uint64_t reads, uint64_t n, uint64_t t, uint64_t b,
           uint64_t parts = 1);
  double mean() const { return count == 0 ? 0 : sum / double(count); }
};

/// One handle per static structure kind, opened from saved manifests
/// (indexed by QueryKind), for the direct passes that bypass serving.
struct StaticHandles {
  std::unique_ptr<ExternalPst> two;
  std::unique_ptr<ThreeSidedPst> three;
  std::unique_ptr<ExtSegmentTree> stab;
  uint64_t records_per_page = 0;

  Status Open(PageDevice* dev, const PageId manifests[3]);
  uint64_t size(QueryKind kind) const;
  /// Runs one query.  While tracing, the call is a "core:<kind>" span for
  /// request `req` whose args carry the QueryStats role breakdown, the
  /// answer size and the inputs of the I/O bound.
  Status Run(QueryKind kind, const ServeQuery& q, uint64_t req,
             Fingerprint* got, QueryStats* stats) const;
};

const char* KindName(QueryKind kind);

/// Attaches a structure query's accounting to its "core:<kind>" span: the
/// QueryStats role breakdown, the answer size and the bound's n and B.
void AddQueryArgs(SpanScope* span, const QueryStats& stats, uint64_t records,
                  uint64_t n, uint64_t b);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_DATA_H_
