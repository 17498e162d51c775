// The serving-surface contract shared by QueryEngine and ShardRouter.
//
// The query/result vocabulary used to live in query_engine.h; it moved here
// so the network front-end can serve any QueryService — a single engine or a
// scatter-gather router over many sharded engines — without caring which.
// QueryService is deliberately tiny: submit a query or an update group
// against a registered structure, learn the structure topology, and share a
// deadline clock.  Everything engine-specific (worker counts, queue
// capacities, tenant quotas) stays on the concrete types.

#ifndef PATHCACHE_SERVE_QUERY_SERVICE_H_
#define PATHCACHE_SERVE_QUERY_SERVICE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/query_stats.h"
#include "dynamic/update.h"
#include "io/io_types.h"
#include "serve/clock.h"
#include "util/geometry.h"
#include "util/status.h"

namespace pathcache {

/// Which query family a registered structure answers.
enum class QueryKind : uint8_t {
  kTwoSided,    // ExternalPst / TwoLevelPst: x >= x_min && y >= y_min
  kThreeSided,  // ThreeSidedPst: x in [x_min, x_max] && y >= y_min
  kStabbing,    // ExtSegmentTree / ExtIntervalTree: intervals containing q
};

/// A query addressed to one registered structure.  Only the member matching
/// the structure's kind is read.
struct ServeQuery {
  TwoSidedQuery two_sided;
  ThreeSidedQuery three_sided;
  int64_t stab = 0;

  static ServeQuery TwoSided(TwoSidedQuery q) {
    ServeQuery s;
    s.two_sided = q;
    return s;
  }
  static ServeQuery ThreeSided(ThreeSidedQuery q) {
    ServeQuery s;
    s.three_sided = q;
    return s;
  }
  static ServeQuery Stab(int64_t q) {
    ServeQuery s;
    s.stab = q;
    return s;
  }
};

/// Per-shard outcome of a scatter-gather query.  Filled only by ShardRouter;
/// a single engine leaves QueryResult::shards empty.  A faulted or expired
/// shard carries its typed status here while the merged result keeps the
/// healthy shards' records — the caller decides whether a partial answer is
/// acceptable.
struct ShardSlice {
  uint32_t shard = 0;
  Status status = Status::OK();
  /// This shard's isolated page I/O for the request.
  IoStats io;
  uint64_t latency_micros = 0;
};

/// Outcome of one request, delivered to its completion callback on a worker
/// thread.  Exactly one of `points` / `intervals` is populated on success,
/// by the structure's kind; record order is unspecified (a router returns
/// its shards' answers concatenated in shard order).
struct QueryResult {
  Status status = Status::OK();
  std::vector<Point> points;
  std::vector<Interval> intervals;
  /// Pages this request read, isolated per-request via the worker's private
  /// counting device.  Zero for rejected/expired requests (no I/O issued).
  /// For a routed query this is the sum over `shards`.
  IoStats io;
  /// The structure's own per-query accounting (role + useful/wasteful
  /// breakdown); `stats.total_reads()` matches `io` block reads by
  /// construction, and serve_test asserts it byte-for-byte.
  QueryStats stats;
  /// Submit-to-completion time on the engine's clock.
  uint64_t latency_micros = 0;
  /// Scatter-gather breakdown, one entry per shard the query touched (empty
  /// when served by a single engine).  Ordered by shard index.
  std::vector<ShardSlice> shards;
};

using QueryDoneCallback = std::function<void(QueryResult)>;

/// Abstract serving surface.  NetServer talks to this, so a sharded router
/// and a plain engine are interchangeable behind the wire protocol.
///
/// Thread-safety contract: Submit/SubmitUpdate may be called from any thread
/// once the implementation is started; the topology accessors are
/// setup-phase-constant and safe concurrently with submissions.
class QueryService {
 public:
  virtual ~QueryService() = default;

  /// Enqueues a query; `done` fires exactly once on some worker thread
  /// unless the call returns non-OK (then never).  `deadline_micros` is
  /// absolute on clock(); 0 means none.  `tenant` selects an admission
  /// quota when the implementation has one configured (0 = default tenant).
  virtual Status Submit(uint32_t structure_id, const ServeQuery& query,
                        QueryDoneCallback done, uint64_t deadline_micros = 0,
                        uint32_t tenant = 0) = 0;

  /// Enqueues one durable update group; same callback and admission
  /// contract as Submit.  Implementations without updatable structures
  /// return kInvalidArgument / kNotSupported.
  virtual Status SubmitUpdate(uint32_t structure_id,
                              std::span<const DynamicUpdate> updates,
                              QueryDoneCallback done,
                              uint64_t deadline_micros = 0,
                              uint32_t tenant = 0) = 0;

  virtual size_t num_structures() const = 0;
  virtual QueryKind structure_kind(uint32_t id) const = 0;
  virtual bool structure_dynamic(uint32_t id) const = 0;
  /// The deadline clock.  The net front-end uses it to turn relative wire
  /// budgets into absolute deadlines.
  virtual Clock* clock() const = 0;
};

}  // namespace pathcache

#endif  // PATHCACHE_SERVE_QUERY_SERVICE_H_
