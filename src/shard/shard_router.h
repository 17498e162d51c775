// ShardRouter: scatter-gather QueryService over a ShardedStore.
//
// Routing uses the store's contiguous key-range map, so a query touches the
// minimum set of shards its predicate can intersect:
//
//   stabbing      -> exactly ShardOf(stab)
//   two-sided     -> Overlapping(x_min, INT64_MAX)   (open above in x)
//   three-sided   -> Overlapping(x_min, x_max)
//
// Shards whose slice of the structure is empty (engine_id -1) are skipped
// outright.  Each routed sub-query runs on its shard's own engine with a
// per-shard deadline — the tighter of the caller's absolute deadline and
// now + per_shard_budget_micros — so one slow or faulted shard can neither
// hang the merged request nor silently shorten its answer: the shard's
// typed Status lands in QueryResult::shards[k] while the healthy shards'
// records still merge.  The merged status is OK only when every slice is
// OK; otherwise it mirrors the first failing slice ("shard K: ..."),
// keeping the code so the wire layer's overload/deadline mapping still
// applies.
//
// Record order: a merged answer is the shards' answers, each in its
// engine's (unspecified) order, concatenated in shard order, and
// QueryResult::shards is ordered by shard index.  Nothing is sorted; a
// one-shard query (every stab) gets its engine's records moved, not copied.
//
// Thread-safety: Submit may be called from any thread after the store
// Start()s; completion runs on whichever shard engine finishes last.

#ifndef PATHCACHE_SHARD_SHARD_ROUTER_H_
#define PATHCACHE_SHARD_SHARD_ROUTER_H_

#include <cstdint>
#include <span>

#include "serve/query_service.h"
#include "shard/sharded_store.h"
#include "util/status.h"

namespace pathcache {

struct ShardRouterOptions {
  /// Per-shard time budget in microseconds, applied as an absolute deadline
  /// of now + budget on each routed sub-query (tightened further by the
  /// caller's own deadline if that comes sooner).  0 = no router-imposed
  /// budget.
  uint64_t per_shard_budget_micros = 0;
};

class ShardRouter final : public QueryService {
 public:
  explicit ShardRouter(ShardedStore* store, ShardRouterOptions opts = {})
      : store_(store), opts_(opts) {}

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Scatters to the shards the query can intersect and gathers one merged
  /// QueryResult with a per-shard ShardSlice breakdown.  When no shard
  /// holds intersecting records, `done` fires inline with an empty OK
  /// result.  Synchronous per-shard rejections (e.g. a full queue) become
  /// failed slices, never a lost callback.
  Status Submit(uint32_t structure_id, const ServeQuery& query,
                QueryDoneCallback done, uint64_t deadline_micros = 0,
                uint32_t tenant = 0) override;

  /// Routed updates are not supported yet (dynamic structures are
  /// registered per-engine); returns kNotSupported.
  Status SubmitUpdate(uint32_t structure_id,
                      std::span<const DynamicUpdate> updates,
                      QueryDoneCallback done, uint64_t deadline_micros = 0,
                      uint32_t tenant = 0) override;

  size_t num_structures() const override { return store_->num_structures(); }
  QueryKind structure_kind(uint32_t id) const override {
    return store_->info(id).kind;
  }
  bool structure_dynamic(uint32_t) const override { return false; }
  Clock* clock() const override { return store_->clock(); }

 private:
  ShardedStore* store_;
  ShardRouterOptions opts_;
};

}  // namespace pathcache

#endif  // PATHCACHE_SHARD_SHARD_ROUTER_H_
