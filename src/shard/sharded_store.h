// ShardedStore: N independent single-shard serving stacks behind one
// key-range partition.
//
// Each shard owns its whole device stack — a page device (an in-memory
// device by default, or an injected one so tests can put a FaultPageDevice
// under exactly one shard), a SharedBufferPool holding that shard's slice
// of the total buffer budget (pool_pages_total / N pages; the
// cache-adaptivity knob from the dynamic-optimality discussion in
// PAPERS.md), and a QueryEngine with its own workers and bounded queue.
// Nothing is shared between shards, so a fault, a slow device, or a full
// queue on one shard cannot touch another — the isolation ShardRouter's
// partial-failure semantics are built on.
//
// Records partition by their x key (points) or replicate across every
// intersecting shard (intervals): a stab key lives in exactly one shard, so
// stabbing queries route to one engine and merged results never need
// deduplication.  Structure ids are aligned across shards — Add* returns
// one id valid on every shard; StructureInfo maps it to the per-shard
// engine ids (-1 where the shard's slice of the data was empty).
//
// Setup-phase object: Add* / SetTenantQuota / Start single-threaded, then
// the engines serve concurrently until Stop.

#ifndef PATHCACHE_SHARD_SHARDED_STORE_H_
#define PATHCACHE_SHARD_SHARDED_STORE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "io/mem_page_device.h"
#include "io/page_device.h"
#include "io/shared_buffer_pool.h"
#include "serve/query_engine.h"
#include "shard/shard_map.h"
#include "util/geometry.h"
#include "util/status.h"

namespace pathcache {

struct ShardedStoreOptions {
  uint32_t shards = 4;
  /// Total buffer-pool pages, split evenly across shards (each shard's pool
  /// gets pool_pages_total / shards).  0 makes every pool a pass-through.
  size_t pool_pages_total = 1024;
  /// Per-shard QueryEngine sizing.
  uint32_t engine_workers = 2;
  size_t queue_capacity = 256;
  uint32_t batch_size = 8;
  /// Deadline clock shared by every shard engine; nullptr = SystemClock.
  Clock* clock = nullptr;
  /// Explicit partition cuts (strictly ascending, at most shards-1 of them;
  /// shards past the last cut stay empty).  Empty derives equal-count cuts
  /// from the first Add*'s keys.
  std::vector<int64_t> cuts;
  /// Per-shard devices, not owned (size must equal `shards`); tests use
  /// them to slide a FaultPageDevice under a single shard.  Empty = the
  /// store owns one MemPageDevice per shard.
  std::vector<PageDevice*> devices;
};

class ShardedStore {
 public:
  /// Structure-id alignment across shards: `engine_id[k]` is the id this
  /// structure got on shard k's engine, or -1 when shard k holds none of
  /// its records (the router skips those shards; they contribute nothing).
  struct StructureInfo {
    QueryKind kind = QueryKind::kTwoSided;
    std::vector<int32_t> engine_id;
  };

  /// Contradictory options (devices.size() != shards, more than shards-1
  /// cuts, cuts not strictly ascending) make Add* and Start() fail.
  explicit ShardedStore(ShardedStoreOptions opts = {});

  ShardedStore(const ShardedStore&) = delete;
  ShardedStore& operator=(const ShardedStore&) = delete;
  ~ShardedStore();

  /// Partition `pts` by x and build + register an ExternalPst per non-empty
  /// shard.  The first Add* fixes the shard map (from these keys unless
  /// options gave explicit cuts).  Returns the cross-shard structure id.
  Result<uint32_t> AddTwoSided(std::span<const Point> pts);

  /// Same partitioning, ThreeSidedPst per shard.
  Result<uint32_t> AddThreeSided(std::span<const Point> pts);

  /// Replicate each interval into every shard whose key range it intersects
  /// and build an ExtSegmentTree per non-empty shard.  A stab key belongs
  /// to exactly one shard, so replication never produces duplicate results.
  Result<uint32_t> AddStabbing(std::span<const Interval> ivs);

  /// Applies the quota on every shard engine (each shard admits the tenant
  /// against its own queue).  Setup-phase only.
  Status SetTenantQuota(uint32_t tenant, uint64_t tokens);

  /// Starts every shard engine.
  Status Start();

  /// Stops every shard engine.  Idempotent.
  void Stop();

  const ShardMap& map() const { return map_; }
  uint32_t shards() const { return opts_.shards; }
  size_t num_structures() const { return infos_.size(); }
  const StructureInfo& info(uint32_t id) const { return infos_[id]; }

  QueryEngine* engine(uint32_t shard) { return engines_[shard].get(); }
  SharedBufferPool* pool(uint32_t shard) { return pools_[shard].get(); }
  PageDevice* device(uint32_t shard) { return devices_[shard]; }
  Clock* clock() const { return clock_; }

 private:
  /// Fixes the shard map on first use: explicit cuts win, otherwise
  /// equal-count cuts over `keys`.
  void EnsureMap(std::vector<int64_t> keys);
  template <typename Structure, typename Record>
  Result<uint32_t> AddPartitioned(QueryKind kind,
                                  std::vector<std::vector<Record>> parts);
  template <typename Structure>
  Result<uint32_t> AddPoints(QueryKind kind, std::span<const Point> pts);

  ShardedStoreOptions opts_;
  Status config_;  // non-OK when the options contradict each other
  Clock* clock_;
  ShardMap map_;
  bool map_fixed_ = false;

  std::vector<std::unique_ptr<MemPageDevice>> owned_devices_;
  std::vector<PageDevice*> devices_;  // size shards(); owned or injected
  std::vector<std::unique_ptr<SharedBufferPool>> pools_;
  std::vector<std::unique_ptr<QueryEngine>> engines_;
  std::vector<StructureInfo> infos_;
};

}  // namespace pathcache

#endif  // PATHCACHE_SHARD_SHARDED_STORE_H_
