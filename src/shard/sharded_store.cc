#include "shard/sharded_store.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "core/ext_segment_tree.h"
#include "core/pst_external.h"
#include "core/three_sided.h"

namespace pathcache {

ShardedStore::ShardedStore(ShardedStoreOptions opts)
    : opts_(std::move(opts)),
      clock_(opts_.clock != nullptr ? opts_.clock : SystemClock::Default()) {
  if (opts_.shards == 0) opts_.shards = 1;
  const std::vector<int64_t>& cuts = opts_.cuts;
  if (!opts_.devices.empty() && opts_.devices.size() != opts_.shards) {
    config_ = Status::InvalidArgument("devices.size() must equal shards");
  } else if (cuts.size() >= opts_.shards ||
             std::adjacent_find(cuts.begin(), cuts.end(),
                                std::greater_equal<>()) != cuts.end()) {
    config_ = Status::InvalidArgument(
        "cuts must be at most shards-1 strictly ascending keys");
  }
  if (!opts_.cuts.empty()) {
    map_ = ShardMap(opts_.cuts);
    map_fixed_ = true;
  }
  // A rejected configuration still gets one stack per shard, so every
  // accessor stays in range; Add* and Start refuse to use them.
  devices_.resize(opts_.shards, nullptr);
  if (opts_.devices.size() == opts_.shards) {
    for (uint32_t k = 0; k < opts_.shards; ++k) devices_[k] = opts_.devices[k];
  } else {
    for (uint32_t k = 0; k < opts_.shards; ++k) {
      owned_devices_.push_back(std::make_unique<MemPageDevice>());
      devices_[k] = owned_devices_.back().get();
    }
  }
  const size_t per_shard_pool = opts_.pool_pages_total / opts_.shards;
  QueryEngineOptions eopts;
  eopts.num_workers = opts_.engine_workers;
  eopts.queue_capacity = opts_.queue_capacity;
  eopts.batch_size = opts_.batch_size;
  eopts.clock = clock_;
  for (uint32_t k = 0; k < opts_.shards; ++k) {
    pools_.push_back(
        std::make_unique<SharedBufferPool>(devices_[k], per_shard_pool));
    engines_.push_back(std::make_unique<QueryEngine>(pools_.back().get(),
                                                     eopts));
  }
}

ShardedStore::~ShardedStore() { Stop(); }

void ShardedStore::EnsureMap(std::vector<int64_t> keys) {
  if (map_fixed_) return;
  map_ = ShardMap::FromKeys(std::move(keys), opts_.shards);
  map_fixed_ = true;
}

template <typename Structure, typename Record>
Result<uint32_t> ShardedStore::AddPartitioned(
    QueryKind kind, std::vector<std::vector<Record>> parts) {
  StructureInfo info;
  info.kind = kind;
  info.engine_id.assign(opts_.shards, -1);
  for (uint32_t k = 0; k < opts_.shards; ++k) {
    if (parts[k].empty()) continue;
    Structure s(pools_[k].get());
    PC_RETURN_IF_ERROR(s.Build(std::move(parts[k])));
    PC_ASSIGN_OR_RETURN(PageId manifest, s.Save());
    PC_ASSIGN_OR_RETURN(uint32_t id, engines_[k]->AddStructure(manifest));
    info.engine_id[k] = static_cast<int32_t>(id);
  }
  infos_.push_back(std::move(info));
  return static_cast<uint32_t>(infos_.size() - 1);
}

template <typename Structure>
Result<uint32_t> ShardedStore::AddPoints(QueryKind kind,
                                         std::span<const Point> pts) {
  PC_RETURN_IF_ERROR(config_);
  std::vector<int64_t> keys;
  keys.reserve(pts.size());
  for (const Point& p : pts) keys.push_back(p.x);
  EnsureMap(std::move(keys));
  std::vector<std::vector<Point>> parts(opts_.shards);
  for (const Point& p : pts) parts[map_.ShardOf(p.x)].push_back(p);
  return AddPartitioned<Structure>(kind, std::move(parts));
}

Result<uint32_t> ShardedStore::AddTwoSided(std::span<const Point> pts) {
  return AddPoints<ExternalPst>(QueryKind::kTwoSided, pts);
}

Result<uint32_t> ShardedStore::AddThreeSided(std::span<const Point> pts) {
  return AddPoints<ThreeSidedPst>(QueryKind::kThreeSided, pts);
}

Result<uint32_t> ShardedStore::AddStabbing(std::span<const Interval> ivs) {
  PC_RETURN_IF_ERROR(config_);
  std::vector<int64_t> keys;
  keys.reserve(ivs.size());
  for (const Interval& iv : ivs) keys.push_back(iv.lo);
  EnsureMap(std::move(keys));
  std::vector<std::vector<Interval>> parts(opts_.shards);
  for (const Interval& iv : ivs) {
    const auto [first, last] = map_.Overlapping(iv.lo, iv.hi);
    for (uint32_t k = first; k <= last; ++k) parts[k].push_back(iv);
  }
  return AddPartitioned<ExtSegmentTree>(QueryKind::kStabbing,
                                        std::move(parts));
}

Status ShardedStore::SetTenantQuota(uint32_t tenant, uint64_t tokens) {
  for (auto& e : engines_) {
    PC_RETURN_IF_ERROR(e->SetTenantQuota(tenant, tokens));
  }
  return Status::OK();
}

Status ShardedStore::Start() {
  PC_RETURN_IF_ERROR(config_);
  for (auto& e : engines_) {
    PC_RETURN_IF_ERROR(e->Start());
  }
  return Status::OK();
}

void ShardedStore::Stop() {
  for (auto& e : engines_) e->Stop();
}

}  // namespace pathcache
