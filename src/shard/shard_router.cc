#include "shard/shard_router.h"

#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace pathcache {
namespace {

/// The OK slots' `records`, concatenated in slot order with one reserve, or
/// moved out whole when a single slot holds them all.  Each slot's records
/// are freed once appended.
template <typename T>
std::vector<T> Concat(std::vector<QueryResult>& slots,
                      std::vector<T> QueryResult::*records) {
  size_t total = 0;
  std::vector<T>* only = nullptr;
  for (QueryResult& s : slots) {
    if (!s.status.ok() || (s.*records).empty()) continue;
    only = total == 0 ? &(s.*records) : nullptr;
    total += (s.*records).size();
  }
  if (only != nullptr) return std::move(*only);
  std::vector<T> out;
  out.reserve(total);
  for (QueryResult& s : slots) {
    if (s.status.ok()) {
      out.insert(out.end(), (s.*records).begin(), (s.*records).end());
    }
    std::vector<T>().swap(s.*records);
  }
  return out;
}

/// Gather state shared by the sub-queries of one routed request.  Slice i
/// lands in slots[i] (shard targets[i]); the last slice to land merges in
/// target order, outside the lock, and fires `done`, so a completion
/// callback can re-submit without deadlocking.
struct Gather {
  std::mutex mu;
  std::vector<QueryResult> slots;
  size_t pending = 0;
  std::vector<uint32_t> targets;
  QueryDoneCallback done;
  Clock* clock = nullptr;
  uint64_t start_micros = 0;
};

void CompleteSlice(const std::shared_ptr<Gather>& g, size_t slot,
                   QueryResult sub) {
  {
    std::lock_guard<std::mutex> lock(g->mu);
    g->slots[slot] = std::move(sub);
    if (--g->pending != 0) return;
  }
  // Every other slice has landed, so this thread owns `g` from here on.
  QueryResult merged;
  merged.shards.reserve(g->slots.size());
  for (size_t i = 0; i < g->slots.size(); ++i) {
    const QueryResult& s = g->slots[i];
    const uint32_t shard = g->targets[i];
    merged.shards.push_back(
        ShardSlice{shard, s.status, s.io, s.latency_micros});
    if (!s.status.ok()) {
      if (merged.status.ok()) {
        merged.status =
            s.status.WithPrefix("shard " + std::to_string(shard) + ": ");
      }
      continue;
    }
    merged.io += s.io;
    merged.stats += s.stats;
  }
  merged.points = Concat(g->slots, &QueryResult::points);
  merged.intervals = Concat(g->slots, &QueryResult::intervals);
  g->slots.clear();  // nothing but `merged` holds records while `done` runs
  merged.latency_micros = g->clock->NowMicros() - g->start_micros;
  g->done(std::move(merged));
}

}  // namespace

Status ShardRouter::Submit(uint32_t structure_id, const ServeQuery& query,
                           QueryDoneCallback done, uint64_t deadline_micros,
                           uint32_t tenant) {
  if (structure_id >= store_->num_structures()) {
    return Status::InvalidArgument("unknown structure id " +
                                   std::to_string(structure_id));
  }
  const ShardedStore::StructureInfo& info = store_->info(structure_id);
  const ShardMap& map = store_->map();

  uint32_t first = 0;
  uint32_t last = 0;
  switch (info.kind) {
    case QueryKind::kStabbing:
      first = last = map.ShardOf(query.stab);
      break;
    case QueryKind::kTwoSided:
      std::tie(first, last) = map.Overlapping(
          query.two_sided.x_min, std::numeric_limits<int64_t>::max());
      break;
    case QueryKind::kThreeSided:
      if (query.three_sided.x_min > query.three_sided.x_max) {
        first = 1;
        last = 0;  // empty range
        break;
      }
      std::tie(first, last) =
          map.Overlapping(query.three_sided.x_min, query.three_sided.x_max);
      break;
  }

  std::vector<uint32_t> targets;
  for (uint32_t k = first; k <= last && k < store_->shards(); ++k) {
    if (info.engine_id[k] >= 0) targets.push_back(k);
  }

  const uint64_t start = clock()->NowMicros();
  if (targets.empty()) {
    QueryResult empty;
    done(std::move(empty));
    return Status::OK();
  }

  uint64_t sub_deadline = deadline_micros;
  if (opts_.per_shard_budget_micros != 0) {
    const uint64_t budget_deadline = start + opts_.per_shard_budget_micros;
    if (sub_deadline == 0 || budget_deadline < sub_deadline) {
      sub_deadline = budget_deadline;
    }
  }

  auto g = std::make_shared<Gather>();
  g->slots.resize(targets.size());
  g->pending = targets.size();
  g->targets = std::move(targets);
  g->done = std::move(done);
  g->clock = clock();
  g->start_micros = start;

  for (size_t i = 0; i < g->targets.size(); ++i) {
    const uint32_t k = g->targets[i];
    const uint32_t engine_id = static_cast<uint32_t>(info.engine_id[k]);
    Status st = store_->engine(k)->Submit(
        engine_id, query,
        [g, i](QueryResult sub) { CompleteSlice(g, i, std::move(sub)); },
        sub_deadline, tenant);
    if (!st.ok()) {
      // A synchronous bounce (full queue, tenant quota) becomes a failed
      // slice so the gather always completes and the caller still gets the
      // healthy shards' answer.
      QueryResult bounced;
      bounced.status = std::move(st);
      CompleteSlice(g, i, std::move(bounced));
    }
  }
  return Status::OK();
}

Status ShardRouter::SubmitUpdate(uint32_t, std::span<const DynamicUpdate>,
                                 QueryDoneCallback, uint64_t, uint32_t) {
  return Status::NotSupported("routed updates are not supported");
}

}  // namespace pathcache
