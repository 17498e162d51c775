// Unified property-based differential harness: every external structure is
// exercised against its in-core brute-force oracle over randomly generated
// record sets and randomly sampled queries, all derived deterministically
// from a case seed.
//
// The harness replaces the per-structure ad-hoc "MatchesBruteForce" sweeps
// the test suite grew one copy at a time.  What it adds over them:
//
//  * One shrinking engine.  On a disagreement the harness does not just
//    fail — it delta-debugs the record set down to a locally minimal set
//    that still reproduces the disagreement (rebuilding the structure from
//    scratch per candidate, so shrink results are trustworthy), then prints
//    a self-contained reproducer: the case parameters, the seed, the
//    surviving records, and the failing query.
//  * One place to add query-distribution coverage for all four structures.
//
// A structure plugs in via an Adapter type:
//
//   struct MyAdapter {
//     using Record = ...;              // Point or Interval
//     using Query = ...;
//     static const char* Name();
//     struct Instance {                // a built structure on a fresh device
//       Instance(const std::vector<Record>&, const DiffCase&);
//       Status init;                   // Build() outcome
//       Status Query(const Query&, std::vector<Record>* out) const;
//     };
//     static std::vector<Record> GenRecords(const DiffCase&);
//     static Query Sample(const std::vector<Record>&, Rng*, const DiffCase&,
//                         int ordinal);
//     static std::vector<Query> BoundaryQueries();
//     static std::vector<Record> Oracle(const std::vector<Record>&,
//                                       const Query&);
//     static std::string FormatQuery(const Query&);
//   };

#ifndef PATHCACHE_TESTS_ORACLE_COMMON_H_
#define PATHCACHE_TESTS_ORACLE_COMMON_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <future>

#include "core/ext_segment_tree.h"
#include "core/pst_external.h"
#include "core/three_sided.h"
#include "dynamic/dynamic_store.h"
#include "dynamic/update.h"
#include "io/mem_page_device.h"
#include "io/shared_buffer_pool.h"
#include "net/wire.h"
#include "serve/query_engine.h"
#include "shard/shard_router.h"
#include "sweep_dist.h"
#include "util/geometry.h"
#include "util/random.h"
#include "util/status.h"
#include "workload/oracle.h"

namespace pathcache {
namespace difftest {

/// One differential case: everything about it (records and queries) derives
/// from these values, so quoting the case IS the reproducer.
struct DiffCase {
  uint64_t n = 0;
  uint64_t seed = 0;
  uint32_t page_size = 4096;
  uint32_t caching = true;  // a flag, 32 bits wide so the struct has no padding
  Dist dist = Dist::kUniform;
  double x_frac = 0.2;  // 3-sided query width fraction; ignored elsewhere
};

inline std::string FormatCase(const DiffCase& c) {
  std::ostringstream os;
  os << "DiffCase{.n=" << c.n << ", .seed=" << c.seed
     << ", .page_size=" << c.page_size
     << ", .caching=" << (c.caching ? "true" : "false") << ", .dist=\""
     << DistName(c.dist) << "\", .x_frac=" << c.x_frac << "}";
  return os.str();
}

inline std::string FormatRecord(const Point& p) {
  std::ostringstream os;
  os << "{" << p.x << ", " << p.y << ", " << p.id << "}";
  return os.str();
}

inline std::string FormatRecord(const Interval& iv) {
  std::ostringstream os;
  os << "{" << iv.lo << ", " << iv.hi << ", " << iv.id << "}";
  return os.str();
}

/// True iff a fresh instance built over `recs` disagrees with the oracle on
/// `q` (a Build or Query error also counts: the shrinker may legitimately
/// walk into one while minimizing, and an erroring input is just as much a
/// reproducer).
template <typename A>
bool Disagrees(const std::vector<typename A::Record>& recs,
               const typename A::Query& q, const DiffCase& c) {
  typename A::Instance inst(recs, c);
  if (!inst.init.ok()) return true;
  std::vector<typename A::Record> got;
  if (!inst.Query(q, &got).ok()) return true;
  return !SameResult(got, A::Oracle(recs, q));
}

/// ddmin-style minimizer: repeatedly tries deleting chunks of the record
/// set, keeping any deletion that still reproduces the disagreement, until
/// the set is 1-minimal (no single record can be removed) or the rebuild
/// budget runs out.  Each probe rebuilds the structure from scratch.
template <typename A>
std::vector<typename A::Record> ShrinkRecords(
    std::vector<typename A::Record> recs, const typename A::Query& q,
    const DiffCase& c, int max_probes = 600) {
  size_t chunks = 2;
  int probes = 0;
  while (recs.size() > 1 && chunks <= recs.size() && probes < max_probes) {
    const size_t chunk_len = (recs.size() + chunks - 1) / chunks;
    bool removed_any = false;
    for (size_t start = 0; start < recs.size() && probes < max_probes;
         start += chunk_len) {
      std::vector<typename A::Record> candidate;
      candidate.reserve(recs.size());
      for (size_t i = 0; i < recs.size(); ++i) {
        if (i < start || i >= start + chunk_len) candidate.push_back(recs[i]);
      }
      if (candidate.empty()) continue;
      ++probes;
      if (Disagrees<A>(candidate, q, c)) {
        recs = std::move(candidate);
        chunks = std::max<size_t>(2, chunks - 1);
        removed_any = true;
        break;  // restart the chunk scan on the smaller set
      }
    }
    if (!removed_any) {
      if (chunk_len == 1) break;  // 1-minimal
      chunks = std::min(recs.size(), chunks * 2);
    }
  }
  return recs;
}

/// Self-contained failure report: enough to paste into a regression test.
template <typename A>
std::string Reproducer(const std::vector<typename A::Record>& minimal,
                       const typename A::Query& q, const DiffCase& c) {
  std::ostringstream os;
  os << A::Name() << " disagrees with its oracle.\n"
     << "case: " << FormatCase(c) << "\n"
     << "query: " << A::FormatQuery(q) << "\n"
     << "shrunk to " << minimal.size() << " record(s):\n";
  const size_t show = std::min<size_t>(minimal.size(), 64);
  for (size_t i = 0; i < show; ++i) {
    os << "  " << FormatRecord(minimal[i]) << ",\n";
  }
  if (show < minimal.size()) {
    os << "  ... (" << (minimal.size() - show) << " more)\n";
  }
  {
    typename A::Instance inst(minimal, c);
    if (!inst.init.ok()) {
      os << "Build on the shrunk set: " << inst.init.ToString() << "\n";
    } else {
      std::vector<typename A::Record> got;
      Status s = inst.Query(q, &got);
      if (!s.ok()) {
        os << "Query on the shrunk set: " << s.ToString() << "\n";
      } else {
        auto want = A::Oracle(minimal, q);
        os << "structure returned " << got.size() << " record(s), oracle "
           << want.size() << "\n";
      }
    }
  }
  return os.str();
}

/// The harness entry point: builds the structure once over the generated
/// records, then replays `num_queries` sampled queries plus the adapter's
/// fixed boundary queries against the oracle.  The first disagreement is
/// shrunk and reported; the test fails with the reproducer.
template <typename A>
void RunDifferential(const DiffCase& c, int num_queries) {
  const std::vector<typename A::Record> recs = A::GenRecords(c);
  typename A::Instance inst(recs, c);
  ASSERT_TRUE(inst.init.ok()) << A::Name() << " Build: "
                              << inst.init.ToString() << "\n"
                              << FormatCase(c);

  std::vector<typename A::Query> queries = A::BoundaryQueries();
  Rng rng(c.seed ^ 0x5EEDF00DULL);
  for (int i = 0; i < num_queries; ++i) {
    queries.push_back(A::Sample(recs, &rng, c, i));
  }

  for (const auto& q : queries) {
    std::vector<typename A::Record> got;
    Status s = inst.Query(q, &got);
    const bool ok = s.ok() && SameResult(got, A::Oracle(recs, q));
    if (ok) continue;
    auto minimal = ShrinkRecords<A>(recs, q, c);
    FAIL() << Reproducer<A>(minimal, q, c)
           << (s.ok() ? "" : "first failure status: " + s.ToString());
  }
}

// --- Interleaved update/query/rebuild schedules (dynamic stores) -----------
//
// The static harness above checks one built structure against its oracle.
// Dynamic stores need schedules: a deterministic interleaving of durable
// updates (insert/delete), merged queries and rebuild/publish steps, checked
// step by step against a plain set model — the "rebuilt from scratch after
// every mutation" semantics the delta merge claims to be identical to.  On a
// disagreement the ddmin shrinker minimizes the SCHEDULE (any subsequence of
// steps is itself a valid schedule), replaying each candidate on a fresh
// store, and prints every surviving step as a reproducer.
//
// A dynamic structure plugs in via a DynAdapter type:
//
//   struct MyDynAdapter {
//     using Record = ...;              // Point or Interval
//     using Query = ...;
//     static const char* Name();
//     static DynamicStructure Kind();
//     static Record ToRecord(const DynamicItem&);
//     static DynamicItem MakeItem(Rng*, const DynCase&);   // random record
//     static Query SampleQuery(Rng*, const DynCase&);
//     static Status RunQuery(DynamicStore*, const Query&,
//                            std::vector<Record>*);
//     static std::vector<Record> Oracle(const std::vector<Record>&,
//                                       const Query&);
//     static std::string FormatQuery(const Query&);
//   };

namespace dyntest {

/// One schedule case: steps, queries and records all derive from these
/// values, so quoting the case IS the reproducer.
struct DynCase {
  uint64_t steps = 0;
  uint64_t seed = 0;
  uint32_t page_size = 1024;
  /// Small coordinate domain and id space on purpose: collisions make
  /// deletes hit live records and re-inserts exercise the override rules.
  int64_t coord_max = 1000;
  uint64_t id_max = 256;
  double p_insert = 0.45;
  double p_delete = 0.25;
  double p_query = 0.25;  // remainder: explicit Rebuild() steps
  /// Forwarded to DynamicStoreOptions (0 = only explicit rebuild steps).
  uint64_t rebuild_threshold = 0;
};

inline std::string FormatDynCase(const DynCase& c) {
  std::ostringstream os;
  os << "DynCase{.steps=" << c.steps << ", .seed=" << c.seed
     << ", .page_size=" << c.page_size << ", .coord_max=" << c.coord_max
     << ", .id_max=" << c.id_max << ", .rebuild_threshold="
     << c.rebuild_threshold << "}";
  return os.str();
}

template <typename D>
struct DynStep {
  enum What : uint8_t { kInsert, kDelete, kQuery, kRebuild };
  What what = kInsert;
  DynamicItem item;         // kInsert / kDelete
  typename D::Query query;  // kQuery
};

template <typename D>
std::vector<DynStep<D>> GenSchedule(const DynCase& c) {
  Rng rng(c.seed ^ 0xD15C0B07ULL);
  std::vector<DynStep<D>> steps;
  steps.reserve(c.steps);
  for (uint64_t i = 0; i < c.steps; ++i) {
    DynStep<D> s;
    const double r = rng.NextDouble();
    if (r < c.p_insert) {
      s.what = DynStep<D>::kInsert;
      s.item = D::MakeItem(&rng, c);
    } else if (r < c.p_insert + c.p_delete) {
      s.what = DynStep<D>::kDelete;
      s.item = D::MakeItem(&rng, c);
    } else if (r < c.p_insert + c.p_delete + c.p_query) {
      s.what = DynStep<D>::kQuery;
      s.query = D::SampleQuery(&rng, c);
    } else {
      s.what = DynStep<D>::kRebuild;
    }
    steps.push_back(s);
  }
  return steps;
}

/// Replays `steps` on a fresh store against the set model.  Returns true on
/// the first disagreement or error, with a description in `*why` (step
/// index included so a non-shrunk failure is still actionable).
template <typename D>
bool ScheduleFails(const std::vector<DynStep<D>>& steps, const DynCase& c,
                   std::string* why) {
  MemPageDevice mem(c.page_size);
  DynamicStoreOptions opts;
  opts.rebuild_threshold = c.rebuild_threshold;
  auto made = DynamicStore::Create(&mem, D::Kind(), {}, opts);
  if (!made.ok()) {
    *why = "Create: " + made.status().ToString();
    return true;
  }
  auto store = std::move(made).value();
  std::map<DynamicItem, bool, DynamicItemLess> model;  // presence set
  for (size_t i = 0; i < steps.size(); ++i) {
    const DynStep<D>& s = steps[i];
    std::ostringstream at;
    at << "step " << i << "/" << steps.size() << ": ";
    switch (s.what) {
      case DynStep<D>::kInsert: {
        Status st = store->Insert(s.item);
        if (!st.ok()) {
          *why = at.str() + "Insert: " + st.ToString();
          return true;
        }
        model[s.item] = true;
        break;
      }
      case DynStep<D>::kDelete: {
        Status st = store->Erase(s.item);
        if (!st.ok()) {
          *why = at.str() + "Erase: " + st.ToString();
          return true;
        }
        model.erase(s.item);
        break;
      }
      case DynStep<D>::kRebuild: {
        Status st = store->Rebuild();
        if (!st.ok()) {
          *why = at.str() + "Rebuild: " + st.ToString();
          return true;
        }
        break;
      }
      case DynStep<D>::kQuery: {
        std::vector<typename D::Record> got;
        Status st = D::RunQuery(store.get(), s.query, &got);
        if (!st.ok()) {
          *why = at.str() + "Query: " + st.ToString();
          return true;
        }
        std::vector<typename D::Record> live;
        live.reserve(model.size());
        for (const auto& [item, present] : model) {
          if (present) live.push_back(D::ToRecord(item));
        }
        if (!SameResult(got, D::Oracle(live, s.query))) {
          *why = at.str() + "merged answer for " + D::FormatQuery(s.query) +
                 " disagrees with the set model (" + std::to_string(got.size())
                 + " records vs model's expectation)";
          return true;
        }
        break;
      }
    }
  }
  return false;
}

/// ddmin over the step sequence: any subsequence is a valid schedule, so the
/// shrinker deletes chunks while the replay-from-scratch still fails.
template <typename D>
std::vector<DynStep<D>> ShrinkSchedule(std::vector<DynStep<D>> steps,
                                       const DynCase& c,
                                       int max_probes = 400) {
  std::string why;
  size_t chunks = 2;
  int probes = 0;
  while (steps.size() > 1 && chunks <= steps.size() && probes < max_probes) {
    const size_t chunk_len = (steps.size() + chunks - 1) / chunks;
    bool removed_any = false;
    for (size_t start = 0; start < steps.size() && probes < max_probes;
         start += chunk_len) {
      std::vector<DynStep<D>> candidate;
      candidate.reserve(steps.size());
      for (size_t i = 0; i < steps.size(); ++i) {
        if (i < start || i >= start + chunk_len) candidate.push_back(steps[i]);
      }
      if (candidate.empty()) continue;
      ++probes;
      if (ScheduleFails<D>(candidate, c, &why)) {
        steps = std::move(candidate);
        chunks = std::max<size_t>(2, chunks - 1);
        removed_any = true;
        break;
      }
    }
    if (!removed_any) {
      if (chunk_len == 1) break;  // 1-minimal
      chunks = std::min(steps.size(), chunks * 2);
    }
  }
  return steps;
}

template <typename D>
std::string DynReproducer(const std::vector<DynStep<D>>& minimal,
                          const DynCase& c) {
  std::string why;
  ScheduleFails<D>(minimal, c, &why);  // re-derive the failing step's story
  std::ostringstream os;
  os << D::Name() << " dynamic schedule disagrees with the set model.\n"
     << "case: " << FormatDynCase(c) << "\n"
     << "failure: " << why << "\n"
     << "shrunk to " << minimal.size() << " step(s):\n";
  const size_t show = std::min<size_t>(minimal.size(), 64);
  for (size_t i = 0; i < show; ++i) {
    const DynStep<D>& s = minimal[i];
    os << "  ";
    switch (s.what) {
      case DynStep<D>::kInsert:
        os << "insert {" << s.item.a << ", " << s.item.b << ", " << s.item.id
           << "}";
        break;
      case DynStep<D>::kDelete:
        os << "delete {" << s.item.a << ", " << s.item.b << ", " << s.item.id
           << "}";
        break;
      case DynStep<D>::kRebuild:
        os << "rebuild";
        break;
      case DynStep<D>::kQuery:
        os << "query " << D::FormatQuery(s.query);
        break;
    }
    os << "\n";
  }
  if (show < minimal.size()) {
    os << "  ... (" << (minimal.size() - show) << " more)\n";
  }
  return os.str();
}

/// Harness entry point: generate the schedule from the case, replay it, and
/// on a disagreement shrink + fail with the reproducer.
template <typename D>
void RunDynamicSchedule(const DynCase& c) {
  const std::vector<DynStep<D>> steps = GenSchedule<D>(c);
  std::string why;
  if (!ScheduleFails<D>(steps, c, &why)) return;
  auto minimal = ShrinkSchedule<D>(steps, c);
  FAIL() << DynReproducer<D>(minimal, c) << "first failure: " << why;
}

}  // namespace dyntest
}  // namespace difftest

// ---------------------------------------------------------------------------
// Network-protocol oracle (PR 9).  The wire-level fuzz and robustness tests
// need two things beyond the brute-force oracles above: a generator of
// random VALID wire requests against a served catalog, and a twin of the
// server's request-execution path run against an in-process QueryEngine —
// including the server's query mappings (diagonal-corner → two-sided with
// the corner on the diagonal, range → three-sided plus an exact y <= y_max
// filter).  A valid frame sent to the live server must produce bytes
// identical to EncodeResponse(EngineOracleResponse(twin_engine, request)).
// ---------------------------------------------------------------------------

namespace nettest {

/// What one served structure looks like to the fuzzers, by wire id.
struct NetStructure {
  QueryKind kind = QueryKind::kTwoSided;
  bool dynamic = false;
  int64_t coord_max = 100'000;  // coordinate range for generated traffic
};

/// One random, semantically valid request against the catalog: a ping, a
/// query of a type the addressed structure answers, or (when allowed and
/// the structure is dynamic) a small update group.  Every choice derives
/// from `rng`, so a seed reproduces the stream.
inline net::Request RandomValidRequest(Rng* rng,
                                       const std::vector<NetStructure>& catalog,
                                       uint64_t request_id,
                                       bool allow_updates) {
  net::Request req;
  req.request_id = request_id;
  if (catalog.empty() || rng->Uniform(16) == 0) {
    req.type = net::MsgType::kPing;
    return req;
  }
  const uint32_t sid = uint32_t(rng->Uniform(catalog.size()));
  const NetStructure& s = catalog[sid];
  req.structure_id = sid;
  const int64_t m = s.coord_max;
  if (allow_updates && s.dynamic && rng->Uniform(4) == 0) {
    req.type = net::MsgType::kUpdateGroup;
    const size_t n = 1 + rng->Uniform(4);
    for (size_t i = 0; i < n; ++i) {
      DynamicUpdate u;
      // Inserts dominate so delete-of-absent stays a rarity, not the norm.
      u.op = rng->Uniform(4) == 0 ? UpdateOp::kDelete : UpdateOp::kInsert;
      u.item = DynamicItem{rng->UniformRange(0, m), rng->UniformRange(0, m),
                           500'000 + rng->Uniform(1'000'000)};
      req.updates.push_back(u);
    }
    return req;
  }
  switch (s.kind) {
    case QueryKind::kTwoSided:
      if (rng->Bernoulli(0.3)) {
        req.type = net::MsgType::kQueryDiagonal;
        req.corner = rng->UniformRange(0, m);
      } else {
        req.type = net::MsgType::kQueryTwoSided;
        req.two_sided =
            TwoSidedQuery{rng->UniformRange(0, m), rng->UniformRange(0, m)};
      }
      break;
    case QueryKind::kThreeSided:
      if (rng->Bernoulli(0.3)) {
        const int64_t x = rng->UniformRange(0, m);
        const int64_t y = rng->UniformRange(0, m);
        req.type = net::MsgType::kQueryRange;
        req.range = RangeQuery{x, x + rng->UniformRange(0, m / 4), y,
                               y + rng->UniformRange(0, m / 4)};
      } else {
        const int64_t x = rng->UniformRange(0, m);
        req.type = net::MsgType::kQueryThreeSided;
        req.three_sided = ThreeSidedQuery{x, x + rng->UniformRange(0, m / 4),
                                          rng->UniformRange(0, m)};
      }
      break;
    case QueryKind::kStabbing:
      req.type = net::MsgType::kQueryStab;
      req.stab = rng->UniformRange(0, m);
      break;
  }
  return req;
}

/// Runs one semantically valid request through an in-process engine the
/// exact way NetServer does — same query mapping, same response shaping —
/// and returns the Response the server is expected to send.  Blocks until
/// the engine completes the request.
inline net::Response EngineOracleResponse(QueryEngine* engine,
                                          const net::Request& req) {
  net::Response resp;
  resp.request_id = req.request_id;
  if (req.type == net::MsgType::kPing) {
    resp.type = net::MsgType::kPong;
    return resp;
  }

  std::promise<QueryResult> done;
  auto fut = done.get_future();
  auto complete = [&done](QueryResult r) { done.set_value(std::move(r)); };

  if (req.type == net::MsgType::kUpdateGroup) {
    Status s = engine->SubmitUpdate(req.structure_id, req.updates, complete);
    EXPECT_TRUE(s.ok()) << s.ToString();
    QueryResult r = fut.get();
    if (!r.status.ok()) {
      resp.type = net::MsgType::kError;
      resp.code = r.status.code();
      resp.message = std::string(r.status.message());
    } else {
      resp.type = net::MsgType::kUpdateAck;
      resp.applied = uint32_t(req.updates.size());
    }
    return resp;
  }

  ServeQuery query;
  bool is_range = false;
  int64_t y_max = 0;
  switch (req.type) {
    case net::MsgType::kQueryTwoSided:
      query = ServeQuery::TwoSided(req.two_sided);
      break;
    case net::MsgType::kQueryDiagonal:
      query = ServeQuery::TwoSided(DiagonalCornerQuery{req.corner}.AsTwoSided());
      break;
    case net::MsgType::kQueryThreeSided:
      query = ServeQuery::ThreeSided(req.three_sided);
      break;
    case net::MsgType::kQueryRange:
      query = ServeQuery::ThreeSided(ThreeSidedQuery{
          req.range.x_min, req.range.x_max, req.range.y_min});
      is_range = true;
      y_max = req.range.y_max;
      break;
    case net::MsgType::kQueryStab:
      query = ServeQuery::Stab(req.stab);
      break;
    default:
      ADD_FAILURE() << "oracle fed a non-request type";
      return resp;
  }
  Status s = engine->Submit(req.structure_id, query, complete);
  EXPECT_TRUE(s.ok()) << s.ToString();
  QueryResult r = fut.get();
  if (!r.status.ok()) {
    resp.type = net::MsgType::kError;
    resp.code = r.status.code();
    resp.message = std::string(r.status.message());
    return resp;
  }
  if (engine->structure_kind(req.structure_id) == QueryKind::kStabbing) {
    resp.type = net::MsgType::kIntervals;
    resp.intervals = std::move(r.intervals);
  } else {
    resp.type = net::MsgType::kPoints;
    resp.points = std::move(r.points);
    if (is_range) {
      std::erase_if(resp.points,
                    [y_max](const Point& p) { return p.y > y_max; });
    }
  }
  return resp;
}

}  // namespace nettest

// ---------------------------------------------------------------------------
// Sharded differential harness.  A ShardedStore + ShardRouter and an
// unsharded twin QueryEngine are built over the SAME records; every query
// must come back byte-identical from both once each answer is put in
// canonical order, the routed answer must be its shards' own answers
// concatenated in shard order, and the router's merged I/O must equal the
// sum of its per-shard slices.  Only shard_test instantiates these
// helpers; other oracle_common.h users never reference (and so never link)
// the shard library.
// ---------------------------------------------------------------------------

namespace shardtest {

/// Submits through any QueryService and blocks for the result.  A
/// synchronous rejection (full queue, tenant quota) comes back as the
/// result's status instead of a Status return, so callers have one rail.
inline QueryResult BlockingSubmit(QueryService* svc, uint32_t id,
                                  const ServeQuery& q,
                                  uint64_t deadline_micros = 0,
                                  uint32_t tenant = 0) {
  std::promise<QueryResult> done;
  auto fut = done.get_future();
  Status s = svc->Submit(
      id, q, [&done](QueryResult r) { done.set_value(std::move(r)); },
      deadline_micros, tenant);
  if (!s.ok()) {
    QueryResult r;
    r.status = std::move(s);
    return r;
  }
  return fut.get();
}

/// A canonical record order: points by (x, y, id), intervals by
/// (lo, hi, id).  Record order from an engine or a router is unspecified,
/// so answers are canonicalized on both sides before a byte-for-byte
/// comparison.
inline void Canonicalize(std::vector<Point>* pts) {
  std::sort(pts->begin(), pts->end(), [](const Point& a, const Point& b) {
    return std::tie(a.x, a.y, a.id) < std::tie(b.x, b.y, b.id);
  });
}
inline void Canonicalize(std::vector<Interval>* ivs) {
  std::sort(ivs->begin(), ivs->end(),
            [](const Interval& a, const Interval& b) {
              return std::tie(a.lo, a.hi, a.id) < std::tie(b.lo, b.hi, b.id);
            });
}

/// The sum of a routed result's per-shard slice I/O.
inline IoStats SliceSum(const QueryResult& r) {
  IoStats sum;
  for (const ShardSlice& s : r.shards) sum += s.io;
  return sum;
}

/// Queries each of `slices`' shard engines directly, in slice order, and
/// concatenates their answers: what a router must return for `q`.
inline QueryResult ShardOrderConcat(ShardedStore* store, uint32_t id,
                                    const ServeQuery& q,
                                    const std::vector<ShardSlice>& slices) {
  QueryResult out;
  for (const ShardSlice& s : slices) {
    const int32_t engine_id = store->info(id).engine_id[s.shard];
    QueryResult r =
        BlockingSubmit(store->engine(s.shard), uint32_t(engine_id), q);
    if (!r.status.ok()) return r;
    out.points.insert(out.points.end(), r.points.begin(), r.points.end());
    out.intervals.insert(out.intervals.end(), r.intervals.begin(),
                         r.intervals.end());
  }
  return out;
}

/// A sharded store + router and its unsharded twin engine over the same
/// records.  Add* registers on both sides (asserting the structure ids stay
/// aligned); Check() queries both and demands identical answers.
class ShardedTwin {
 public:
  explicit ShardedTwin(ShardedStoreOptions sopts = {},
                       ShardRouterOptions ropts = {})
      : store_(sopts),
        router_(&store_, ropts),
        twin_pool_(&twin_dev_, sopts.pool_pages_total),
        twin_engine_(&twin_pool_, TwinOptions(sopts)) {}

  Result<uint32_t> AddTwoSided(std::span<const Point> pts) {
    PC_ASSIGN_OR_RETURN(uint32_t sid, store_.AddTwoSided(pts));
    ExternalPst pst(&twin_pool_);
    PC_RETURN_IF_ERROR(pst.Build({pts.begin(), pts.end()}));
    return TwinRegister(sid, pst.Save());
  }

  Result<uint32_t> AddThreeSided(std::span<const Point> pts) {
    PC_ASSIGN_OR_RETURN(uint32_t sid, store_.AddThreeSided(pts));
    ThreeSidedPst pst(&twin_pool_);
    PC_RETURN_IF_ERROR(pst.Build({pts.begin(), pts.end()}));
    return TwinRegister(sid, pst.Save());
  }

  Result<uint32_t> AddStabbing(std::span<const Interval> ivs) {
    PC_ASSIGN_OR_RETURN(uint32_t sid, store_.AddStabbing(ivs));
    ExtSegmentTree st(&twin_pool_);
    PC_RETURN_IF_ERROR(st.Build({ivs.begin(), ivs.end()}));
    return TwinRegister(sid, st.Save());
  }

  Status Start() {
    PC_RETURN_IF_ERROR(store_.Start());
    return twin_engine_.Start();
  }

  void Stop() {
    store_.Stop();
    twin_engine_.Stop();
  }

  /// One differential probe: the routed answer must be its slices' own
  /// answers concatenated in shard order, must match the twin's once both
  /// are canonicalized, and its merged I/O must equal the slice sum.
  ::testing::AssertionResult Check(uint32_t id, const ServeQuery& q) {
    QueryResult sharded = BlockingSubmit(&router_, id, q);
    QueryResult flat = BlockingSubmit(&twin_engine_, id, q);
    if (!sharded.status.ok()) {
      return ::testing::AssertionFailure()
             << "routed query failed: " << sharded.status.ToString();
    }
    if (!flat.status.ok()) {
      return ::testing::AssertionFailure()
             << "twin query failed: " << flat.status.ToString();
    }
    for (size_t i = 1; i < sharded.shards.size(); ++i) {
      if (sharded.shards[i - 1].shard >= sharded.shards[i].shard) {
        return ::testing::AssertionFailure()
               << "slices are not ordered by shard index";
      }
    }
    QueryResult direct = ShardOrderConcat(&store_, id, q, sharded.shards);
    if (!direct.status.ok()) {
      return ::testing::AssertionFailure()
             << "direct shard query failed: " << direct.status.ToString();
    }
    if (sharded.points != direct.points ||
        sharded.intervals != direct.intervals) {
      return ::testing::AssertionFailure()
             << "routed answer is not its slices' answers in shard order";
    }
    Canonicalize(&sharded.points);
    Canonicalize(&sharded.intervals);
    Canonicalize(&flat.points);
    Canonicalize(&flat.intervals);
    if (sharded.points != flat.points) {
      return ::testing::AssertionFailure()
             << "points diverge: sharded " << sharded.points.size()
             << " vs twin " << flat.points.size();
    }
    if (sharded.intervals != flat.intervals) {
      return ::testing::AssertionFailure()
             << "intervals diverge: sharded " << sharded.intervals.size()
             << " vs twin " << flat.intervals.size();
    }
    const IoStats sum = SliceSum(sharded);
    if (sum.reads != sharded.io.reads || sum.writes != sharded.io.writes ||
        sum.batch_reads != sharded.io.batch_reads) {
      return ::testing::AssertionFailure()
             << "merged IoStats do not equal the per-shard slice sum";
    }
    return ::testing::AssertionSuccess();
  }

  ShardedStore* store() { return &store_; }
  ShardRouter* router() { return &router_; }
  QueryEngine* twin_engine() { return &twin_engine_; }

 private:
  static QueryEngineOptions TwinOptions(const ShardedStoreOptions& sopts) {
    QueryEngineOptions eopts;
    eopts.num_workers = sopts.engine_workers;
    eopts.queue_capacity = sopts.queue_capacity;
    eopts.batch_size = sopts.batch_size;
    eopts.clock = sopts.clock;
    return eopts;
  }

  Result<uint32_t> TwinRegister(uint32_t sid, Result<PageId> manifest) {
    PC_RETURN_IF_ERROR(manifest.ToStatus());
    PC_ASSIGN_OR_RETURN(uint32_t tid,
                        twin_engine_.AddStructure(manifest.value()));
    if (tid != sid) {
      return Status::FailedPrecondition("twin structure ids diverged");
    }
    return sid;
  }

  ShardedStore store_;
  ShardRouter router_;
  MemPageDevice twin_dev_;
  SharedBufferPool twin_pool_;
  QueryEngine twin_engine_;
};

}  // namespace shardtest
}  // namespace pathcache

#endif  // PATHCACHE_TESTS_ORACLE_COMMON_H_
