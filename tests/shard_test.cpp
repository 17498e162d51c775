// Tests for sharded multi-store serving (src/shard/).
//
// The core property is differential: a ShardedStore + ShardRouter over
// {2, 4, 8} shards must answer every query shape with the same records as
// an unsharded twin engine built over the same records (ShardedTwin in
// oracle_common.h; both sides canonicalized, then compared byte for byte),
// in its shards' own answer order concatenated by shard index, with the
// merged I/O equal to the per-shard slice sum.
// Partial failure is asserted deterministically, serve_test style: a
// blocker parks one shard's only worker while a FakeClock advances past the
// router's per-shard budget, or a FaultPageDevice under exactly one shard
// turns persistent-read-failure — either way the routed result carries a
// typed per-shard error while the healthy shards' records still match the
// oracle.  No sleeps on the failure paths.

#include "shard/shard_router.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <vector>

#include "io/fault_page_device.h"
#include "io/mem_page_device.h"
#include "net/client.h"
#include "net/server.h"
#include "oracle_common.h"
#include "serve/clock.h"
#include "shard/shard_map.h"
#include "shard/sharded_store.h"
#include "workload/generators.h"

namespace pathcache {
namespace {

using shardtest::BlockingSubmit;
using shardtest::Canonicalize;
using shardtest::ShardedTwin;
using shardtest::ShardOrderConcat;
using shardtest::SliceSum;

std::vector<Point> Canonical(std::vector<Point> pts) {
  Canonicalize(&pts);
  return pts;
}

TEST(ShardMapTest, RoutesKeysAndRanges) {
  ShardMap one;
  EXPECT_EQ(one.shards(), 1u);
  EXPECT_EQ(one.ShardOf(INT64_MIN), 0u);
  EXPECT_EQ(one.ShardOf(INT64_MAX), 0u);

  ShardMap m({10, 20});
  EXPECT_EQ(m.shards(), 3u);
  EXPECT_EQ(m.ShardOf(9), 0u);
  EXPECT_EQ(m.ShardOf(10), 1u);  // a cut is the next shard's inclusive floor
  EXPECT_EQ(m.ShardOf(19), 1u);
  EXPECT_EQ(m.ShardOf(20), 2u);
  EXPECT_EQ(m.Overlapping(5, 15), (std::pair<uint32_t, uint32_t>{0, 1}));
  EXPECT_EQ(m.Overlapping(10, 19), (std::pair<uint32_t, uint32_t>{1, 1}));
  EXPECT_EQ(m.Overlapping(INT64_MIN, INT64_MAX),
            (std::pair<uint32_t, uint32_t>{0, 2}));
}

TEST(ShardMapTest, FromKeysCollapsesDuplicateCuts) {
  ShardMap m = ShardMap::FromKeys({5, 5, 5, 5, 5, 5, 5, 5}, 4);
  EXPECT_EQ(m.shards(), 2u);  // every candidate cut is 5; duplicates collapse
  EXPECT_EQ(m.ShardOf(4), 0u);
  EXPECT_EQ(m.ShardOf(5), 1u);

  ShardMap balanced = ShardMap::FromKeys({1, 2, 3, 4, 5, 6, 7, 8}, 4);
  EXPECT_EQ(balanced.shards(), 4u);
  EXPECT_EQ(balanced.ShardOf(1), 0u);
  EXPECT_EQ(balanced.ShardOf(8), 3u);
}

// --- Differential: sharded answers must equal the unsharded twin's ---------

class ShardedDifferential : public ::testing::TestWithParam<uint32_t> {};

INSTANTIATE_TEST_SUITE_P(Shards, ShardedDifferential,
                         ::testing::Values(2u, 4u, 8u));

TEST_P(ShardedDifferential, AllQueryShapesMatchUnshardedTwin) {
  const uint32_t shards = GetParam();
  ShardedStoreOptions sopts;
  sopts.shards = shards;
  sopts.pool_pages_total = 2048;
  ShardedTwin twin(sopts);

  PointGenOptions po;
  po.n = 2000;
  po.coord_max = 100'000;
  po.seed = 90 + shards;
  std::vector<Point> pts = GenPointsUniform(po);

  IntervalGenOptions io;
  io.n = 800;
  io.domain_max = 100'000;
  io.mean_len_frac = 0.02;
  io.seed = 91 + shards;
  std::vector<Interval> ivs = GenIntervalsUniform(io);
  MakeEndpointsDistinct(&ivs);

  auto two = twin.AddTwoSided(pts);
  ASSERT_TRUE(two.ok()) << two.status().ToString();
  auto three = twin.AddThreeSided(pts);
  ASSERT_TRUE(three.ok()) << three.status().ToString();
  auto stab = twin.AddStabbing(ivs);
  ASSERT_TRUE(stab.ok()) << stab.status().ToString();
  ASSERT_TRUE(twin.Start().ok());

  // The five wire query shapes, after the server's mapping: two-sided,
  // diagonal-corner (-> two-sided), three-sided, range (-> three-sided),
  // stabbing.  Both sides get the identical mapped query, so shapes that
  // alias still exercise distinct routing footprints.
  Rng rng(7 * shards + 1);
  for (int i = 0; i < 25; ++i) {
    const TwoSidedQuery q2 = SampleTwoSidedQuery(pts, &rng);
    EXPECT_TRUE(twin.Check(two.value(), ServeQuery::TwoSided(q2)));

    const DiagonalCornerQuery dc{rng.UniformRange(0, 100'000)};
    EXPECT_TRUE(twin.Check(two.value(), ServeQuery::TwoSided(dc.AsTwoSided())));

    const ThreeSidedQuery q3 = SampleThreeSidedQuery(pts, 0.2, &rng);
    EXPECT_TRUE(twin.Check(three.value(), ServeQuery::ThreeSided(q3)));

    const int64_t x = rng.UniformRange(0, 100'000);
    const ThreeSidedQuery ranged{x, x + rng.UniformRange(0, 25'000),
                                 rng.UniformRange(0, 100'000)};
    EXPECT_TRUE(twin.Check(three.value(), ServeQuery::ThreeSided(ranged)));

    EXPECT_TRUE(
        twin.Check(stab.value(), ServeQuery::Stab(rng.UniformRange(0, 100'000))));
  }

  // Boundary probes: everything, nothing, and single-shard footprints.
  EXPECT_TRUE(twin.Check(two.value(),
                         ServeQuery::TwoSided(TwoSidedQuery{INT64_MIN,
                                                            INT64_MIN})));
  EXPECT_TRUE(twin.Check(two.value(),
                         ServeQuery::TwoSided(TwoSidedQuery{INT64_MAX,
                                                            INT64_MAX})));
  EXPECT_TRUE(twin.Check(
      three.value(),
      ServeQuery::ThreeSided(ThreeSidedQuery{0, 100'000, INT64_MIN})));
  EXPECT_TRUE(twin.Check(stab.value(), ServeQuery::Stab(pts[0].x)));
  EXPECT_TRUE(twin.Check(stab.value(), ServeQuery::Stab(-1)));

  // Per-shard I/O is really counted: a full sweep over every shard must
  // read pages on more than one of them.
  QueryResult swept = BlockingSubmit(
      twin.router(), two.value(),
      ServeQuery::TwoSided(TwoSidedQuery{INT64_MIN, INT64_MIN}));
  ASSERT_TRUE(swept.status.ok());
  ASSERT_EQ(swept.shards.size(), size_t{shards});
  uint32_t shards_reading = 0;
  for (const ShardSlice& s : swept.shards) {
    if (s.io.reads > 0) ++shards_reading;
  }
  EXPECT_GT(shards_reading, 1u);

  twin.Stop();
}

TEST(ShardRouterTest, EmptyTargetSetCompletesInlineWithEmptyOkResult) {
  ShardedStoreOptions sopts;
  sopts.shards = 2;
  ShardedTwin twin(sopts);
  PointGenOptions po;
  po.n = 200;
  po.coord_max = 10'000;
  po.seed = 5;
  std::vector<Point> pts = GenPointsUniform(po);
  auto three = twin.AddThreeSided(pts);
  ASSERT_TRUE(three.ok());
  ASSERT_TRUE(twin.Start().ok());

  // An inverted x-range intersects no shard at all.
  QueryResult r = BlockingSubmit(
      twin.router(), three.value(),
      ServeQuery::ThreeSided(ThreeSidedQuery{100, 50, 0}));
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(r.points.empty());
  EXPECT_TRUE(r.shards.empty());
  EXPECT_EQ(r.io.reads, 0u);

  Status bad = twin.router()->Submit(99, ServeQuery::Stab(0), nullptr);
  EXPECT_TRUE(bad.IsInvalidArgument());

  Status upd = twin.router()->SubmitUpdate(three.value(), {}, nullptr);
  EXPECT_TRUE(upd.code() == StatusCode::kNotSupported) << upd.ToString();

  twin.Stop();
}

TEST(ShardRouterTest, StabbingRoutesToExactlyOneShard) {
  // MakeEndpointsDistinct re-spaces the 2n endpoints onto even integers in
  // [0, 4n), so for n = 600 the live domain is [0, 2400) — cuts sit inside
  // that range.
  ShardedStoreOptions sopts;
  sopts.shards = 4;
  sopts.cuts = {600, 1'200, 1'800};
  ShardedTwin twin(sopts);
  IntervalGenOptions io;
  io.n = 600;
  io.domain_max = 100'000;
  io.seed = 33;
  std::vector<Interval> ivs = GenIntervalsUniform(io);
  MakeEndpointsDistinct(&ivs);
  auto stab = twin.AddStabbing(ivs);
  ASSERT_TRUE(stab.ok());
  ASSERT_TRUE(twin.Start().ok());

  for (int64_t q : {0L, 700L, 1'300L, 2'300L}) {
    QueryResult r =
        BlockingSubmit(twin.router(), stab.value(), ServeQuery::Stab(q));
    ASSERT_TRUE(r.status.ok());
    ASSERT_EQ(r.shards.size(), 1u) << "stab " << q;
    const uint32_t k = twin.store()->map().ShardOf(q);
    EXPECT_EQ(r.shards[0].shard, k);
    // The one shard's answer passes through unchanged, order included.
    const int32_t engine_id = twin.store()->info(stab.value()).engine_id[k];
    QueryResult direct = BlockingSubmit(
        twin.store()->engine(k), uint32_t(engine_id), ServeQuery::Stab(q));
    ASSERT_TRUE(direct.status.ok());
    EXPECT_EQ(r.intervals, direct.intervals) << "stab " << q;
    EXPECT_EQ(r.io.reads, r.shards[0].io.reads);
    EXPECT_TRUE(twin.Check(stab.value(), ServeQuery::Stab(q)));
  }
  twin.Stop();
}

// --- Partial failure --------------------------------------------------------

// Parks a shard engine's only worker inside a completion callback
// (serve_test's WorkerBlocker idiom).
class WorkerBlocker {
 public:
  QueryDoneCallback Callback() {
    return [this](QueryResult) {
      started_.set_value();
      release_future_.wait();
    };
  }
  void AwaitWorkerParked() { started_.get_future().wait(); }
  void Release() { release_.set_value(); }

 private:
  std::promise<void> started_;
  std::promise<void> release_;
  std::shared_future<void> release_future_{release_.get_future().share()};
};

TEST(ShardRouterTest, SlowShardExpiresTypedWhileHealthyShardsAnswer) {
  FakeClock clock(1'000'000);
  ShardedStoreOptions sopts;
  sopts.shards = 2;
  sopts.cuts = {50'000};
  sopts.engine_workers = 1;
  sopts.batch_size = 1;
  sopts.clock = &clock;
  ShardedStore store(sopts);

  PointGenOptions po;
  po.n = 1000;
  po.coord_max = 100'000;
  po.seed = 55;
  std::vector<Point> pts = GenPointsUniform(po);
  auto id = store.AddTwoSided(pts);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(store.Start().ok());

  const int32_t sub_id = store.info(id.value()).engine_id[1];
  ASSERT_GE(sub_id, 0);
  WorkerBlocker blocker;
  ASSERT_TRUE(store.engine(1)
                  ->Submit(uint32_t(sub_id),
                           ServeQuery::TwoSided(TwoSidedQuery{INT64_MAX,
                                                              INT64_MAX}),
                           blocker.Callback())
                  .ok());
  blocker.AwaitWorkerParked();  // shard 1's worker is now provably busy

  ShardRouterOptions ropts;
  ropts.per_shard_budget_micros = 1'000;
  ShardRouter router(&store, ropts);
  std::promise<QueryResult> done;
  auto fut = done.get_future();
  ASSERT_TRUE(router
                  .Submit(id.value(),
                          ServeQuery::TwoSided(TwoSidedQuery{INT64_MIN,
                                                             INT64_MIN}),
                          [&done](QueryResult r) {
                            done.set_value(std::move(r));
                          })
                  .ok());

  // Shard 0 is healthy: wait for it to finish its slice, then let the
  // per-shard budget lapse before shard 1's worker ever sees its sub-query.
  store.engine(0)->Drain();
  clock.Advance(2'000);
  blocker.Release();

  QueryResult r = fut.get();
  EXPECT_TRUE(r.status.IsDeadlineExceeded()) << r.status.ToString();
  EXPECT_NE(std::string(r.status.message()).find("shard 1"), std::string::npos)
      << r.status.ToString();
  ASSERT_EQ(r.shards.size(), 2u);
  EXPECT_TRUE(r.shards[0].status.ok());
  EXPECT_TRUE(r.shards[1].status.IsDeadlineExceeded());
  EXPECT_EQ(r.shards[1].io.reads, 0u);  // expiry costs no I/O

  // The healthy shard's records still came back, byte-identical to a local
  // oracle over shard 0's slice of the data.
  std::vector<Point> expect;
  for (const Point& p : pts) {
    if (store.map().ShardOf(p.x) == 0) expect.push_back(p);
  }
  EXPECT_EQ(Canonical(r.points), Canonical(expect));
  store.Stop();
}

TEST(ShardRouterTest, FaultedShardYieldsIoErrorWhileHealthyShardsAnswer) {
  MemPageDevice mem0(4096), mem1(4096);
  FaultPageDevice fault(&mem1);
  ShardedStoreOptions sopts;
  sopts.shards = 2;
  sopts.cuts = {50'000};
  sopts.devices = {&mem0, &fault};
  ShardedStore store(sopts);

  PointGenOptions po;
  po.n = 1500;
  po.coord_max = 100'000;
  po.seed = 56;
  std::vector<Point> pts = GenPointsUniform(po);
  auto id = store.AddTwoSided(pts);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(store.Start().ok());

  // From here every read on shard 1's device fails; dropping the pool's
  // cached frames forces the next query to actually hit it.
  fault.FailReadAt(fault.reads_seen(), /*persistent=*/true);
  store.pool(1)->Clear();

  ShardRouter router(&store);
  QueryResult r = BlockingSubmit(
      &router, id.value(),
      ServeQuery::TwoSided(TwoSidedQuery{INT64_MIN, INT64_MIN}));
  EXPECT_TRUE(r.status.IsIoError()) << r.status.ToString();
  EXPECT_NE(std::string(r.status.message()).find("shard 1"), std::string::npos);
  ASSERT_EQ(r.shards.size(), 2u);
  EXPECT_TRUE(r.shards[0].status.ok());
  EXPECT_TRUE(r.shards[1].status.IsIoError());

  std::vector<Point> expect;
  for (const Point& p : pts) {
    if (store.map().ShardOf(p.x) == 0) expect.push_back(p);
  }
  EXPECT_EQ(Canonical(r.points), Canonical(expect));

  // The fault is shard-local: shard 0 keeps serving, and a stab-style
  // narrow query that only touches shard 0 is entirely unaffected.
  QueryResult healthy = BlockingSubmit(
      &router, id.value(),
      ServeQuery::TwoSided(TwoSidedQuery{INT64_MIN, INT64_MIN}));
  EXPECT_TRUE(healthy.shards[0].status.ok());
  store.Stop();
}

TEST(ShardRouterTest, QuotaBounceBecomesFailedSliceNotLostCallback) {
  ShardedStoreOptions sopts;
  sopts.shards = 2;
  sopts.cuts = {50'000};
  sopts.engine_workers = 1;
  sopts.batch_size = 1;
  ShardedStore store(sopts);
  PointGenOptions po;
  po.n = 600;
  po.coord_max = 100'000;
  po.seed = 57;
  std::vector<Point> pts = GenPointsUniform(po);
  auto id = store.AddTwoSided(pts);
  ASSERT_TRUE(id.ok());
  // Tenant 9 gets zero tokens on every shard: always bounced, synchronously.
  ASSERT_TRUE(store.SetTenantQuota(9, 0).ok());
  ASSERT_TRUE(store.Start().ok());

  ShardRouter router(&store);
  QueryResult r = BlockingSubmit(
      &router, id.value(),
      ServeQuery::TwoSided(TwoSidedQuery{INT64_MIN, INT64_MIN}),
      /*deadline_micros=*/0, /*tenant=*/9);
  EXPECT_TRUE(r.status.IsOverloaded()) << r.status.ToString();
  ASSERT_EQ(r.shards.size(), 2u);
  EXPECT_TRUE(r.shards[0].status.IsOverloaded());
  EXPECT_TRUE(r.shards[1].status.IsOverloaded());
  EXPECT_TRUE(r.points.empty());

  // An unconfigured tenant sails through on the same router.
  QueryResult ok = BlockingSubmit(
      &router, id.value(),
      ServeQuery::TwoSided(TwoSidedQuery{INT64_MIN, INT64_MIN}));
  EXPECT_TRUE(ok.status.ok()) << ok.status.ToString();
  EXPECT_EQ(ok.points.size(), pts.size());
  store.Stop();
}

TEST(ShardRouterTest, SingleShardFailureKeepsOnlyItsTypedStatus) {
  MemPageDevice mem0(4096), mem1(4096);
  FaultPageDevice fault(&mem1);
  ShardedStoreOptions sopts;
  sopts.shards = 2;
  sopts.devices = {&mem0, &fault};
  ShardedStore store(sopts);
  IntervalGenOptions io;
  io.n = 600;
  io.seed = 61;
  std::vector<Interval> ivs = GenIntervalsUniform(io);
  MakeEndpointsDistinct(&ivs);
  auto id = store.AddStabbing(ivs);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(store.SetTenantQuota(9, 0).ok());
  ASSERT_TRUE(store.Start().ok());
  ShardRouter router(&store);
  const int64_t q0 = ivs[0].lo;  // any live key works for the bounce
  const int64_t q1 = 4 * int64_t(io.n) - 4;  // near the top: shard 1
  const uint32_t k0 = store.map().ShardOf(q0);
  ASSERT_EQ(store.map().ShardOf(q1), 1u);

  // A synchronous bounce on the one target shard still fires the callback.
  QueryResult bounced = BlockingSubmit(&router, id.value(),
                                       ServeQuery::Stab(q0), 0, /*tenant=*/9);
  EXPECT_TRUE(bounced.status.IsOverloaded()) << bounced.status.ToString();
  EXPECT_EQ(bounced.status.message().find("shard " + std::to_string(k0)),
            0u)
      << bounced.status.ToString();
  ASSERT_EQ(bounced.shards.size(), 1u);
  EXPECT_EQ(bounced.shards[0].shard, k0);
  EXPECT_TRUE(bounced.shards[0].status.IsOverloaded());

  // A slice that fails mid-query keeps its typed status but contributes no
  // records or I/O, exactly as a failed slice of a multi-shard merge.
  fault.FailReadAt(fault.reads_seen(), /*persistent=*/true);
  store.pool(1)->Clear();
  QueryResult failed =
      BlockingSubmit(&router, id.value(), ServeQuery::Stab(q1));
  EXPECT_TRUE(failed.status.IsIoError()) << failed.status.ToString();
  EXPECT_EQ(failed.status.message().find("shard 1: "), 0u);
  ASSERT_EQ(failed.shards.size(), 1u);
  EXPECT_TRUE(failed.shards[0].status.IsIoError());
  EXPECT_TRUE(failed.intervals.empty());
  EXPECT_EQ(failed.io.reads, 0u);
  EXPECT_EQ(failed.stats.total_reads(), 0u);
  store.Stop();
}

TEST(ShardRouterTest, SlicesKeepShardOrderWhenALaterShardFinishesFirst) {
  ShardedStoreOptions sopts;
  sopts.shards = 2;
  sopts.cuts = {50'000};
  sopts.engine_workers = 1;
  sopts.batch_size = 1;
  ShardedStore store(sopts);
  PointGenOptions po;
  po.n = 1000;
  po.coord_max = 100'000;
  po.seed = 62;
  std::vector<Point> pts = GenPointsUniform(po);
  auto id = store.AddTwoSided(pts);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(store.Start().ok());
  ShardRouter router(&store);

  // Park shard 0's only worker, so shard 1's slice lands first.
  const int32_t sub0 = store.info(id.value()).engine_id[0];
  ASSERT_GE(sub0, 0);
  WorkerBlocker blocker;
  ASSERT_TRUE(store.engine(0)
                  ->Submit(uint32_t(sub0),
                           ServeQuery::TwoSided(TwoSidedQuery{INT64_MAX,
                                                              INT64_MAX}),
                           blocker.Callback())
                  .ok());
  blocker.AwaitWorkerParked();

  const ServeQuery all =
      ServeQuery::TwoSided(TwoSidedQuery{INT64_MIN, INT64_MIN});
  std::promise<QueryResult> done;
  auto fut = done.get_future();
  ASSERT_TRUE(router
                  .Submit(id.value(), all,
                          [&done](QueryResult r) {
                            done.set_value(std::move(r));
                          })
                  .ok());
  store.engine(1)->Drain();
  EXPECT_EQ(fut.wait_for(std::chrono::seconds(0)), std::future_status::timeout)
      << "shard 0 is parked, so the merge cannot have completed";
  blocker.Release();

  QueryResult r = fut.get();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  ASSERT_EQ(r.shards.size(), 2u);
  EXPECT_EQ(r.shards[0].shard, 0u);
  EXPECT_EQ(r.shards[1].shard, 1u);
  QueryResult direct = ShardOrderConcat(&store, id.value(), all, r.shards);
  ASSERT_TRUE(direct.status.ok());
  EXPECT_EQ(r.points, direct.points);  // shard 0's answer, then shard 1's
  EXPECT_EQ(r.points.size(), pts.size());
  const IoStats sum = SliceSum(r);
  EXPECT_EQ(r.io.reads, sum.reads);
  EXPECT_EQ(r.io.batch_reads, sum.batch_reads);
  EXPECT_GT(r.shards[0].io.reads, 0u);
  EXPECT_GT(r.shards[1].io.reads, 0u);
  store.Stop();
}

// --- Store options that contradict each other are refused ------------------

void ExpectRefused(ShardedStore* store) {
  const std::vector<Point> pts = {{1, 1, 0}, {60, 2, 1}};
  const std::vector<Interval> ivs = {{1, 5, 0}};
  EXPECT_TRUE(store->AddTwoSided(pts).status().IsInvalidArgument());
  EXPECT_TRUE(store->AddThreeSided(pts).status().IsInvalidArgument());
  EXPECT_TRUE(store->AddStabbing(ivs).status().IsInvalidArgument());
  EXPECT_TRUE(store->Start().IsInvalidArgument());
  EXPECT_EQ(store->num_structures(), 0u);
}

TEST(ShardedStoreTest, DeviceCountOtherThanShardsIsRefused) {
  MemPageDevice mem0(4096), mem1(4096);
  ShardedStoreOptions sopts;  // shards left at its default of 4
  sopts.devices = {&mem0, &mem1};
  ShardedStore store(sopts);
  ExpectRefused(&store);
  EXPECT_EQ(mem0.live_pages() + mem1.live_pages(), 0u);

  // The same two devices with a matching shard count take the records.
  sopts.shards = 2;
  ShardedStore fixed(sopts);
  std::vector<Point> pts = {{1, 1, 0}, {2, 2, 1}, {3, 3, 2}, {4, 4, 3}};
  ASSERT_TRUE(fixed.AddTwoSided(pts).ok());
  EXPECT_TRUE(fixed.Start().ok());
  EXPECT_GT(mem0.live_pages(), 0u);
  EXPECT_GT(mem1.live_pages(), 0u);
  fixed.Stop();
}

TEST(ShardedStoreTest, MoreCutsThanShardsAllowIsRefused) {
  ShardedStoreOptions sopts;
  sopts.shards = 2;
  sopts.cuts = {10, 20};
  ShardedStore store(sopts);
  ExpectRefused(&store);
}

TEST(ShardedStoreTest, CutsOutOfOrderAreRefused) {
  for (const std::vector<int64_t>& cuts :
       {std::vector<int64_t>{20, 10}, std::vector<int64_t>{10, 10}}) {
    ShardedStoreOptions sopts;
    sopts.shards = 3;
    sopts.cuts = cuts;
    ShardedStore store(sopts);
    ExpectRefused(&store);
  }
}

// --- NetServer over a router: sharding is transparent on the wire ----------

TEST(ShardedNetTest, NetServerServesShardedStructuresTransparently) {
  ShardedStoreOptions sopts;
  sopts.shards = 4;
  sopts.pool_pages_total = 2048;
  ShardedTwin twin(sopts);

  PointGenOptions po;
  po.n = 1200;
  po.coord_max = 100'000;
  po.seed = 58;
  std::vector<Point> pts = GenPointsUniform(po);
  IntervalGenOptions io;
  io.n = 500;
  io.domain_max = 100'000;
  io.seed = 59;
  std::vector<Interval> ivs = GenIntervalsUniform(io);
  MakeEndpointsDistinct(&ivs);

  auto two = twin.AddTwoSided(pts);
  auto three = twin.AddThreeSided(pts);
  auto stab = twin.AddStabbing(ivs);
  ASSERT_TRUE(two.ok() && three.ok() && stab.ok());
  ASSERT_TRUE(twin.Start().ok());

  net::NetServer server(twin.router());
  ASSERT_TRUE(server.Start().ok());
  net::NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  auto expect_points = [&](uint32_t id, const ServeQuery& q) {
    QueryResult r = BlockingSubmit(twin.twin_engine(), id, q);
    EXPECT_TRUE(r.status.ok());
    return Canonical(std::move(r.points));
  };

  // All five wire query kinds against the sharded back-end.
  std::vector<Point> got;
  ASSERT_TRUE(client.QueryTwoSided(two.value(), TwoSidedQuery{40'000, 40'000},
                                   &got)
                  .ok());
  EXPECT_EQ(Canonical(got),
            expect_points(two.value(),
                          ServeQuery::TwoSided(TwoSidedQuery{40'000, 40'000})));

  ASSERT_TRUE(client.QueryDiagonal(two.value(), 60'000, &got).ok());
  EXPECT_EQ(Canonical(got),
            expect_points(two.value(),
                          ServeQuery::TwoSided(
                              DiagonalCornerQuery{60'000}.AsTwoSided())));

  ASSERT_TRUE(client.QueryThreeSided(three.value(),
                                     ThreeSidedQuery{20'000, 70'000, 30'000},
                                     &got)
                  .ok());
  EXPECT_EQ(Canonical(got),
            expect_points(three.value(),
                          ServeQuery::ThreeSided(
                              ThreeSidedQuery{20'000, 70'000, 30'000})));

  ASSERT_TRUE(client.QueryRange(three.value(),
                                RangeQuery{10'000, 90'000, 10'000, 60'000},
                                &got)
                  .ok());
  std::vector<Point> want = expect_points(
      three.value(),
      ServeQuery::ThreeSided(ThreeSidedQuery{10'000, 90'000, 10'000}));
  std::erase_if(want, [](const Point& p) { return p.y > 60'000; });
  EXPECT_EQ(Canonical(got), want);

  std::vector<Interval> stabs;
  ASSERT_TRUE(client.QueryStab(stab.value(), 50'000, &stabs).ok());
  QueryResult sr =
      BlockingSubmit(twin.twin_engine(), stab.value(), ServeQuery::Stab(50'000));
  ASSERT_TRUE(sr.status.ok());
  Canonicalize(&stabs);
  Canonicalize(&sr.intervals);
  EXPECT_EQ(stabs, sr.intervals);

  server.Stop();
  twin.Stop();
}

TEST(ShardedNetTest, TenantQuotaSurfacesAsRetryAfterOnTheWire) {
  ShardedStoreOptions sopts;
  sopts.shards = 2;
  ShardedTwin twin(sopts);
  PointGenOptions po;
  po.n = 400;
  po.coord_max = 100'000;
  po.seed = 60;
  std::vector<Point> pts = GenPointsUniform(po);
  auto two = twin.AddTwoSided(pts);
  ASSERT_TRUE(two.ok());
  ASSERT_TRUE(twin.store()->SetTenantQuota(3, 0).ok());  // shut out tenant 3
  ASSERT_TRUE(twin.Start().ok());

  net::NetServerOptions nopts;
  nopts.retry_after_micros = 555;
  net::NetServer server(twin.router(), nopts);
  ASSERT_TRUE(server.Start().ok());

  net::NetClient starved;
  ASSERT_TRUE(starved.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(starved.SetTenant(3).ok());
  net::Request req;
  req.type = net::MsgType::kQueryTwoSided;
  req.structure_id = two.value();
  net::Response resp;
  ASSERT_TRUE(starved.Call(req, &resp).ok());
  EXPECT_EQ(resp.type, net::MsgType::kRetryAfter);
  EXPECT_EQ(resp.retry_after_micros, 555u);

  // A quiet tenant on its own connection is untouched.
  net::NetClient quiet;
  ASSERT_TRUE(quiet.Connect("127.0.0.1", server.port()).ok());
  std::vector<Point> got;
  EXPECT_TRUE(quiet.QueryTwoSided(two.value(), TwoSidedQuery{0, 0}, &got).ok());

  server.Stop();
  twin.Stop();
}

}  // namespace
}  // namespace pathcache
