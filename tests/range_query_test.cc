// Algorithm 5 (range query) against the linear-scan oracle.

#include "core/query/range_query.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <set>
#include <utility>

#include "baseline/linear_scan.h"
#include "core/query/query_engine.h"
#include "core/query/reference_impls.h"
#include "gen/building_generator.h"
#include "gen/object_generator.h"
#include "gen/query_generator.h"
#include "indoor/sample_plans.h"
#include "util/metrics.h"

namespace indoor {
namespace {

class RangeQueryTest : public ::testing::Test {
 protected:
  RangeQueryTest()
      : plan_(MakeRunningExamplePlan(&ids_)), index_(plan_) {}

  ObjectId Add(PartitionId v, Point p) {
    auto id = index_.objects().Insert(v, p);
    EXPECT_TRUE(id.ok()) << id.status();
    return id.value();
  }

  RunningExampleIds ids_;
  FloorPlan plan_;
  IndexFramework index_;
};

TEST_F(RangeQueryTest, FindsObjectsInHostPartition) {
  const ObjectId near = Add(ids_.v11, {1.5, 1.5});
  Add(ids_.v11, {3.9, 3.9});
  const auto result = RangeQuery(index_, {1, 1}, 1.0);
  EXPECT_EQ(result, std::vector<ObjectId>{near});
}

TEST_F(RangeQueryTest, FindsObjectsAcrossDoors) {
  // Query in v11, object in the hallway just beyond d11.
  const ObjectId obj = Add(ids_.v10, {2, 5});
  // Walking distance: (2,2) -> d11 (2,4) = 2, then d11 -> (2,5) = 1.
  auto result = RangeQuery(index_, {2, 2}, 3.0);
  EXPECT_EQ(result, std::vector<ObjectId>{obj});
  result = RangeQuery(index_, {2, 2}, 2.9);
  EXPECT_TRUE(result.empty());
}

TEST_F(RangeQueryTest, RespectsDoorDirectionality) {
  // Object in room 12; query in the hallway. Entering v12 requires the
  // long route through room 13 and the one-way d15.
  const ObjectId obj = Add(ids_.v12, {6, 2});
  const Point q(5, 4.5);  // hallway, 0.5 above d12 — but d12 cannot enter
  // Walking distance: q -> d13 -> d15 -> (6,2):
  const double legs = Distance(q, Point(10, 4)) + std::sqrt(13.0) +
                      Distance(Point(8, 1), Point(6, 2));
  auto result = RangeQuery(index_, q, legs + 0.01);
  EXPECT_EQ(result, std::vector<ObjectId>{obj});
  result = RangeQuery(index_, q, legs - 0.01);
  EXPECT_TRUE(result.empty());
}

TEST_F(RangeQueryTest, WholePartitionInclusionViaFdv) {
  // A large radius swallows entire partitions through the DPT fdv check.
  for (int i = 0; i < 5; ++i) {
    Add(ids_.v11, {0.5 + i * 0.7, 0.5});
    Add(ids_.v13, {8.5 + i * 0.6, 0.5});
  }
  const auto result = RangeQuery(index_, {6, 5}, 1000.0);
  EXPECT_EQ(result.size(), 10u);
}

TEST_F(RangeQueryTest, MatchesOracleOnRunningExample) {
  Rng rng(31);
  const auto objects = GenerateObjects(plan_, 60, &rng);
  PopulateStore(objects, &index_.objects());
  const DistanceContext ctx = index_.distance_context();
  for (int trial = 0; trial < 20; ++trial) {
    const Point q = RandomIndoorPosition(plan_, &rng);
    for (double r : {2.0, 5.0, 10.0, 25.0, 60.0}) {
      const auto expect = LinearScanRange(ctx, index_.objects(), q, r);
      EXPECT_EQ(RangeQuery(index_, q, r), expect)
          << "with index, q=" << q << " r=" << r;
      EXPECT_EQ(RangeQuery(index_, q, r, {.use_index_matrix = false}),
                expect)
          << "without index, q=" << q << " r=" << r;
    }
  }
}

TEST_F(RangeQueryTest, EmptyForOutsideQuery) {
  Add(ids_.v11, {1, 1});
  EXPECT_TRUE(RangeQuery(index_, {1000, 1000}, 50.0).empty());
}

TEST_F(RangeQueryTest, NegativeRadiusIsEmpty) {
  Add(ids_.v11, {1, 1});
  EXPECT_TRUE(RangeQuery(index_, {1, 1}, -1.0).empty());
}

TEST_F(RangeQueryTest, ZeroRadiusFindsColocatedObject) {
  const ObjectId obj = Add(ids_.v11, {1, 1});
  EXPECT_EQ(RangeQuery(index_, {1, 1}, 0.0), std::vector<ObjectId>{obj});
}

TEST(RangeQueryObstacleTest, HostPartitionReachedThroughOtherRoom) {
  // Paper Fig. 5: an object near q is within range of p only through
  // room 1, even though both are in room 2.
  ObstacleExampleIds ids;
  FloorPlan plan = MakeObstacleExamplePlan(&ids);
  IndexFramework index(plan);
  const auto obj = index.objects().Insert(ids.room2, ids.q);
  ASSERT_TRUE(obj.ok());
  // True walking distance p -> q is 12 (via room 1); intra-room weave ~28.
  const auto result = RangeQuery(index, ids.p, 12.5);
  EXPECT_EQ(result, std::vector<ObjectId>{obj.value()});
  EXPECT_TRUE(RangeQuery(index, ids.p, 11.5).empty());
}

TEST(RangeQueryGeneratedTest, MatchesOracleOnGeneratedBuilding) {
  BuildingConfig config;
  config.floors = 3;
  config.rooms_per_floor = 12;
  config.seed = 11;
  FloorPlan plan = GenerateBuilding(config);
  IndexFramework index(plan);
  Rng rng(13);
  PopulateStore(GenerateObjects(plan, 300, &rng), &index.objects());
  const DistanceContext ctx = index.distance_context();
  for (int trial = 0; trial < 10; ++trial) {
    const Point q = RandomIndoorPosition(plan, &rng);
    for (double r : {5.0, 15.0, 30.0, 80.0}) {
      const auto expect = LinearScanRange(ctx, index.objects(), q, r);
      EXPECT_EQ(RangeQuery(index, q, r), expect);
      EXPECT_EQ(RangeQuery(index, q, r, {.use_index_matrix = false}),
                expect);
    }
  }
}

// Distinct (partition, door) DPT sides of Qr(q, r)'s door expansion,
// counted on the flat Md2d matrix: a door counts when some leave door of
// q's host reaches it within r.
size_t DistinctSides(const IndexFramework& flat, const Point& q, double r) {
  const FloorPlan& plan = flat.plan();
  const PartitionId v = flat.locator().GetHostPartition(q).value();
  const std::vector<DoorId>& src = plan.LeaveDoors(v);
  std::vector<double> leg(src.size());
  GeodesicScratch geo;
  flat.locator().DistVMany(v, q, src, &geo, leg.data());
  std::set<std::pair<PartitionId, DoorId>> sides;
  for (size_t i = 0; i < src.size(); ++i) {
    const double r1 = r - leg[i];
    if (!(r1 >= 0)) continue;
    const double* row = flat.d2d_matrix().Row(src[i]);
    for (DoorId dj = 0; dj < plan.door_count(); ++dj) {
      if (row[dj] > r1) continue;
      for (const PartitionId part : {flat.dpt()[dj].part1,
                                     flat.dpt()[dj].part2}) {
        if (part != kInvalidId) sides.insert({part, dj});
      }
    }
  }
  return sides.size();
}

// Bucket searches so far (always 0 in a metrics-OFF build).
uint64_t GridSearches() {
#if INDOOR_METRICS_ENABLED
  return metrics::MetricsRegistry::Global()
      .GetCounter("index.grid.searches")
      .Value();
#else
  return 0;
#endif
}

// A hallway host has many leave doors, and their expansions reach the same
// (partition, door) sides over and over. From q in every hallway, the
// Midx, full-row and hierarchy engines, cache off and on (a miss, then a
// hit), must return reference::RangeQuery's answer on a flat cache-off
// engine bit for bit, in strictly ascending id order. A fresh query
// searches the host bucket and each distinct side's bucket at most once.
void CheckHallwayHosts(const BuildingConfig& config) {
  IndexOptions off;
  off.enable_query_cache = false;
  IndexOptions on;
  IndexOptions hier_off = off;
  hier_off.use_hierarchy = true;
  IndexOptions hier_on = on;
  hier_on.use_hierarchy = true;
  QueryEngine flat(GenerateBuilding(config), off);
  QueryEngine flat_cached(GenerateBuilding(config), on);
  QueryEngine hier(GenerateBuilding(config), hier_off);
  QueryEngine hier_cached(GenerateBuilding(config), hier_on);
  Rng rng(config.seed + 1);
  const auto objects = GenerateObjects(flat.plan(), 400, &rng);
  for (QueryEngine* engine : {&flat, &flat_cached, &hier, &hier_cached}) {
    PopulateStore(objects, &engine->index().objects());
  }
  struct Config {
    const QueryEngine* engine;
    bool use_index_matrix;
    bool cached;
    const char* name;
  };
  const Config configs[] = {
      {&flat, true, false, "Midx, cache off"},
      {&flat, false, false, "full row, cache off"},
      {&hier, true, false, "hierarchy, cache off"},
      {&flat_cached, true, true, "Midx, cache on"},
      {&flat_cached, false, true, "full row, cache on"},
      {&hier_cached, true, true, "hierarchy, cache on"}};
  size_t hallways = 0;
  for (const Partition& part : flat.plan().partitions()) {
    if (part.kind() != PartitionKind::kHallway) continue;
    ++hallways;
    const Point q = RandomPointInPartition(part, &rng);
    for (const double r :
         {0.0, 7.5, 30.0, std::numeric_limits<double>::infinity()}) {
      SCOPED_TRACE(testing::Message() << part.name() << " q=" << q
                                      << " r=" << r);
      const std::vector<ObjectId> expect =
          reference::RangeQuery(flat.index(), q, r);
      EXPECT_EQ(std::adjacent_find(expect.begin(), expect.end(),
                                   std::greater_equal<>()),
                expect.end())
          << "not strictly ascending";
      const size_t sides = DistinctSides(flat.index(), q, r);
      for (const Config& c : configs) {
        SCOPED_TRACE(c.name);
        const RangeQueryOptions options{.use_index_matrix =
                                            c.use_index_matrix};
        const uint64_t searches = GridSearches();
        EXPECT_EQ(c.engine->Range(q, r, options), expect);
        EXPECT_LE(GridSearches() - searches, 1 + sides);
        if (c.cached) {
          EXPECT_EQ(c.engine->Range(q, r, options), expect);  // a hit
        }
      }
    }
  }
  EXPECT_EQ(hallways, static_cast<size_t>(config.floors));
}

TEST(RangeQueryHallwayTest, MatchesReferenceFromEveryHallway) {
  BuildingConfig config;
  config.floors = 3;
  config.rooms_per_floor = 12;
  config.obstacle_probability = 0.5;
  config.seed = 17;
  CheckHallwayHosts(config);
}

TEST(RangeQueryHallwayTest, MatchesReferenceWithRoomToRoomAndOneWayDoors) {
  BuildingConfig config;
  config.floors = 3;
  config.rooms_per_floor = 12;
  config.obstacle_probability = 0.5;
  config.room_to_room_doors = 0.4;
  config.one_way_fraction = 0.5;
  config.seed = 23;
  CheckHallwayHosts(config);
}

TEST_F(RangeQueryTest, RangeMonotonicInRadius) {
  Rng rng(41);
  PopulateStore(GenerateObjects(plan_, 40, &rng), &index_.objects());
  const Point q(6, 5);
  size_t prev = 0;
  for (double r : {1.0, 3.0, 8.0, 20.0, 50.0, 200.0}) {
    const size_t count = RangeQuery(index_, q, r).size();
    EXPECT_GE(count, prev);
    prev = count;
  }
}

}  // namespace
}  // namespace indoor
