// Golden equivalence suite for the one-to-many geodesic solver, the CSR
// graph layouts, and the QueryScratch-based hot path: every optimized
// entry point must return EXACTLY the values of the historical per-door /
// per-object implementations (kept verbatim in core/query/reference_impls),
// on randomized buildings with and without obstructed rooms. Also exercises
// concurrent queries with per-thread scratch (run under TSan in CI).

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <thread>

#include "core/distance/pt2pt_distance.h"
#include "core/distance/query_scratch.h"
#include "core/query/query_engine.h"
#include "core/query/reference_impls.h"
#include "gen/building_generator.h"
#include "gen/object_generator.h"
#include "gen/query_generator.h"

namespace indoor {
namespace {

BuildingConfig SmallBuilding(uint64_t seed, double obstacle_probability) {
  BuildingConfig config;
  config.floors = 3;
  config.rooms_per_floor = 10;
  config.room_to_room_doors = 0.3;
  config.obstacle_probability = obstacle_probability;
  config.seed = seed;
  return config;
}

// --------------------------------------------------------------- geometry

TEST(OneToManyTest, IntraDistancesMatchPerTargetExactly) {
  for (const double obstacles : {0.0, 1.0}) {
    const FloorPlan plan =
        GenerateBuilding(SmallBuilding(211, obstacles));
    Rng rng(223);
    GeodesicScratch scratch;
    for (PartitionId v = 0; v < plan.partition_count(); ++v) {
      const Partition& part = plan.partition(v);
      // Source inside the partition; targets mix its door midpoints (the
      // hot-path case) with random indoor points (some outside -> infinity).
      const Point source = RandomPointInPartition(part, &rng);
      std::vector<Point> targets;
      for (DoorId d : plan.EnterDoors(v)) {
        targets.push_back(plan.door(d).Midpoint());
      }
      for (int i = 0; i < 4; ++i) {
        targets.push_back(RandomIndoorPosition(plan, &rng));
      }
      std::vector<double> batched(targets.size());
      part.IntraDistancesToMany(source, targets, &scratch, batched.data());
      for (size_t i = 0; i < targets.size(); ++i) {
        EXPECT_EQ(batched[i], part.IntraDistance(source, targets[i]))
            << "partition " << v << " target " << i << " obstacles "
            << obstacles;
      }
    }
  }
}

/// Points where float ties and visibility grazes concentrate: the
/// bounding-box corners; on every wall, points at 1/2 and at a random
/// fraction, exactly on the wall (an axis-parallel wall keeps its
/// coordinate), 1 ulp to either side of it, and 1e-12, 1e-9, 1e-7 and 2e-7
/// inside and outside; and each obstacle edge's start, midpoint and a
/// random point on it.
std::vector<Point> BoundaryProbePoints(const ObstructedRegion& region,
                                       Rng* rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const Rect& box = region.outer().BoundingBox();
  std::vector<Point> points = {box.lo, box.hi, {box.lo.x, box.hi.y},
                               {box.hi.x, box.lo.y}};
  const std::vector<Point>& ring = region.outer().vertices();
  for (size_t i = 0; i < ring.size(); ++i) {
    const Point a = ring[i];
    const Point b = ring[(i + 1) % ring.size()];
    const double len = Distance(a, b);
    // Rings are counter-clockwise, so the interior is on the left.
    const Point inward((a.y - b.y) / len, (b.x - a.x) / len);
    for (const double t : {0.5, rng->NextDouble()}) {
      Point wall = Lerp(a, b, t);
      if (a.y == b.y) wall.y = a.y;
      if (a.x == b.x) wall.x = a.x;
      points.push_back(wall);
      if (a.y == b.y) {
        points.push_back({wall.x, std::nextafter(wall.y, kInf)});
        points.push_back({wall.x, std::nextafter(wall.y, -kInf)});
      } else if (a.x == b.x) {
        points.push_back({std::nextafter(wall.x, kInf), wall.y});
        points.push_back({std::nextafter(wall.x, -kInf), wall.y});
      }
      for (const double offset : {1e-12, 1e-9, 1e-7, 2e-7}) {
        points.push_back(wall + inward * offset);
        points.push_back(wall - inward * offset);
      }
    }
  }
  for (const Polygon& obstacle : region.obstacles()) {
    for (size_t i = 0; i < obstacle.size(); ++i) {
      const Segment edge = obstacle.Edge(i);
      points.push_back(edge.a);
      points.push_back(edge.Midpoint());
      points.push_back(Lerp(edge.a, edge.b, rng->NextDouble()));
    }
  }
  return points;
}

/// Bit-for-bit equality: tells 0.0 from -0.0, and NaN equals itself.
bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Checks IntraDistancesToMany (each point as the source) and
/// IntraDistancesFromMany (each point as the target) bit for bit against
/// per-pair IntraDistance over all ordered pairs of `points`, and adds the
/// number of pairs checked to `*pairs`.
void ExpectBatchedMatchPerPair(const Partition& part,
                               const std::vector<Point>& points,
                               GeodesicScratch* scratch, size_t* pairs) {
  const size_t n = points.size();
  std::vector<double> expect(n * n);
  for (size_t s = 0; s < n; ++s) {
    for (size_t t = 0; t < n; ++t) {
      expect[s * n + t] = part.IntraDistance(points[s], points[t]);
    }
  }
  std::vector<double> batched(n);
  for (size_t s = 0; s < n; ++s) {
    part.IntraDistancesToMany(points[s], points, scratch, batched.data());
    for (size_t t = 0; t < n; ++t) {
      ASSERT_TRUE(SameBits(batched[t], expect[s * n + t]))
          << "to-many: source " << points[s] << " target " << points[t]
          << ": " << batched[t] << " vs " << expect[s * n + t];
    }
  }
  for (size_t t = 0; t < n; ++t) {
    part.IntraDistancesFromMany(points, points[t], scratch, batched.data());
    for (size_t s = 0; s < n; ++s) {
      ASSERT_TRUE(SameBits(batched[s], expect[s * n + t]))
          << "from-many: source " << points[s] << " target " << points[t]
          << ": " << batched[s] << " vs " << expect[s * n + t];
    }
  }
  *pairs += 2 * n * n;
}

// The batched solvers must equal the per-pair solve bit for bit on the
// boundary-heavy points too, where an exact fast path would first break.
TEST(OneToManyTest, IntraDistancesMatchPerTargetOnBoundaries) {
  size_t pairs = 0;
  for (const uint64_t seed : {307, 311, 313}) {
    BuildingConfig config = SmallBuilding(seed, 0.5);
    config.floors = 2;
    const FloorPlan plan = GenerateBuilding(config);
    Rng rng(seed);
    GeodesicScratch scratch;
    for (PartitionId v = 0; v < plan.partition_count(); ++v) {
      const Partition& part = plan.partition(v);
      std::vector<Point> points = BoundaryProbePoints(part.footprint(), &rng);
      for (const DoorId d : plan.EnterDoors(v)) {
        points.push_back(plan.door(d).Midpoint());
      }
      for (const DoorId d : plan.LeaveDoors(v)) {
        points.push_back(plan.door(d).Midpoint());
      }
      SCOPED_TRACE(testing::Message() << "seed " << seed << " partition " << v);
      ExpectBatchedMatchPerPair(part, points, &scratch, &pairs);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(pairs, 1000000u);
}

// Hand-built rectangles on both sides of the fast path's conditions: near
// 1e5 and at the magnitude bound 2^19 (fast path), near 1e6 (beyond the
// bound: full test), and 5 cm and 0.1 mm thin, each with and without a
// pillar. Random interior points and non-finite points ride along.
TEST(OneToManyTest, IntraDistancesMatchPerPairOnHandBuiltRectangles) {
  constexpr double kBound = 524288.0;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<Rect> rooms = {
      Rect(100000.3, -100020.1, 100012.7, -100005.9),
      Rect(-kBound, -kBound, kBound, kBound),
      Rect(kBound - 10.5, kBound - 6.25, kBound, kBound),
      Rect(1e6, 1e6 + 3.0, 1e6 + 12.5, 1e6 + 9.25),
      Rect(3.0, 1.0, 3.05, 9.0),
      Rect(-2.0, 4.0, 1.0, 4.0001),
  };
  Rng rng(331);
  GeodesicScratch scratch;
  size_t pairs = 0;
  for (const Rect& room : rooms) {
    for (const bool pillar : {false, true}) {
      std::vector<Polygon> obstacles;
      if (pillar) {
        const Point c = room.Center();
        const double hx = room.Width() / 10;
        const double hy = room.Height() / 10;
        obstacles.push_back(
            Polygon::FromRect(Rect(c.x - hx, c.y - hy, c.x + hx, c.y + hy)));
      }
      auto region = ObstructedRegion::Create(Polygon::FromRect(room),
                                             std::move(obstacles));
      ASSERT_TRUE(region.ok()) << region.status();
      const Partition part(0, "room", PartitionKind::kRoom, 0,
                           std::move(region).value(), 1.25);
      std::vector<Point> points = BoundaryProbePoints(part.footprint(), &rng);
      for (int i = 0; i < 8; ++i) {
        points.push_back({rng.NextDouble(room.lo.x, room.hi.x),
                          rng.NextDouble(room.lo.y, room.hi.y)});
      }
      points.push_back({std::nan(""), room.lo.y});
      points.push_back({room.hi.x, kInf});
      points.push_back({-kInf, room.Center().y});
      SCOPED_TRACE(testing::Message()
                   << "room " << room << (pillar ? " with pillar" : ""));
      ExpectBatchedMatchPerPair(part, points, &scratch, &pairs);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(pairs, 100000u);
}

TEST(OneToManyTest, DistVManyMatchesPerDoorExactly) {
  for (const double obstacles : {0.0, 1.0}) {
    const FloorPlan plan =
        GenerateBuilding(SmallBuilding(227, obstacles));
    const PartitionLocator locator(plan);
    Rng rng(229);
    GeodesicScratch scratch;
    const auto queries = GenerateQueryPositions(plan, 32, &rng);
    for (const Point& q : queries) {
      const auto host = locator.GetHostPartition(q);
      ASSERT_TRUE(host.ok());
      const PartitionId v = host.value();
      // All doors, including ones not touching v (must report infinity).
      std::vector<DoorId> doors(plan.door_count());
      for (DoorId d = 0; d < plan.door_count(); ++d) doors[d] = d;
      std::vector<double> batched(doors.size());
      locator.DistVMany(v, q, doors, &scratch, batched.data());
      for (DoorId d = 0; d < plan.door_count(); ++d) {
        EXPECT_EQ(batched[d], locator.DistV(v, q, d)) << "door " << d;
      }
    }
  }
}

// ------------------------------------------------------------- door graph

TEST(OneToManyTest, CsrD2dMatchesReferenceExactly) {
  const FloorPlan plan = GenerateBuilding(SmallBuilding(233, 0.5));
  const DistanceGraph graph(plan);
  DoorDijkstraScratch scratch;
  Rng rng(239);
  for (int i = 0; i < 64; ++i) {
    const DoorId a = static_cast<DoorId>(rng.NextIndex(plan.door_count()));
    const DoorId b = static_cast<DoorId>(rng.NextIndex(plan.door_count()));
    const double expect = reference::D2dDistance(graph, a, b);
    EXPECT_EQ(D2dDistance(graph, a, b), expect);
    EXPECT_EQ(D2dDistance(graph, a, b, &scratch), expect);
  }
}

TEST(OneToManyTest, DoorCsrAgreesWithFd2d) {
  const FloorPlan plan = GenerateBuilding(SmallBuilding(241, 0.0));
  const DistanceGraph graph(plan);
  // Every CSR edge must carry the exact fd2d weight it was built from, and
  // the reverse CSR must be the exact transpose of the forward CSR.
  size_t forward_edges = 0;
  size_t reverse_edges = 0;
  for (DoorId d = 0; d < plan.door_count(); ++d) {
    for (const DoorGraphEdge& e : graph.DoorEdges(d)) {
      ++forward_edges;
      EXPECT_EQ(e.weight, graph.Fd2d(e.via, d, e.to));
      bool found = false;
      for (const DoorGraphEdge& r : graph.ReverseDoorEdges(e.to)) {
        if (r.to == d && r.via == e.via && r.weight == e.weight) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "edge " << d << "->" << e.to
                         << " missing from reverse CSR";
    }
    reverse_edges += graph.ReverseDoorEdges(d).size();
  }
  EXPECT_GT(forward_edges, 0u);
  EXPECT_EQ(forward_edges, reverse_edges);
}

// ------------------------------------------------------------ query paths

TEST(OneToManyTest, Pt2PtVariantsMatchReferenceExactly) {
  for (const double obstacles : {0.0, 0.7}) {
    const FloorPlan plan =
        GenerateBuilding(SmallBuilding(251, obstacles));
    const DistanceGraph graph(plan);
    const PartitionLocator locator(plan);
    const DistanceContext ctx(graph, locator);
    Rng rng(257);
    const auto pairs = GeneratePositionPairsByArea(plan, 24, &rng);
    QueryScratch scratch;
    for (const auto& [ps, pt] : pairs) {
      const double basic = reference::Pt2PtDistanceBasic(ctx, ps, pt);
      const double refined = reference::Pt2PtDistanceRefined(ctx, ps, pt);
      // Null scratch (thread-local arena) and explicit scratch.
      EXPECT_EQ(Pt2PtDistanceBasic(ctx, ps, pt), basic);
      EXPECT_EQ(Pt2PtDistanceBasic(ctx, ps, pt, &scratch), basic);
      EXPECT_EQ(Pt2PtDistanceRefined(ctx, ps, pt), refined);
      EXPECT_EQ(Pt2PtDistanceRefined(ctx, ps, pt, &scratch), refined);
      // Hinted contexts (known host partitions) must not change results.
      const auto vs = locator.GetHostPartition(ps);
      const auto vt = locator.GetHostPartition(pt);
      if (vs.ok() && vt.ok()) {
        const DistanceContext hinted = ctx.WithHints(vs.value(), vt.value());
        EXPECT_EQ(Pt2PtDistanceRefined(hinted, ps, pt, &scratch), refined);
        EXPECT_EQ(Pt2PtDistanceBasic(hinted, ps, pt, &scratch), basic);
      }
      // Reuse/Virtual are independent algorithms (different addition
      // orders), so they match Refined only mathematically — but explicit
      // scratch must be bit-identical to their own null-scratch (TLS) runs.
      const double vvirt = Pt2PtDistanceVirtual(ctx, ps, pt);
      const double vreuse = Pt2PtDistanceReuse(ctx, ps, pt);
      EXPECT_EQ(Pt2PtDistanceVirtual(ctx, ps, pt, &scratch), vvirt);
      EXPECT_EQ(
          Pt2PtDistanceReuse(ctx, ps, pt, ReusePolicy::kSafe, &scratch),
          vreuse);
      if (refined < kInfDistance) {
        EXPECT_NEAR(vvirt, refined, 1e-6 * (1.0 + refined));
        EXPECT_NEAR(vreuse, refined, 1e-6 * (1.0 + refined));
      }
    }
  }
}

TEST(OneToManyTest, RangeAndKnnMatchReferenceExactly) {
  for (const double obstacles : {0.0, 0.7}) {
    BuildingConfig config = SmallBuilding(263, obstacles);
    QueryEngine engine(GenerateBuilding(config));
    Rng rng(269);
    PopulateStore(GenerateObjects(engine.plan(), 400, &rng),
                  &engine.index().objects());
    const auto queries = GenerateQueryPositions(engine.plan(), 24, &rng);
    QueryScratch scratch;
    for (const Point& q : queries) {
      for (const double r : {5.0, 20.0, 60.0}) {
        const auto expect = reference::RangeQuery(engine.index(), q, r);
        EXPECT_EQ(RangeQuery(engine.index(), q, r), expect);
        EXPECT_EQ(RangeQuery(engine.index(), q, r, {}, &scratch), expect);
      }
      for (const size_t k : {1u, 5u, 25u}) {
        const auto expect = reference::KnnQuery(engine.index(), q, k);
        EXPECT_EQ(KnnQuery(engine.index(), q, k), expect);
        EXPECT_EQ(KnnQuery(engine.index(), q, k, {}, &scratch), expect);
      }
    }
  }
}

TEST(OneToManyTest, ScratchSurvivesAcrossEngines) {
  // One scratch reused against two different buildings: the geodesic source
  // cache must revalidate (it is keyed on region identity + source), never
  // leak values across plans.
  QueryScratch scratch;
  for (const uint64_t seed : {271u, 277u}) {
    const FloorPlan plan = GenerateBuilding(SmallBuilding(seed, 0.5));
    const DistanceGraph graph(plan);
    const PartitionLocator locator(plan);
    const DistanceContext ctx(graph, locator);
    Rng rng(seed + 1);
    const auto pairs = GeneratePositionPairsByArea(plan, 12, &rng);
    for (const auto& [ps, pt] : pairs) {
      EXPECT_EQ(Pt2PtDistanceRefined(ctx, ps, pt, &scratch),
                reference::Pt2PtDistanceRefined(ctx, ps, pt));
    }
  }
}

// ------------------------------------------------------------ concurrency

TEST(OneToManyTest, ConcurrentQueriesWithPerThreadScratch) {
  QueryEngine engine(GenerateBuilding(SmallBuilding(281, 0.5)));
  Rng rng(283);
  PopulateStore(GenerateObjects(engine.plan(), 300, &rng),
                &engine.index().objects());
  const auto queries = GenerateQueryPositions(engine.plan(), 48, &rng);
  const auto pairs = GeneratePositionPairsByArea(engine.plan(), 48, &rng);
  const DistanceContext ctx = engine.index().distance_context();

  // Sequential golden answers.
  std::vector<double> expect_dist(pairs.size());
  std::vector<std::vector<ObjectId>> expect_range(queries.size());
  std::vector<std::vector<Neighbor>> expect_knn(queries.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    expect_dist[i] =
        Pt2PtDistanceRefined(ctx, pairs[i].first, pairs[i].second);
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    expect_range[i] = engine.Range(queries[i], 20.0);
    expect_knn[i] = engine.Nearest(queries[i], 10);
  }

  std::atomic<size_t> next{0};
  std::atomic<int> mismatches{0};
  auto worker = [&] {
    QueryScratch scratch;  // one scratch per thread, used for every query
    for (size_t i = next.fetch_add(1); i < pairs.size();
         i = next.fetch_add(1)) {
      if (Pt2PtDistanceRefined(ctx, pairs[i].first, pairs[i].second,
                               &scratch) != expect_dist[i]) {
        ++mismatches;
      }
      const size_t qi = i % queries.size();
      if (engine.Range(queries[qi], 20.0, {}, &scratch) !=
          expect_range[qi]) {
        ++mismatches;
      }
      if (engine.Nearest(queries[qi], 10, {}, &scratch) != expect_knn[qi]) {
        ++mismatches;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(OneToManyTest, ConcurrentQueriesWithThreadLocalScratch) {
  // Null-scratch callers fall back to TlsQueryScratch(); concurrent use
  // must stay correct and race-free.
  QueryEngine engine(GenerateBuilding(SmallBuilding(293, 0.3)));
  Rng rng(307);
  PopulateStore(GenerateObjects(engine.plan(), 200, &rng),
                &engine.index().objects());
  const auto queries = GenerateQueryPositions(engine.plan(), 32, &rng);
  std::vector<std::vector<Neighbor>> expect(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    expect[i] = engine.Nearest(queries[i], 5);
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      for (size_t i = 0; i < queries.size(); ++i) {
        if (engine.Nearest(queries[i], 5) != expect[i]) ++mismatches;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace indoor
