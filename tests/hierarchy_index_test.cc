// The hierarchy-vs-flat bitwise equality suite (the oracle contract of
// core/index/hierarchy_index.h): on randomized multi-building campus
// plans, every pt2pt, range, and kNN answer served through the
// partition-contraction hierarchy must be BIT-identical to the flat
// Md2d/Midx engine's — not approximately equal, the same doubles — with
// the cache on or off.

#include "core/index/hierarchy_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/distance/hierarchy_distance.h"
#include "core/distance/query_scratch.h"
#include "core/query/query_engine.h"
#include "gen/building_generator.h"
#include "gen/object_generator.h"
#include "gen/query_generator.h"
#include "indoor/floor_plan_builder.h"
#include "indoor/sample_plans.h"
#include "util/metrics.h"

namespace indoor {
namespace {

/// Bit-level double equality: distinguishes everything == cannot (NaN
/// payloads, -0.0 vs 0.0); the equality we actually promise.
bool BitEq(double a, double b) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

FloorPlan MakeCampus(int buildings, int floors, int rooms, uint64_t seed,
                     double room_to_room_doors = 0.0,
                     double one_way_fraction = 0.0,
                     double obstacle_probability = 0.0) {
  CampusConfig config;
  config.buildings = buildings;
  config.building.floors = floors;
  config.building.rooms_per_floor = rooms;
  config.building.room_to_room_doors = room_to_room_doors;
  config.building.one_way_fraction = one_way_fraction;
  config.building.obstacle_probability = obstacle_probability;
  config.seed = seed;
  config.building.seed = seed;
  return GenerateCampus(config);
}

/// A campus with room-to-room doors, half of them one-way, and obstacles
/// in half the rooms: a directed door graph and obstructed legs.
FloorPlan MakeHostileCampus(int buildings, int floors, int rooms,
                            uint64_t seed) {
  return MakeCampus(buildings, floors, rooms, seed, 0.4, 0.5, 0.5);
}

IndexOptions HierOptions(bool cache, unsigned cell_target) {
  IndexOptions options;
  options.use_hierarchy = true;
  options.hierarchy_cell_target = cell_target;
  options.enable_query_cache = cache;
  return options;
}

IndexOptions FlatOptions(bool cache) {
  IndexOptions options;
  options.enable_query_cache = cache;
  return options;
}

/// Runs the same randomized mixed workload through both engines and
/// demands bitwise-identical answers everywhere. The hierarchy must have
/// more than one cell, so that cross-cell paths are exercised, unless the
/// case is meant to fit in `one_cell`.
void ExpectEngineEquality(const FloorPlan& plan, bool cache,
                          unsigned cell_target, uint64_t seed,
                          size_t pt2pt_pairs = 60, bool one_cell = false) {
  QueryEngine flat(plan, FlatOptions(cache));
  QueryEngine hier(plan, HierOptions(cache, cell_target));
  ASSERT_TRUE(hier.index().hierarchy_index().valid());
  if (one_cell) {
    ASSERT_EQ(hier.index().hierarchy_index().cell_count(), 1u);
  } else {
    ASSERT_GT(hier.index().hierarchy_index().cell_count(), 1u);
  }

  Rng flat_rng(seed), hier_rng(seed);
  PopulateStore(GenerateObjects(flat.plan(), 400, &flat_rng),
                &flat.index().objects());
  PopulateStore(GenerateObjects(hier.plan(), 400, &hier_rng),
                &hier.index().objects());

  Rng rng(seed ^ 0x9E3779B97F4A7C15ULL);
  const auto pairs = GeneratePositionPairs(plan, pt2pt_pairs, &rng);
  const auto positions = GenerateQueryPositions(plan, 60, &rng);

  for (const auto& [a, b] : pairs) {
    const double df = flat.Distance(a, b);
    const double dh = hier.Distance(a, b);
    EXPECT_TRUE(BitEq(df, dh))
        << "pt2pt mismatch: flat " << df << " vs hierarchy " << dh;
  }
  for (size_t i = 0; i < positions.size(); ++i) {
    const double r = 5.0 + static_cast<double>(i % 7) * 10.0;
    const auto rf = flat.Range(positions[i], r);
    const auto rh = hier.Range(positions[i], r);
    EXPECT_EQ(rf, rh) << "range mismatch at r=" << r;

    const size_t k = 1 + i % 13;
    const auto kf = flat.Nearest(positions[i], k);
    const auto kh = hier.Nearest(positions[i], k);
    ASSERT_EQ(kf.size(), kh.size()) << "kNN cardinality mismatch at k=" << k;
    for (size_t j = 0; j < kf.size(); ++j) {
      EXPECT_EQ(kf[j].id, kh[j].id) << "kNN id mismatch at rank " << j;
      EXPECT_TRUE(BitEq(kf[j].distance, kh[j].distance))
          << "kNN distance mismatch at rank " << j;
    }
  }
}

TEST(HierarchyIndexTest, CampusQueriesMatchFlatBitwise) {
  const FloorPlan plan = MakeCampus(3, 3, 10, 17);
  ExpectEngineEquality(plan, /*cache=*/true, /*cell_target=*/32, /*seed=*/1);
}

TEST(HierarchyIndexTest, CacheOffMatchesFlatBitwise) {
  const FloorPlan plan = MakeCampus(2, 4, 8, 23);
  ExpectEngineEquality(plan, /*cache=*/false, /*cell_target=*/16, /*seed=*/2);
}

TEST(HierarchyIndexTest, TinyCellsStressBorderPaths) {
  // cell_target 1 puts every partition in its own cell: nearly every door
  // is a border door and almost no query can use a block fast path, so
  // the bounded-Dijkstra fallbacks carry the whole workload.
  const FloorPlan plan = MakeCampus(2, 2, 6, 5);
  ExpectEngineEquality(plan, /*cache=*/true, /*cell_target=*/1, /*seed=*/4);
}

TEST(HierarchyIndexTest, RandomizedSeedsSweep) {
  for (uint64_t seed = 100; seed < 104; ++seed) {
    const FloorPlan plan =
        MakeCampus(2 + static_cast<int>(seed % 2), 2, 7, seed);
    ExpectEngineEquality(plan, /*cache=*/(seed % 2) == 0,
                         /*cell_target=*/4 << (seed % 3), seed);
  }
}

TEST(HierarchyIndexTest, HostileCampusMatchesFlatBitwise) {
  // One-way doors make the door graph directed, room-to-room doors add
  // short cuts past the hallways, and obstacles block legs: the
  // goal-directed pt2pt search must still settle every value that
  // reaches an answer, from per-partition cells to whole buildings.
  // Targets 1 and 2 fold no fragment, so nearly every door is a border;
  // at 128 the whole campus is one cell.
  const FloorPlan plan = MakeHostileCampus(3, 3, 8, 61);
  for (const unsigned cell_target : {1u, 2u, 4u, 16u, 128u}) {
    for (const bool cache : {true, false}) {
      SCOPED_TRACE(testing::Message()
                   << "cell_target " << cell_target << " cache " << cache);
      ExpectEngineEquality(plan, cache, cell_target, /*seed=*/61 + cell_target,
                           /*pt2pt_pairs=*/200,
                           /*one_cell=*/cell_target == 128);
    }
  }
}

TEST(HierarchyIndexTest, DoorDistanceMatchesMatrixBitwise) {
  const std::pair<FloorPlan, unsigned> cases[] = {
      {MakeCampus(2, 2, 8, 7), 16}, {MakeHostileCampus(2, 2, 8, 7), 4}};
  for (const auto& [plan, cell_target] : cases) {
    QueryEngine flat(plan, FlatOptions(true));
    QueryEngine hier(plan, HierOptions(true, cell_target));
    const size_t n = plan.door_count();
    for (DoorId s = 0; s < n; ++s) {
      for (DoorId t = 0; t < n; ++t) {
        EXPECT_TRUE(BitEq(flat.DoorDistance(s, t), hier.DoorDistance(s, t)))
            << "door pair (" << s << ", " << t << ") at cell target "
            << cell_target;
      }
    }
  }
}

uint64_t CounterValue(const char* name) {
#if INDOOR_METRICS_ENABLED
  return metrics::MetricsRegistry::Global().GetCounter(name).Value();
#else
  (void)name;
  return 0;
#endif
}

TEST(HierarchyIndexTest, UnreachableDestinationsStartNoRun) {
  // a <-> b -> c <-> d <-> e: the one-way door b -> c is the only way
  // out of {a, b}, so from c, d and e nothing reaches a or b. With one
  // cell per partition every such pair is cross-cell; its potential is
  // +inf at every source door, so no bounded run starts.
  FloorPlanBuilder b;
  PartitionId parts[5];
  for (int i = 0; i < 5; ++i) {
    parts[i] = b.AddPartition(std::string(1, static_cast<char>('a' + i)),
                              PartitionKind::kRoom, 1,
                              Rect(4.0 * i, 0, 4.0 * i + 4.0, 4));
  }
  const auto door_at = [](double x) { return Segment({x, 1.8}, {x, 2.2}); };
  const DoorId ab = b.AddBidirectionalDoor("ab", door_at(4), parts[0], parts[1]);
  b.AddUnidirectionalDoor("bc", door_at(8), parts[1], parts[2]);
  b.AddBidirectionalDoor("cd", door_at(12), parts[2], parts[3]);
  const DoorId de =
      b.AddBidirectionalDoor("de", door_at(16), parts[3], parts[4]);
  auto built = std::move(b).Build();
  ASSERT_TRUE(built.ok());
  const FloorPlan plan = std::move(built).value();
  QueryEngine flat(plan, FlatOptions(false));
  QueryEngine hier(plan, HierOptions(false, 1));

  const Point in_a{2, 2}, in_b{6, 1}, in_d{14, 3}, in_e{18, 2};
  for (const auto& [from, to] : {std::pair{in_d, in_a}, std::pair{in_e, in_b},
                                 std::pair{in_e, in_a}}) {
    const uint64_t runs_before = CounterValue("index.hier.pt2pt.runs");
    EXPECT_EQ(hier.Distance(from, to), kInfDistance);
    EXPECT_EQ(CounterValue("index.hier.pt2pt.runs"), runs_before);
    EXPECT_EQ(flat.Distance(from, to), kInfDistance);
  }
  const uint64_t d2d_before = CounterValue("index.hier.d2d.runs");
  EXPECT_EQ(hier.DoorDistance(de, ab), kInfDistance);
  EXPECT_EQ(CounterValue("index.hier.d2d.runs"), d2d_before);
  // The other way round every pair is reachable and matches bit for bit.
  for (const auto& [from, to] : {std::pair{in_a, in_d}, std::pair{in_b, in_e},
                                 std::pair{in_a, in_e}}) {
    const double want = flat.Distance(from, to);
    EXPECT_LT(want, kInfDistance);
    EXPECT_TRUE(BitEq(hier.Distance(from, to), want));
  }
  EXPECT_TRUE(BitEq(hier.DoorDistance(ab, de), flat.DoorDistance(ab, de)));
}

TEST(HierarchyIndexTest, BlocksAreExactMatrixEntries) {
  // The stored structures themselves, not just query answers: every cell
  // block entry and every border-clique entry must be the flat Md2d value
  // bit for bit (the settle-prefix property of the early-terminated
  // builder runs).
  const FloorPlan plan = MakeCampus(3, 2, 6, 13);
  const DistanceGraph graph(plan);
  const DistanceMatrix md2d(graph);
  const HierarchyIndex hier =
      HierarchyIndex::Build(graph, /*threads=*/1, /*cell_target=*/16);
  ASSERT_TRUE(hier.valid());
  for (uint32_t c = 0; c < hier.cell_count(); ++c) {
    const auto members = hier.CellMembers(c);
    for (uint32_t i = 0; i < members.size(); ++i) {
      const double* row = hier.BlockRow(c, i);
      for (uint32_t j = 0; j < members.size(); ++j) {
        EXPECT_TRUE(BitEq(row[j], md2d.At(members[i], members[j])))
            << "cell " << c << " block (" << i << ", " << j << ")";
      }
    }
  }
  const auto borders = hier.border_doors();
  for (uint32_t b = 0; b < borders.size(); ++b) {
    const double* row = hier.BorderRow(b);
    for (uint32_t j = 0; j < borders.size(); ++j) {
      EXPECT_TRUE(BitEq(row[j], md2d.At(borders[b], borders[j])))
          << "border pair (" << b << ", " << j << ")";
    }
  }
}

TEST(HierarchyIndexTest, StructuralInvariantsHold) {
  // The second plan has the shape of the serving benchmark's campus (six
  // buildings of 30 rooms per floor), with fewer floors.
  struct Case {
    FloorPlan plan;
    unsigned cell_target;
    size_t max_cell_borders;
  };
  const Case cases[] = {{MakeCampus(3, 2, 8, 29), 24, 3},
                        {MakeCampus(6, 2, 30, 1, 0.0, 0.0, 0.5), 128, 6}};
  for (const auto& [plan, cell_target, max_cell_borders] : cases) {
    SCOPED_TRACE(testing::Message() << plan.door_count() << " doors, cell "
                                    << "target " << cell_target);
    const DistanceGraph graph(plan);
    const DistanceMatrix md2d(graph);
    const HierarchyIndex hier = HierarchyIndex::Build(graph, 1, cell_target);
    ASSERT_TRUE(hier.valid());
    EXPECT_EQ(hier.door_count(), plan.door_count());

    // Every door is a member of the cell(s) of its partitions, member
    // lists ascend, and LocalIndex agrees with the list position.
    size_t member_total = 0;
    for (uint32_t c = 0; c < hier.cell_count(); ++c) {
      const auto members = hier.CellMembers(c);
      member_total += members.size();
      for (uint32_t i = 0; i + 1 < members.size(); ++i) {
        EXPECT_LT(members[i], members[i + 1]);
      }
      for (uint32_t i = 0; i < members.size(); ++i) {
        EXPECT_EQ(hier.LocalIndex(c, members[i]), i);
      }
      EXPECT_LE(hier.CellBorderLocals(c).size(), max_cell_borders)
          << "cell " << c;
    }
    EXPECT_GE(member_total, plan.door_count());

    // Border doors are exactly the doors whose two cells differ, and the
    // escape radius of a border door is 0 in both its cells.
    for (DoorId d = 0; d < plan.door_count(); ++d) {
      const auto cells = hier.CellsOfDoor(d);
      const bool is_border = cells[1] != HierarchyIndex::kNone;
      EXPECT_EQ(hier.IsBorder(d), is_border) << "door " << d;
      if (is_border) {
        const uint32_t b = hier.BorderIndexOf(d);
        EXPECT_EQ(hier.border_doors()[b], d);
        EXPECT_EQ(hier.EscapeRadius(cells[0], hier.LocalIndex(cells[0], d)),
                  0.0);
        EXPECT_EQ(hier.EscapeRadius(cells[1], hier.LocalIndex(cells[1], d)),
                  0.0);
      }
    }

    // Fragments are folded: no door joins a cell of at most 2 partitions
    // to a cell of more than 2.
    std::vector<size_t> cell_sizes(hier.cell_count(), 0);
    for (PartitionId v = 0; v < plan.partition_count(); ++v) {
      ++cell_sizes[hier.CellOfPartition(v)];
    }
    for (const DoorId d : hier.border_doors()) {
      const auto cells = hier.CellsOfDoor(d);
      EXPECT_EQ(cell_sizes[cells[0]] <= 2, cell_sizes[cells[1]] <= 2)
          << "door " << d << " joins cells of " << cell_sizes[cells[0]]
          << " and " << cell_sizes[cells[1]] << " partitions";
    }

    // TryExact serves shared-cell pairs with the flat value.
    for (DoorId s = 0; s < plan.door_count(); ++s) {
      for (DoorId t = 0; t < plan.door_count(); ++t) {
        double exact = -1.0;
        if (hier.TryExact(s, t, &exact)) {
          EXPECT_TRUE(BitEq(exact, md2d.At(s, t)));
        }
      }
    }
  }
}

TEST(HierarchyIndexTest, PotentialMatchesMatrixWithinRounding) {
  // H composed from blocks and the border clique equals the exact
  // min_j(Md2d[v][d_j] + leg_j) at every door up to rounding, and is +inf
  // exactly where no destination is reachable; an infinite leg drops its
  // destination.
  const std::pair<FloorPlan, unsigned> cases[] = {
      {MakeCampus(3, 2, 8, 29), 24}, {MakeHostileCampus(2, 3, 8, 31), 4}};
  for (const auto& [plan, cell_target] : cases) {
    const DistanceGraph graph(plan);
    const DistanceMatrix md2d(graph);
    const HierarchyIndex hier = HierarchyIndex::Build(graph, 1, cell_target);
    QueryScratch scratch;
    for (PartitionId vt = 0; vt < plan.partition_count(); ++vt) {
      const auto& dests = plan.EnterDoors(vt);
      std::vector<double> legs(dests.size());
      for (size_t j = 0; j < legs.size(); ++j) {
        legs[j] = j == 1 ? kInfDistance : 0.5 + 1.25 * static_cast<double>(j);
      }
      HierarchyPotential potential(hier, hier.CellOfPartition(vt), dests,
                                   legs, &scratch.potential);
      for (DoorId v = 0; v < plan.door_count(); ++v) {
        double want = kInfDistance;
        for (size_t j = 0; j < dests.size(); ++j) {
          if (legs[j] != kInfDistance) {
            want = std::min(want, md2d.At(v, dests[j]) + legs[j]);
          }
        }
        const double got = potential.At(v);
        if (want == kInfDistance) {
          EXPECT_EQ(got, kInfDistance) << "door " << v << " to " << vt;
        } else {
          EXPECT_LE(std::abs(got - want), 1e-9 * want)
              << "door " << v << " to " << vt << ": " << got << " vs "
              << want;
        }
      }
    }
  }
}

TEST(HierarchyIndexTest, SingleBuildingPlanStillWorks) {
  // Degenerate clustering: one building fits in one cell, so every query
  // should resolve through TryExact / block scans with no border hops.
  const FloorPlan plan = MakeRunningExamplePlan();
  ExpectEngineEquality(plan, /*cache=*/true, /*cell_target=*/128, /*seed=*/6,
                       /*pt2pt_pairs=*/60, /*one_cell=*/true);
}

TEST(HierarchyIndexTest, ParallelBuildIsBitIdentical) {
  const FloorPlan plan = MakeCampus(3, 3, 8, 41);
  const DistanceGraph graph(plan);
  const HierarchyIndex seq = HierarchyIndex::Build(graph, 1, 16);
  const HierarchyIndex par = HierarchyIndex::Build(graph, 4, 16);
  ASSERT_EQ(seq.cell_count(), par.cell_count());
  ASSERT_EQ(seq.border_count(), par.border_count());
  ASSERT_EQ(seq.Blocks().size(), par.Blocks().size());
  for (size_t i = 0; i < seq.Blocks().size(); ++i) {
    EXPECT_TRUE(BitEq(seq.Blocks()[i], par.Blocks()[i]));
  }
  for (size_t i = 0; i < seq.BorderMatrix().size(); ++i) {
    EXPECT_TRUE(BitEq(seq.BorderMatrix()[i], par.BorderMatrix()[i]));
  }
}

}  // namespace
}  // namespace indoor
