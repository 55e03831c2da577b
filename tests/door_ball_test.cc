// Contract suite for the door-expansion enumerator (core/query/door_ball.h).
//
// The result-level suites (range/kNN/hierarchy equality) only see an
// offer-order bug when an exact distance tie lands on the kNN admission
// boundary, which random plans rarely produce. This suite checks the
// enumerator's (door, distance) output directly, engine against engine:
//  (a) under a kNN-style shrinking test, the hierarchy emits exactly the
//      Midx scan's sequence, distances equal bit for bit;
//  (b) under a static radius, the hierarchy emits the Midx prefix's set,
//      including through the cell block-row path;
//  (c) the full-row scan emits the accepted doors in ascending id;
//  (d) the hierarchy replays the Midx row's unreachable-door tail at +inf.

#include "core/query/door_ball.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "gen/building_generator.h"
#include "indoor/floor_plan_builder.h"
#include "util/random.h"

namespace indoor {
namespace {

using Visits = std::vector<std::pair<DoorId, double>>;

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

/// Bitwise sequence equality, with a readable first difference.
void ExpectSameSequence(const Visits& want, const Visits& got,
                        const char* what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].first, got[i].first) << what << " at offer " << i;
    EXPECT_EQ(Bits(want[i].second), Bits(got[i].second))
        << what << " at offer " << i << ": " << want[i].second << " vs "
        << got[i].second;
  }
}

Visits SortedById(Visits v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// A kNN-style test: accepts !(leg + d > bound), where the bound starts at
/// `budget` and then tracks the m-th smallest leg + d visited so far — it
/// only ever shrinks, like KnnCollector::Bound().
class ShrinkingTest {
 public:
  ShrinkingTest(double leg, double budget, size_t m)
      : leg_(leg), budget_(budget), m_(m) {}

  bool Accept(double d) const { return !(leg_ + d > Bound()); }

  void Record(DoorId dj, double d, Visits* out) {
    out->emplace_back(dj, d);
    best_.push_back(leg_ + d);
    std::sort(best_.begin(), best_.end());
    if (best_.size() > m_) best_.resize(m_);
  }

 private:
  double Bound() const {
    return best_.size() < m_ ? budget_ : std::min(budget_, best_.back());
  }

  double leg_;
  double budget_;
  size_t m_;
  std::vector<double> best_;
};

/// Visits of Expand under a fresh ShrinkingTest.
Visits ExpandShrinking(DoorBall* ball, DoorId src, double leg, double budget,
                       size_t m) {
  ShrinkingTest test(leg, budget, m);
  Visits out;
  ball->Expand(
      src, [&](double d) { return test.Accept(d); },
      [&](DoorId dj, double d) { test.Record(dj, d, &out); });
  return out;
}

Visits ExpandWithin(DoorBall* ball, DoorId src, double radius) {
  Visits out;
  ball->ExpandWithin(src, radius,
                     [&](DoorId dj, double d) { out.emplace_back(dj, d); });
  return out;
}

struct CampusCase {
  int buildings;
  int floors;
  int rooms;
  unsigned cell_target;
  uint64_t seed;
};

/// Both index flavors over one generated campus (cache off: the
/// enumerator never consults it).
struct Engines {
  explicit Engines(const CampusCase& c) : plan(MakePlan(c)) {
    IndexOptions flat_options;
    flat_options.enable_query_cache = false;
    flat = std::make_unique<IndexFramework>(plan, flat_options);
    IndexOptions hier_options = flat_options;
    hier_options.use_hierarchy = true;
    hier_options.hierarchy_cell_target = c.cell_target;
    hier = std::make_unique<IndexFramework>(plan, hier_options);
  }

  static FloorPlan MakePlan(const CampusCase& c) {
    CampusConfig config;
    config.buildings = c.buildings;
    config.building.floors = c.floors;
    config.building.rooms_per_floor = c.rooms;
    config.building.room_to_room_doors = 0.4;
    config.seed = c.seed;
    return GenerateCampus(config);
  }

  FloorPlan plan;
  std::unique_ptr<IndexFramework> flat;
  std::unique_ptr<IndexFramework> hier;
};

/// Budgets of the contract: 0, exactly a row entry (the boundary door is
/// accepted with equality), large, and +inf.
std::vector<double> Budgets(const IndexFramework& flat, DoorId src, Rng* rng) {
  const double* row = flat.d2d_matrix().Row(src);
  const size_t n = flat.plan().door_count();
  double entry = 0.0;
  for (int tries = 0; tries < 16; ++tries) {
    const double d = row[rng->NextIndex(n)];
    if (d != kInfDistance) {
      entry = d;
      break;
    }
  }
  return {0.0, entry, 1e9, kInfDistance};
}

std::vector<CampusCase> Cases() {
  std::vector<CampusCase> cases = {
      {2, 2, 6, 1, 5},     // every partition its own cell: runs only
      {3, 2, 8, 16, 17},   // mixed block rows and runs
      {2, 3, 9, 128, 23},  // large cells: mostly block rows
  };
  Rng rng(2012);
  for (int i = 0; i < 3; ++i) {
    cases.push_back({2 + static_cast<int>(rng.NextIndex(2)),
                     2 + static_cast<int>(rng.NextIndex(2)),
                     5 + static_cast<int>(rng.NextIndex(5)),
                     static_cast<unsigned>(1u << rng.NextIndex(6)),
                     rng.NextU64()});
  }
  return cases;
}

/// Sampled source doors: the first, the last, and a random handful.
std::vector<DoorId> SourceDoors(size_t n, Rng* rng) {
  std::vector<DoorId> doors = {0, static_cast<DoorId>(n - 1)};
  for (int i = 0; i < 10; ++i) {
    doors.push_back(static_cast<DoorId>(rng->NextIndex(n)));
  }
  return doors;
}

TEST(DoorBallTest, EngineSelection) {
  const Engines e({2, 2, 6, 4, 3});
  EXPECT_EQ(DoorBall::EngineOf(*e.flat, true), DoorBall::Engine::kMidx);
  EXPECT_EQ(DoorBall::EngineOf(*e.flat, false), DoorBall::Engine::kFullRow);
  EXPECT_EQ(DoorBall::EngineOf(*e.hier, true), DoorBall::Engine::kHierarchy);
  EXPECT_EQ(DoorBall::EngineOf(*e.hier, false), DoorBall::Engine::kHierarchy);
}

// (a) The ordered hierarchy mode reproduces the Midx offer sequence under
// a bound that shrinks as doors are visited, ties included.
TEST(DoorBallTest, HierarchyOrderedModeEmitsMidxSequence) {
  for (const CampusCase& c : Cases()) {
    SCOPED_TRACE(testing::Message() << "campus seed " << c.seed
                                    << ", cell target " << c.cell_target);
    const Engines e(c);
    DoorDijkstraScratch midx_scratch, hier_scratch;
    DoorBall midx(*e.flat, true, &midx_scratch);
    DoorBall hier(*e.hier, true, &hier_scratch);
    Rng rng(c.seed ^ 0xA5);
    size_t offers = 0;
    for (const DoorId src : SourceDoors(e.plan.door_count(), &rng)) {
      for (const double budget : Budgets(*e.flat, src, &rng)) {
        for (const double leg : {0.0, 1.25}) {
          for (const size_t m : {size_t{1}, size_t{4}, size_t{1000000}}) {
            SCOPED_TRACE(testing::Message() << "src " << src << " budget "
                                            << budget << " leg " << leg
                                            << " m " << m);
            const Visits want = ExpandShrinking(&midx, src, leg, budget, m);
            const Visits got = ExpandShrinking(&hier, src, leg, budget, m);
            ExpectSameSequence(want, got, "ordered");
            offers += want.size();
          }
        }
      }
    }
    EXPECT_GT(offers, 0u);
  }
}

// (b) Under a static radius, the hierarchy (block row or bounded run)
// emits the Midx prefix as a set.
TEST(DoorBallTest, HierarchyStaticRadiusEmitsMidxPrefixSet) {
  size_t block_row_cases = 0;
  size_t run_cases = 0;
  for (const CampusCase& c : Cases()) {
    SCOPED_TRACE(testing::Message() << "campus seed " << c.seed
                                    << ", cell target " << c.cell_target);
    const Engines e(c);
    const HierarchyIndex& hi = e.hier->hierarchy_index();
    DoorDijkstraScratch midx_scratch, hier_scratch;
    DoorBall midx(*e.flat, true, &midx_scratch);
    DoorBall hier(*e.hier, true, &hier_scratch);
    Rng rng(c.seed ^ 0x5A);
    for (const DoorId src : SourceDoors(e.plan.door_count(), &rng)) {
      for (const double radius : Budgets(*e.flat, src, &rng)) {
        SCOPED_TRACE(testing::Message() << "src " << src << " radius "
                                        << radius);
        const auto cells = hi.CellsOfDoor(src);
        const bool block_row =
            cells[1] == HierarchyIndex::kNone &&
            radius < hi.EscapeRadius(cells[0], hi.LocalIndex(cells[0], src));
        ++(block_row ? block_row_cases : run_cases);
        const Visits want = ExpandWithin(&midx, src, radius);
        const Visits got = ExpandWithin(&hier, src, radius);
        ExpectSameSequence(SortedById(want), SortedById(got), "within");
      }
    }
  }
  EXPECT_GT(block_row_cases, 0u);
  EXPECT_GT(run_cases, 0u);
}

// (c) The full row visits exactly the accepted doors, ascending id — both
// under a static radius and under a shrinking test.
TEST(DoorBallTest, FullRowEmitsAcceptedDoorsInAscendingId) {
  for (const CampusCase& c : Cases()) {
    SCOPED_TRACE(testing::Message() << "campus seed " << c.seed);
    const Engines e(c);
    DoorDijkstraScratch scratch;
    DoorBall full(*e.flat, false, &scratch);
    const size_t n = e.plan.door_count();
    Rng rng(c.seed ^ 0x3C);
    for (const DoorId src : SourceDoors(n, &rng)) {
      const double* row = e.flat->d2d_matrix().Row(src);
      for (const double budget : Budgets(*e.flat, src, &rng)) {
        SCOPED_TRACE(testing::Message() << "src " << src << " budget "
                                        << budget);
        Visits want;
        for (DoorId dj = 0; dj < n; ++dj) {
          if (!(row[dj] > budget)) want.emplace_back(dj, row[dj]);
        }
        ExpectSameSequence(want, ExpandWithin(&full, src, budget), "row");

        ShrinkingTest test(0.0, budget, 3);
        Visits shrinking;
        for (DoorId dj = 0; dj < n; ++dj) {
          if (test.Accept(row[dj])) test.Record(dj, row[dj], &shrinking);
        }
        ExpectSameSequence(
            shrinking, ExpandShrinking(&full, src, 0.0, budget, 3), "row");
      }
    }
  }
}

// (d) Nothing enters partition `a`, so its one-way door is unreachable
// from every other door and sits in the +inf tail of their Midx rows; the
// hierarchy's ordered mode must replay that tail, and only while the test
// still accepts +inf.
TEST(DoorBallTest, HierarchyReplaysUnreachableTail) {
  FloorPlanBuilder b;
  const PartitionId a =
      b.AddPartition("a", PartitionKind::kRoom, 1, Rect(0, 0, 4, 4));
  const PartitionId c =
      b.AddPartition("c", PartitionKind::kRoom, 1, Rect(4, 0, 8, 4));
  const PartitionId e =
      b.AddPartition("e", PartitionKind::kRoom, 1, Rect(8, 0, 12, 4));
  const PartitionId g =
      b.AddPartition("g", PartitionKind::kRoom, 1, Rect(12, 0, 16, 4));
  const DoorId one_way =
      b.AddUnidirectionalDoor("ow", Segment({4, 1.8}, {4, 2.2}), a, c);
  const DoorId ce =
      b.AddBidirectionalDoor("ce", Segment({8, 1.8}, {8, 2.2}), c, e);
  b.AddBidirectionalDoor("eg", Segment({12, 1.8}, {12, 2.2}), e, g);
  auto built = std::move(b).Build();
  ASSERT_TRUE(built.ok());
  const FloorPlan plan = std::move(built).value();
  IndexOptions options;
  options.enable_query_cache = false;
  const IndexFramework flat(plan, options);
  options.use_hierarchy = true;
  options.hierarchy_cell_target = 1;
  const IndexFramework hier(plan, options);
  ASSERT_EQ(flat.d2d_matrix().At(ce, one_way), kInfDistance);

  DoorDijkstraScratch midx_scratch, hier_scratch;
  DoorBall midx_ball(flat, true, &midx_scratch);
  DoorBall hier_ball(hier, true, &hier_scratch);
  for (const size_t m : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
    SCOPED_TRACE(testing::Message() << "m " << m);
    const Visits want =
        ExpandShrinking(&midx_ball, ce, 0.0, kInfDistance, m);
    ExpectSameSequence(
        want, ExpandShrinking(&hier_ball, ce, 0.0, kInfDistance, m),
        "tail");
    const bool tail = want.back().first == one_way;
    EXPECT_EQ(tail, m > 2) << "the tail opens once the bound stays +inf";
  }
}

}  // namespace
}  // namespace indoor
