#include "core/index/grid_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "util/random.h"

namespace indoor {
namespace {

Partition MakeRoom(double w = 10, double h = 10) {
  return Partition(0, "room", PartitionKind::kRoom, 1,
                   ObstructedRegion::FromPolygon(
                       Polygon::FromRect(Rect(0, 0, w, h))));
}

Partition MakePillarRoom() {
  auto region = ObstructedRegion::Create(
      Polygon::FromRect(Rect(0, 0, 10, 10)),
      {Polygon::FromRect(Rect(4, 4, 6, 6))});
  EXPECT_TRUE(region.ok());
  return Partition(0, "pillar", PartitionKind::kRoom, 1,
                   std::move(region).value());
}

TEST(KnnCollectorTest, KeepsKBest) {
  KnnCollector c(3);
  EXPECT_EQ(c.Bound(), kInfDistance);
  c.Offer(1, 5.0);
  c.Offer(2, 3.0);
  c.Offer(3, 7.0);
  EXPECT_DOUBLE_EQ(c.Bound(), 7.0);
  c.Offer(4, 1.0);  // evicts 7.0
  EXPECT_DOUBLE_EQ(c.Bound(), 5.0);
  const auto sorted = c.Sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].id, 4u);
  EXPECT_EQ(sorted[1].id, 2u);
  EXPECT_EQ(sorted[2].id, 1u);
}

TEST(KnnCollectorTest, RejectsWorseThanBound) {
  KnnCollector c(2);
  c.Offer(1, 1.0);
  c.Offer(2, 2.0);
  EXPECT_FALSE(c.Offer(3, 2.5));
  EXPECT_EQ(c.Sorted().size(), 2u);
}

TEST(KnnCollectorTest, DeduplicatesByObjectId) {
  KnnCollector c(2);
  c.Offer(7, 5.0);
  EXPECT_TRUE(c.Offer(7, 3.0));   // improvement replaces
  EXPECT_FALSE(c.Offer(7, 4.0));  // worse re-offer ignored
  const auto sorted = c.Sorted();
  ASSERT_EQ(sorted.size(), 1u);
  EXPECT_DOUBLE_EQ(sorted[0].distance, 3.0);
}

TEST(KnnCollectorTest, BoundIsInfiniteUntilFull) {
  KnnCollector c(5);
  c.Offer(1, 1.0);
  c.Offer(2, 2.0);
  EXPECT_EQ(c.Bound(), kInfDistance);
}

TEST(GridBucketTest, InsertAndCollectAll) {
  const Partition room = MakeRoom();
  GridBucket bucket(room, 2.0);
  bucket.Insert(0, {1, 1});
  bucket.Insert(1, {9, 9});
  EXPECT_EQ(bucket.size(), 2u);
  std::vector<ObjectId> all;
  bucket.CollectAll(&all);
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, (std::vector<ObjectId>{0, 1}));
}

TEST(GridBucketTest, RemoveObject) {
  const Partition room = MakeRoom();
  GridBucket bucket(room, 2.0);
  bucket.Insert(0, {1, 1});
  EXPECT_TRUE(bucket.Remove(0, {1, 1}));
  EXPECT_FALSE(bucket.Remove(0, {1, 1}));
  EXPECT_EQ(bucket.size(), 0u);
}

TEST(GridBucketTest, CellCountCoversPartition) {
  const Partition room = MakeRoom(10, 10);
  EXPECT_EQ(GridBucket(room, 2.0).cell_count(), 25u);
  EXPECT_EQ(GridBucket(room, 100.0).cell_count(), 1u);  // at least 1x1
}

TEST(GridBucketTest, RangeSearchEuclideanRoom) {
  const Partition room = MakeRoom();
  GridBucket bucket(room, 2.0);
  bucket.Insert(0, {1, 1});
  bucket.Insert(1, {5, 5});
  bucket.Insert(2, {9, 9});
  std::vector<Neighbor> out;
  bucket.RangeSearch(room, {1, 1}, 6.0, &out);
  std::sort(out.begin(), out.end(),
            [](const Neighbor& a, const Neighbor& b) { return a.id < b.id; });
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 0u);
  EXPECT_DOUBLE_EQ(out[0].distance, 0.0);
  EXPECT_EQ(out[1].id, 1u);
  EXPECT_NEAR(out[1].distance, std::sqrt(32.0), 1e-9);
}

TEST(GridBucketTest, RangeSearchMatchesBruteForceRandomized) {
  const Partition room = MakeRoom();
  GridBucket bucket(room, 1.5);
  Rng rng(3);
  std::vector<Point> positions;
  for (ObjectId id = 0; id < 200; ++id) {
    const Point p(rng.NextDouble(0, 10), rng.NextDouble(0, 10));
    positions.push_back(p);
    bucket.Insert(id, p);
  }
  for (int trial = 0; trial < 20; ++trial) {
    const Point q(rng.NextDouble(0, 10), rng.NextDouble(0, 10));
    const double r = rng.NextDouble(0.5, 8);
    std::vector<Neighbor> out;
    bucket.RangeSearch(room, q, r, &out);
    std::vector<ObjectId> got;
    for (const auto& nb : out) got.push_back(nb.id);
    std::sort(got.begin(), got.end());
    std::vector<ObjectId> expect;
    for (ObjectId id = 0; id < positions.size(); ++id) {
      if (Distance(q, positions[id]) <= r) expect.push_back(id);
    }
    EXPECT_EQ(got, expect);
  }
}

TEST(GridBucketTest, RangeSearchUsesObstructedDistances) {
  const Partition room = MakePillarRoom();
  GridBucket bucket(room, 2.0);
  // Object straight across the pillar from the query.
  bucket.Insert(0, {9, 5});
  std::vector<Neighbor> out;
  // Euclidean distance is 8; the obstructed detour under the pillar is
  // 2*sqrt(10) + 2 ~ 8.32 (see visibility_test). Radius 8.5 includes it;
  // radius 8.2 does not (even though Euclid would).
  bucket.RangeSearch(room, {1, 5}, 8.5, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out[0].distance, 2 * std::sqrt(10.0) + 2.0, 1e-9);
  out.clear();
  bucket.RangeSearch(room, {1, 5}, 8.2, &out);
  EXPECT_TRUE(out.empty());
}

TEST(GridBucketTest, MetricScaleAppliesToSearches) {
  Partition stair(0, "stair", PartitionKind::kStaircase, 1,
                  ObstructedRegion::FromPolygon(
                      Polygon::FromRect(Rect(0, 0, 10, 2))),
                  /*metric_scale=*/2.0);
  GridBucket bucket(stair, 2.0);
  bucket.Insert(0, {6, 1});
  std::vector<Neighbor> out;
  bucket.RangeSearch(stair, {1, 1}, 9.9, &out);
  EXPECT_TRUE(out.empty());  // scaled distance is 10 > 9.9
  bucket.RangeSearch(stair, {1, 1}, 10.0, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out[0].distance, 10.0, 1e-9);
}

TEST(GridBucketTest, NnSearchFindsNearest) {
  const Partition room = MakeRoom();
  GridBucket bucket(room, 2.0);
  bucket.Insert(0, {1, 1});
  bucket.Insert(1, {5, 5});
  bucket.Insert(2, {9, 9});
  KnnCollector collector(1);
  bucket.NnSearch(room, {4, 4}, 0.0, &collector);
  const auto nn = collector.Sorted();
  ASSERT_EQ(nn.size(), 1u);
  EXPECT_EQ(nn[0].id, 1u);
  EXPECT_NEAR(nn[0].distance, std::sqrt(2.0), 1e-9);
}

TEST(GridBucketTest, NnSearchAddsExtraLeg) {
  const Partition room = MakeRoom();
  GridBucket bucket(room, 2.0);
  bucket.Insert(0, {5, 5});
  KnnCollector collector(1);
  bucket.NnSearch(room, {5, 4}, 100.0, &collector);
  EXPECT_NEAR(collector.Sorted()[0].distance, 101.0, 1e-9);
}

TEST(GridBucketTest, NnSearchPrunesWithBound) {
  const Partition room = MakeRoom();
  GridBucket bucket(room, 2.0);
  bucket.Insert(0, {9, 9});
  KnnCollector collector(1);
  collector.Offer(99, 0.5);  // tight existing bound
  bucket.NnSearch(room, {1, 1}, 0.0, &collector);
  // The far object cannot beat the bound; the collector keeps object 99.
  const auto nn = collector.Sorted();
  ASSERT_EQ(nn.size(), 1u);
  EXPECT_EQ(nn[0].id, 99u);
}

TEST(GridBucketTest, EmptyBucketSearchesAreNoOps) {
  const Partition room = MakeRoom();
  GridBucket bucket(room, 2.0);
  std::vector<Neighbor> out;
  bucket.RangeSearch(room, {5, 5}, 10, &out);
  EXPECT_TRUE(out.empty());
  KnnCollector collector(2);
  bucket.NnSearch(room, {5, 5}, 0.0, &collector);
  EXPECT_EQ(collector.size(), 0u);
}

TEST(GridBucketTest, NegativeRadiusYieldsNothing) {
  const Partition room = MakeRoom();
  GridBucket bucket(room, 2.0);
  bucket.Insert(0, {5, 5});
  std::vector<Neighbor> out;
  bucket.RangeSearch(room, {5, 5}, -1.0, &out);
  EXPECT_TRUE(out.empty());
}

TEST(ResultBitsTest, EmitsSortedUniqueIdsAndClearsWords) {
  Rng rng(5);
  std::vector<uint64_t> words;
  for (const size_t objects : {1u, 64u, 65u, 300u, 4096u}) {
    for (int trial = 0; trial < 20; ++trial) {
      ResultBits bits(&words, objects);
      std::set<ObjectId> expect;
      // Dense runs give words with more than four bits; the last id and 0
      // probe the ends.
      const size_t adds = rng.NextIndex(2 * objects + 1);
      for (size_t i = 0; i < adds; ++i) {
        const auto id = static_cast<ObjectId>(
            trial % 2 == 0 ? rng.NextIndex(objects)
                           : std::min(objects - 1, i / 3));
        bits.Add(id);
        expect.insert(id);
        EXPECT_TRUE(bits.Contains(id));
      }
      if (trial % 5 == 0) {
        bits.Add(static_cast<ObjectId>(objects - 1));
        bits.Add(0);
        expect.insert(static_cast<ObjectId>(objects - 1));
        expect.insert(0);
      }
      EXPECT_EQ(bits.Emit(),
                std::vector<ObjectId>(expect.begin(), expect.end()));
      EXPECT_EQ(std::count(words.begin(), words.end(), uint64_t{0}),
                static_cast<std::ptrdiff_t>(words.size()));
    }
  }
}

// The bucket's slot arrays must keep every cell in the order a vector per
// cell gives it: Insert appends to its cell (growing a full cell's slots
// and shifting the later cells), Remove moves the cell's last entry into
// the hole.
TEST(GridBucketTest, FlatLayoutKeepsPerCellVectorOrder) {
  const Partition room = MakeRoom(9, 5);
  const double cell = 2.0;
  GridBucket bucket(room, cell);
  const size_t nx = 5, ny = 3;
  ASSERT_EQ(bucket.cell_count(), nx * ny);
  using Cell = std::vector<std::pair<ObjectId, Point>>;
  std::vector<Cell> model(nx * ny);
  size_t peak = 0;  // most objects a checked cell held
  const auto cell_of = [&](const Point& p) {
    const size_t cx = std::min(static_cast<size_t>(p.x / cell), nx - 1);
    const size_t cy = std::min(static_cast<size_t>(p.y / cell), ny - 1);
    return cy * nx + cx;
  };
  Rng rng(11);
  // Cell boundaries and corners as well as random points.
  const auto random_point = [&rng]() {
    if (rng.NextIndex(4) == 0) {
      return Point(2.0 * rng.NextIndex(5), 2.0 * rng.NextIndex(3));
    }
    return Point(rng.NextDouble(0, 9), rng.NextDouble(0, 5));
  };
  std::vector<std::pair<ObjectId, Point>> live;
  ObjectId next_id = 0;
  for (int step = 0; step < 3000; ++step) {
    const size_t op = live.empty() ? 0 : rng.NextIndex(3);
    if (op == 0) {  // insert
      const Point p = random_point();
      bucket.Insert(next_id, p);
      model[cell_of(p)].push_back({next_id, p});
      live.push_back({next_id++, p});
    } else {  // remove, or move (remove, then insert elsewhere)
      const size_t k = rng.NextIndex(live.size());
      const auto [id, p] = live[k];
      ASSERT_TRUE(bucket.Remove(id, p));
      auto& c = model[cell_of(p)];
      const auto it = std::find_if(c.begin(), c.end(), [id = id](auto& e) {
        return e.first == id;
      });
      ASSERT_NE(it, c.end());
      *it = c.back();
      c.pop_back();
      if (op == 1) {
        live[k] = live.back();
        live.pop_back();
        EXPECT_FALSE(bucket.Remove(id, p));
      } else {
        const Point to = random_point();
        bucket.Insert(id, to);
        model[cell_of(to)].push_back({id, to});
        live[k].second = to;
      }
    }
    ASSERT_EQ(bucket.size(), live.size());
    if (step % 7 != 0) continue;
    std::vector<ObjectId> all_ids;
    for (size_t c = 0; c < model.size(); ++c) {
      const auto ids = bucket.CellIds(c);
      const auto points = bucket.CellPoints(c);
      ASSERT_EQ(ids.size(), model[c].size()) << "cell " << c;
      ASSERT_EQ(points.size(), model[c].size()) << "cell " << c;
      for (size_t j = 0; j < ids.size(); ++j) {
        EXPECT_EQ(ids[j], model[c][j].first) << "cell " << c << " #" << j;
        EXPECT_EQ(points[j], model[c][j].second) << "cell " << c << " #" << j;
        all_ids.push_back(model[c][j].first);
      }
    }
    std::vector<ObjectId> collected;
    bucket.CollectAll(&collected);
    EXPECT_EQ(collected, all_ids);  // cells in index order, each in order
    std::vector<ObjectId> visited;
    bucket.ForEachId([&visited](ObjectId id) { visited.push_back(id); });
    EXPECT_EQ(visited, all_ids);
    for (const Cell& c : model) peak = std::max(peak, c.size());
  }
  EXPECT_GT(peak, 8u);  // some cell grew past its second slot doubling
}

// One RangeSearchGates pass must admit exactly the union of the ids each
// gate's RangeSearch admits, added to whatever the bitmap already holds.
class RangeSearchGatesTest : public testing::Test {
 protected:
  static Partition LShape(double scale) {
    auto outer = Polygon::Create(
        {{0, 0}, {10, 0}, {10, 4}, {4, 4}, {4, 10}, {0, 10}});
    EXPECT_TRUE(outer.ok());
    return Partition(0, "ell", PartitionKind::kHallway, 1,
                     ObstructedRegion::FromPolygon(std::move(outer).value()),
                     scale);
  }

  static Partition Scaled(Partition base, double scale) {
    return Partition(0, "scaled", PartitionKind::kStaircase, 1,
                     base.footprint(), scale);
  }

  static std::vector<Point> Anchors(double cell) {
    return {{0, 5},   {10, 2}, {5, 0},       {0, 0},        {10, 10},
            {4, 7},   {-1, 3}, {11, 11},     {cell, cell},  {2 * cell, 1},
            {1, 3 * cell}};
  }

  // An anchor, and the cell of an object that lies on a cell boundary
  // exactly level with it: a budget of that cell's lower bound * scale
  // reaches the object exactly, through a row or column whose axis gap
  // equals the bound.
  struct Aligned {
    Point anchor;
    Rect cell;
  };

  // Adversarial anchors (walls, corners, cell boundaries, outside the box)
  // and budgets (0, +inf, negative, NaN, a cell's exact lower bound and
  // one ulp either side of it), plus random ones.
  static std::vector<RangeGate> Gates(const GridBucket& bucket, double scale,
                                      double cell,
                                      const std::vector<Aligned>& aligned,
                                      Rng* rng) {
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<Point> anchors = Anchors(cell);
    for (int i = 0; i < 6; ++i) {
      anchors.push_back({rng->NextDouble(0, 10), rng->NextDouble(0, 10)});
    }
    const auto nudge = [rng, inf](double budget) {
      const size_t ulp = rng->NextIndex(3);
      if (ulp == 1) return std::nextafter(budget, inf);
      if (ulp == 2) return std::nextafter(budget, -inf);
      return budget;
    };
    const size_t count = 1 + rng->NextIndex(5);
    std::vector<RangeGate> gates;
    for (size_t g = 0; g < count; ++g) {
      Point a = anchors[rng->NextIndex(anchors.size())];
      double budget = 0;
      switch (rng->NextIndex(9)) {
        case 0: budget = 0.0; break;
        case 1: budget = inf; break;
        case 2: budget = -rng->NextDouble(0.01, 3); break;
        case 3: budget = nan; break;
        case 4: case 5: {  // an aligned cell's lower bound * scale, +-1 ulp
          const Aligned& al = aligned[rng->NextIndex(aligned.size())];
          a = al.anchor;
          budget = nudge(al.cell.MinDistance(a) * scale);
          break;
        }
        case 6: {  // any cell's lower bound * scale, +-1 ulp
          const Rect r = bucket.CellRectAt(rng->NextIndex(bucket.cell_count()));
          budget = nudge(r.MinDistance(a) * scale);
          break;
        }
        default: budget = rng->NextDouble(0, 12) * scale; break;
      }
      gates.push_back({a, budget});
    }
    return gates;
  }

  static void Check(const Partition& part, double cell, uint64_t seed) {
    SCOPED_TRACE(testing::Message() << part.name() << " cell=" << cell
                                    << " scale=" << part.metric_scale());
    GridBucket bucket(part, cell);
    Rng rng(seed);
    const Rect box = part.footprint().outer().BoundingBox();
    ObjectId objects = 0;
    for (; objects < 250; ++objects) {
      // Some on cell boundaries, the rest anywhere in the box (obstacle
      // interiors and the L's notch included: both sides see the same).
      const Point p = objects % 5 == 0
                          ? Point(std::min(box.hi.x, cell * rng.NextIndex(11)),
                                  rng.NextDouble(box.lo.y, box.hi.y))
                          : Point(rng.NextDouble(box.lo.x, box.hi.x),
                                  rng.NextDouble(box.lo.y, box.hi.y));
      bucket.Insert(objects, p);
    }
    std::vector<Aligned> aligned;
    for (const Point& a : Anchors(cell)) {
      for (double line = 0; line <= 10; line += cell) {
        for (const Point p : {Point(line, a.y), Point(a.x, line)}) {
          if (!box.Contains(p)) continue;
          bucket.Insert(objects, p);
          for (size_t c = 0; c < bucket.cell_count(); ++c) {
            const auto ids = bucket.CellIds(c);
            if (std::find(ids.begin(), ids.end(), objects) != ids.end()) {
              aligned.push_back({a, bucket.CellRectAt(c)});
            }
          }
          ++objects;
        }
      }
    }
    ASSERT_FALSE(aligned.empty());
    BucketScratch scratch;
    BucketScratch search_scratch;
    std::vector<uint64_t> words;
    for (int trial = 0; trial < 60; ++trial) {
      const std::vector<RangeGate> gates =
          Gates(bucket, part.metric_scale(), cell, aligned, &rng);
      std::set<ObjectId> expect;
      ResultBits bits(&words, objects);
      if (trial % 3 == 0) {  // a host search admitted some already
        for (int i = 0; i < 20; ++i) {
          const auto id = static_cast<ObjectId>(rng.NextIndex(objects));
          bits.Add(id);
          expect.insert(id);
        }
      }
      for (const RangeGate& g : gates) {
        std::vector<Neighbor> with_scratch, without;
        bucket.RangeSearch(part, g.anchor, g.budget, &with_scratch,
                           &search_scratch);
        bucket.RangeSearch(part, g.anchor, g.budget, &without);
        ASSERT_EQ(with_scratch, without);
        for (const Neighbor& nb : with_scratch) expect.insert(nb.id);
      }
      bucket.RangeSearchGates(part, gates, &bits, &scratch);
      ASSERT_EQ(bits.Emit(),
                std::vector<ObjectId>(expect.begin(), expect.end()))
          << "trial " << trial;
    }
  }
};

TEST_F(RangeSearchGatesTest, MatchesUnionOfRangeSearches) {
  const Partition room = MakeRoom();
  const Partition pillar = MakePillarRoom();
  const Partition ell = LShape(1.0);
  for (const double cell : {0.5, 2.0, 100.0}) {
    Check(room, cell, 21);
    Check(pillar, cell, 22);
    Check(ell, cell, 23);
    Check(Scaled(room, 1.7), cell, 24);
    Check(Scaled(pillar, 0.3), cell, 25);
    Check(LShape(2.5), cell, 26);
  }
}

TEST_F(RangeSearchGatesTest, EmptyBucketAndNoGatesAdmitNothing) {
  const Partition room = MakeRoom();
  GridBucket bucket(room, 2.0);
  BucketScratch scratch;
  std::vector<uint64_t> words;
  ResultBits bits(&words, 4);
  const RangeGate all{{5, 5}, std::numeric_limits<double>::infinity()};
  bucket.RangeSearchGates(room, {&all, 1}, &bits, &scratch);
  bucket.Insert(3, {5, 5});
  bucket.RangeSearchGates(room, {}, &bits, &scratch);
  EXPECT_TRUE(bits.Emit().empty());
}

}  // namespace
}  // namespace indoor
