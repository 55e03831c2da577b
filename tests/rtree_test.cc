#include "rtree/rtree.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/random.h"

namespace indoor {
namespace {

std::vector<std::pair<Rect, uint32_t>> RandomRects(size_t n, Rng* rng) {
  std::vector<std::pair<Rect, uint32_t>> out;
  for (uint32_t i = 0; i < n; ++i) {
    const double x = rng->NextDouble(0, 100);
    const double y = rng->NextDouble(0, 100);
    out.push_back({Rect(x, y, x + rng->NextDouble(0.5, 5),
                        y + rng->NextDouble(0.5, 5)),
                   i});
  }
  return out;
}

std::vector<uint32_t> BruteForcePoint(
    const std::vector<std::pair<Rect, uint32_t>>& items, const Point& p) {
  std::vector<uint32_t> out;
  for (const auto& [r, id] : items) {
    if (r.Contains(p)) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// QueryPoint's hits, collected through its visitor and sorted.
std::vector<uint32_t> PointHits(const RTree& tree, const Point& p) {
  std::vector<uint32_t> out;
  tree.QueryPoint(p, [&out](uint32_t id) { out.push_back(id); });
  std::sort(out.begin(), out.end());
  return out;
}

TEST(RTreeTest, EmptyTreeQueries) {
  RTree tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_TRUE(PointHits(tree, {1, 1}).empty());
  EXPECT_TRUE(tree.QueryRect(Rect(0, 0, 10, 10)).empty());
  EXPECT_EQ(tree.Height(), 0);
}

TEST(RTreeTest, SingleInsertAndQuery) {
  RTree tree;
  tree.Insert(Rect(0, 0, 4, 4), 7);
  EXPECT_EQ(tree.size(), 1u);
  const auto hits = PointHits(tree, {2, 2});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 7u);
  EXPECT_TRUE(PointHits(tree, {5, 5}).empty());
}

TEST(RTreeTest, InsertsTriggerSplitsAndStayQueryable) {
  RTree tree(4);  // tiny fan-out forces many splits
  Rng rng(1);
  auto items = RandomRects(200, &rng);
  for (const auto& [r, id] : items) tree.Insert(r, id);
  EXPECT_EQ(tree.size(), 200u);
  tree.CheckInvariants();
  for (int trial = 0; trial < 50; ++trial) {
    const Point p(rng.NextDouble(0, 100), rng.NextDouble(0, 100));
    const auto hits = PointHits(tree, p);
    EXPECT_EQ(hits, BruteForcePoint(items, p));
  }
}

TEST(RTreeTest, BulkLoadMatchesBruteForce) {
  RTree tree;
  Rng rng(2);
  auto items = RandomRects(500, &rng);
  tree.BulkLoad(items);
  EXPECT_EQ(tree.size(), 500u);
  tree.CheckInvariants();
  for (int trial = 0; trial < 50; ++trial) {
    const Point p(rng.NextDouble(0, 100), rng.NextDouble(0, 100));
    const auto hits = PointHits(tree, p);
    EXPECT_EQ(hits, BruteForcePoint(items, p));
  }
}

TEST(RTreeTest, RectQueryMatchesBruteForce) {
  RTree tree;
  Rng rng(3);
  auto items = RandomRects(300, &rng);
  tree.BulkLoad(items);
  for (int trial = 0; trial < 30; ++trial) {
    const double x = rng.NextDouble(0, 90);
    const double y = rng.NextDouble(0, 90);
    const Rect window(x, y, x + 10, y + 10);
    auto hits = tree.QueryRect(window);
    std::sort(hits.begin(), hits.end());
    std::vector<uint32_t> expect;
    for (const auto& [r, id] : items) {
      if (r.Intersects(window)) expect.push_back(id);
    }
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(hits, expect);
  }
}

TEST(RTreeTest, CircleQueryMatchesBruteForce) {
  RTree tree;
  Rng rng(4);
  auto items = RandomRects(300, &rng);
  tree.BulkLoad(items);
  for (int trial = 0; trial < 30; ++trial) {
    const Point c(rng.NextDouble(0, 100), rng.NextDouble(0, 100));
    const double radius = rng.NextDouble(1, 15);
    auto hits = tree.QueryCircle(c, radius);
    std::sort(hits.begin(), hits.end());
    std::vector<uint32_t> expect;
    for (const auto& [r, id] : items) {
      if (r.MinDistance(c) <= radius + kGeomEps) expect.push_back(id);
    }
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(hits, expect);
  }
}

TEST(RTreeTest, BulkLoadThenInsertMixed) {
  RTree tree;
  Rng rng(5);
  auto items = RandomRects(100, &rng);
  tree.BulkLoad(items);
  auto extra = RandomRects(100, &rng);
  for (auto& [r, id] : extra) {
    id += 100;
    tree.Insert(r, id);
  }
  EXPECT_EQ(tree.size(), 200u);
  tree.CheckInvariants();
  auto all = items;
  all.insert(all.end(), extra.begin(), extra.end());
  for (int trial = 0; trial < 30; ++trial) {
    const Point p(rng.NextDouble(0, 100), rng.NextDouble(0, 100));
    const auto hits = PointHits(tree, p);
    EXPECT_EQ(hits, BruteForcePoint(all, p));
  }
}

TEST(RTreeTest, HeightGrowsLogarithmically) {
  RTree tree(8);
  Rng rng(6);
  auto items = RandomRects(1000, &rng);
  tree.BulkLoad(items);
  EXPECT_GE(tree.Height(), 3);  // ceil(log_8(1000)) >= 3 levels
  EXPECT_LE(tree.Height(), 5);
}

TEST(RTreeTest, DuplicateRectsAllRetrievable) {
  RTree tree;
  for (uint32_t i = 0; i < 20; ++i) tree.Insert(Rect(0, 0, 1, 1), i);
  const auto hits = PointHits(tree, {0.5, 0.5});
  EXPECT_EQ(hits.size(), 20u);
}

TEST(RTreeTest, BulkLoadEmptyIsValid) {
  RTree tree;
  tree.BulkLoad({});
  EXPECT_TRUE(tree.empty());
  EXPECT_TRUE(PointHits(tree, {0, 0}).empty());
}

TEST(RTreeTest, PointOnSharedBoundaryHitsBothRects) {
  RTree tree;
  tree.BulkLoad({{Rect(0, 0, 4, 4), 1}, {Rect(4, 0, 8, 4), 2}});
  const auto hits = PointHits(tree, {4, 2});
  EXPECT_EQ(hits, (std::vector<uint32_t>{1, 2}));
}

}  // namespace
}  // namespace indoor
