// The bounded-weight bucket queue, the SIMD relaxation kernels, and the
// ALT landmark pruning all promise one thing: every distance result stays
// bitwise identical to the reference oracles (core/query/reference_impls.h)
// and to the landmark-free engine. These suites hold them to it — queue
// pop order against a MinHeap oracle, Dijkstra solves against the
// reference Algorithm 1, full query engines with landmarks on and off —
// plus the landmark bound contracts and a concurrent stress run for TSan.

#include "core/distance/bucket_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "core/distance/d2d_distance.h"
#include "core/distance/distance_field.h"
#include "core/distance/pt2pt_distance.h"
#include "core/distance/reverse_field.h"
#include "core/index/index_framework.h"
#include "core/index/landmark_index.h"
#include "core/query/knn_query.h"
#include "core/query/range_query.h"
#include "core/query/reference_impls.h"
#include "gen/building_generator.h"
#include "gen/object_generator.h"
#include "gen/query_generator.h"
#include "indoor/sample_plans.h"
#include "util/min_heap.h"
#include "util/random.h"
#include "util/simd.h"

namespace indoor {
namespace {

using Entry = std::pair<double, DoorId>;

// ------------------------------------------------------------- queue oracle

/// Drains both queues in lockstep, asserting identical pop sequences.
void DrainInLockstep(BucketQueue* bq, MinHeap<Entry>* heap) {
  while (!heap->empty()) {
    ASSERT_FALSE(bq->empty());
    ASSERT_EQ(bq->size(), heap->size());
    const Entry expected = heap->top();
    EXPECT_EQ(bq->top(), expected);
    bq->pop();
    heap->pop();
  }
  EXPECT_TRUE(bq->empty());
  EXPECT_EQ(bq->size(), 0u);
}

TEST(BucketQueueTest, MatchesHeapOnRandomMonotoneWorkloads) {
  Rng rng(20260809);
  for (int round = 0; round < 60; ++round) {
    // Every few rounds: a zero max weight, exercising the width fallback.
    const double max_w =
        round % 6 == 0 ? 0.0 : rng.NextDouble(0.05, 40.0);
    BucketQueue bq;
    bq.Prepare(max_w);
    MinHeap<Entry> heap;

    // Seeds in any order, some far beyond the bucket window (overflow +
    // first-pop rebase), some duplicated.
    const size_t seeds = 1 + rng.NextU64(10);
    for (size_t i = 0; i < seeds; ++i) {
      const Entry e{rng.NextDouble(0.0, 300.0),
                    static_cast<DoorId>(rng.NextU64(64))};
      bq.push(e);
      heap.push(e);
      if (rng.NextU64(4) == 0) {  // duplicate entry
        bq.push(e);
        heap.push(e);
      }
    }

    // Dijkstra-shaped traffic: pop the min, push a few keys at or above
    // it (zero-weight edges included), occasionally drain a bit.
    for (int step = 0; step < 200 && !heap.empty(); ++step) {
      ASSERT_EQ(bq.top(), heap.top());
      const double base = heap.top().first;
      bq.pop();
      heap.pop();
      const size_t pushes = rng.NextU64(4);
      for (size_t p = 0; p < pushes; ++p) {
        const double w =
            rng.NextU64(5) == 0 ? 0.0 : rng.NextDouble(0.0, max_w + 1.0);
        const Entry e{base + w, static_cast<DoorId>(rng.NextU64(64))};
        bq.push(e);
        heap.push(e);
      }
    }
    DrainInLockstep(&bq, &heap);
  }
}

TEST(BucketQueueTest, QuantizationBoundaryTiesBreakOnId) {
  // Keys sitting exactly on bucket edges, with equal-key entries: the pop
  // order must be the exact lexicographic (key, id) order, not bucket
  // insertion order.
  BucketQueue bq;
  bq.Prepare(96.0);  // width = 1.0 exactly
  MinHeap<Entry> heap;
  const double keys[] = {0.0,  0.0,  1.0,   1.0,   1.0,   2.0,   95.0,
                         96.0, 96.0, 97.5, 128.0, 128.0, 500.0, 500.0};
  DoorId id = 40;
  for (const double k : keys) {
    // Descending ids so sorted-by-id differs from insertion order.
    const Entry e{k, id--};
    bq.push(e);
    heap.push(e);
  }
  DrainInLockstep(&bq, &heap);
}

TEST(BucketQueueTest, PrepareResetsStateBetweenRuns) {
  BucketQueue bq;
  for (int run = 0; run < 3; ++run) {
    bq.Prepare(run == 1 ? 0.0 : 10.0);
    MinHeap<Entry> heap;
    for (DoorId i = 0; i < 20; ++i) {
      const Entry e{static_cast<double>((i * 7) % 13), i};
      bq.push(e);
      heap.push(e);
    }
    // Leave half the entries behind on even runs; Prepare must discard
    // them.
    for (int pops = 0; pops < (run % 2 == 0 ? 10 : 20); ++pops) {
      ASSERT_EQ(bq.top(), heap.top());
      bq.pop();
      heap.pop();
    }
  }
  bq.Prepare(10.0);
  EXPECT_TRUE(bq.empty());
}

// --------------------------------------------------------- Dijkstra solves

BuildingConfig TestBuilding(uint64_t seed) {
  BuildingConfig config;
  config.floors = 3;
  config.rooms_per_floor = 12;
  config.room_to_room_doors = 0.3;
  config.one_way_fraction = 0.3;
  config.obstacle_probability = 0.2;
  config.seed = seed;
  return config;
}

TEST(BucketDijkstraTest, SingleSourceRowsBitwiseEqualReference) {
  // One-way doors make the door graph directed, so every ordered pair is
  // its own check.
  const FloorPlan plan = GenerateBuilding(TestBuilding(11));
  const DistanceGraph graph(plan);
  const size_t n = plan.door_count();
  std::vector<double> dist;
  std::vector<PrevEntry> prev;
  for (DoorId ds = 0; ds < n; ++ds) {
    D2dDistancesFrom(graph, ds, &dist, &prev);
    ASSERT_EQ(dist.size(), n);
    for (DoorId t = 0; t < n; ++t) {
      // ASSERT_EQ is operator== — bitwise for these non-NaN values.
      ASSERT_EQ(dist[t], reference::D2dDistance(graph, ds, t))
          << "ds=" << ds << " t=" << t;
      if (t == ds || dist[t] == kInfDistance) {
        ASSERT_EQ(prev[t].door, kInvalidId) << "ds=" << ds << " t=" << t;
        continue;
      }
      // The prev tree names the edge that produced the settled value.
      const PrevEntry& p = prev[t];
      ASSERT_EQ(dist[t], dist[p.door] + graph.Fd2d(p.partition, p.door, t))
          << "ds=" << ds << " t=" << t;
    }
  }
}

TEST(BucketDijkstraTest, TargetedSolvesBitwiseEqualReference) {
  const FloorPlan plan = GenerateBuilding(TestBuilding(13));
  const DistanceGraph graph(plan);
  const size_t n = plan.door_count();
  Rng rng(99);
  DoorDijkstraScratch scratch;
  for (int i = 0; i < 300; ++i) {
    const DoorId ds = static_cast<DoorId>(rng.NextU64(n));
    const DoorId dt = static_cast<DoorId>(rng.NextU64(n));
    ASSERT_EQ(D2dDistance(graph, ds, dt, &scratch),
              reference::D2dDistance(graph, ds, dt))
        << "ds=" << ds << " dt=" << dt;
  }
}

TEST(BucketDijkstraTest, MatrixBuildIdenticalAcrossThreadCounts) {
  const FloorPlan plan = GenerateBuilding(TestBuilding(19));
  const DistanceGraph graph(plan);
  const DistanceMatrix serial(graph, 1);
  const DistanceMatrix parallel(graph, 2);
  for (DoorId a = 0; a < plan.door_count(); ++a) {
    for (DoorId b = 0; b < plan.door_count(); ++b) {
      ASSERT_EQ(serial.At(a, b), parallel.At(a, b));
    }
  }
}

// ----------------------------------------------------- engine equivalence

IndexOptions EngineOptions(bool landmarks) {
  IndexOptions options;
  options.use_landmarks = landmarks;
  options.enable_query_cache = false;
  return options;
}

/// Two engines over one plan/object population: landmarks off and on (the
/// defaults minus the query cache, which has its own equivalence suite).
class EngineEquivalenceTest : public ::testing::Test {
 protected:
  EngineEquivalenceTest()
      : plan_(GenerateBuilding(TestBuilding(17))),
        plain_(plan_, EngineOptions(false)),
        landmarks_(plan_, EngineOptions(true)) {
    Rng rng(5);
    const auto objects = GenerateObjects(plan_, 150, &rng);
    PopulateStore(objects, &plain_.objects());
    PopulateStore(objects, &landmarks_.objects());
  }

  FloorPlan plan_;
  IndexFramework plain_;
  IndexFramework landmarks_;
};

TEST_F(EngineEquivalenceTest, Pt2PtVariantsBitwiseEqualWithLandmarks) {
  Rng rng(23);
  const auto plain_ctx = plain_.distance_context();
  const auto lm_ctx = landmarks_.distance_context();
  ASSERT_NE(lm_ctx.landmarks, nullptr);
  for (const auto& [p, q] : GeneratePositionPairs(plan_, 40, &rng)) {
    const double basic = Pt2PtDistanceBasic(plain_ctx, p, q);
    ASSERT_EQ(basic, reference::Pt2PtDistanceBasic(plain_ctx, p, q));
    ASSERT_EQ(Pt2PtDistanceBasic(lm_ctx, p, q), basic);

    const double refined = Pt2PtDistanceRefined(plain_ctx, p, q);
    ASSERT_EQ(refined, reference::Pt2PtDistanceRefined(plain_ctx, p, q));
    ASSERT_EQ(Pt2PtDistanceRefined(lm_ctx, p, q), refined);

    for (const ReusePolicy policy :
         {ReusePolicy::kSafe, ReusePolicy::kPaperFaithful}) {
      const double reuse = Pt2PtDistanceReuse(plain_ctx, p, q, policy);
      ASSERT_EQ(Pt2PtDistanceReuse(lm_ctx, p, q, policy), reuse);
    }

    const double virt = Pt2PtDistanceVirtual(plain_ctx, p, q);
    ASSERT_EQ(Pt2PtDistanceVirtual(lm_ctx, p, q), virt);
  }
}

TEST_F(EngineEquivalenceTest, RangeAndKnnIdenticalWithLandmarks) {
  Rng rng(31);
  const auto queries = GenerateQueryPositions(plan_, 25, &rng);
  for (const bool use_midx : {true, false}) {
    RangeQueryOptions range_options;
    range_options.use_index_matrix = use_midx;
    KnnQueryOptions knn_options;
    knn_options.use_index_matrix = use_midx;
    for (const Point& q : queries) {
      for (const double r : {8.0, 30.0}) {
        EXPECT_EQ(RangeQuery(landmarks_, q, r, range_options),
                  RangeQuery(plain_, q, r, range_options));
      }
      for (const size_t k : {size_t{1}, size_t{10}}) {
        EXPECT_EQ(KnnQuery(landmarks_, q, k, knn_options),
                  KnnQuery(plain_, q, k, knn_options));
      }
    }
  }
}

TEST_F(EngineEquivalenceTest, DistanceFieldsIdenticalWithLandmarks) {
  Rng rng(41);
  const auto sources = GenerateQueryPositions(plan_, 6, &rng);
  const auto probes = GenerateQueryPositions(plan_, 20, &rng);
  for (const Point& s : sources) {
    const DistanceField plain_field(plain_.distance_context(), s);
    const DistanceField lm_field(landmarks_.distance_context(), s);
    const ReverseDistanceField plain_rev(plain_.distance_context(), s);
    const ReverseDistanceField lm_rev(landmarks_.distance_context(), s);
    for (const Point& p : probes) {
      ASSERT_EQ(plain_field.DistanceTo(p), lm_field.DistanceTo(p));
      ASSERT_EQ(plain_rev.DistanceFrom(p), lm_rev.DistanceFrom(p));
    }
  }
}

// ------------------------------------------------------------- landmarks

TEST(LandmarkIndexTest, LowerBoundNeverExceedsExactDistance) {
  const FloorPlan plan = GenerateBuilding(TestBuilding(29));
  const DistanceGraph graph(plan);
  const LandmarkIndex landmarks = LandmarkIndex::Build(graph, 8);
  ASSERT_TRUE(landmarks.valid());
  EXPECT_LE(landmarks.count(), 8u);
  const DistanceMatrix md2d(graph);
  const size_t n = plan.door_count();
  for (DoorId s = 0; s < n; ++s) {
    for (DoorId t = 0; t < n; ++t) {
      const double lb = landmarks.LowerBound(s, t);
      const double exact = md2d.At(s, t);
      ASSERT_GE(lb, 0.0);
      if (exact == kInfDistance) continue;
      // The triangle inequality holds to rounding of the precomputed rows.
      ASSERT_LE(lb, exact + 1e-9 * (1.0 + exact)) << "s=" << s << " t=" << t;
    }
  }
  // Selection is deterministic: identical rebuilds pick identical doors.
  const LandmarkIndex again = LandmarkIndex::Build(graph, 8);
  ASSERT_EQ(again.count(), landmarks.count());
  for (size_t l = 0; l < landmarks.count(); ++l) {
    EXPECT_EQ(again.doors()[l], landmarks.doors()[l]);
  }
}

TEST(LandmarkIndexTest, RowsMatchMd2d) {
  const FloorPlan plan = GenerateBuilding(TestBuilding(43));
  const DistanceGraph graph(plan);
  const LandmarkIndex landmarks = LandmarkIndex::Build(graph, 4);
  ASSERT_TRUE(landmarks.valid());
  const DistanceMatrix md2d(graph);
  for (size_t l = 0; l < landmarks.count(); ++l) {
    const DoorId lm = landmarks.doors()[l];
    for (DoorId d = 0; d < plan.door_count(); ++d) {
      // Forward rows are Md2d rows, bit for bit.
      ASSERT_EQ(landmarks.ForwardRow(d)[l], md2d.At(lm, d));
      // Backward rows sum the same edges from the other end of the path.
      const double exact = md2d.At(d, lm);
      if (exact == kInfDistance) {
        ASSERT_EQ(landmarks.BackwardRow(d)[l], kInfDistance);
      } else {
        ASSERT_NEAR(landmarks.BackwardRow(d)[l], exact,
                    1e-9 * (1.0 + exact));
      }
    }
  }
}

// -------------------------------------------------------- SIMD kernels

TEST(SimdKernelTest, FilterImprovementsMatchesScalarCompare) {
  Rng rng(53);
  for (int round = 0; round < 40; ++round) {
    const size_t n = rng.NextU64(33);
    std::vector<double> cand(n), dist(64, kInfDistance);
    std::vector<uint32_t> targets(n);
    for (size_t i = 0; i < n; ++i) {
      cand[i] = rng.NextDouble(0.0, 10.0);
      targets[i] = static_cast<uint32_t>(rng.NextU64(64));
    }
    for (size_t d = 0; d < 64; ++d) {
      if (rng.NextU64(3) != 0) dist[d] = rng.NextDouble(0.0, 10.0);
    }
    std::vector<uint32_t> idx(n);
    const size_t improved = simd::FilterImprovements(
        cand.data(), targets.data(), dist.data(), n, idx.data());
    std::vector<uint32_t> expect;
    for (size_t i = 0; i < n; ++i) {
      if (cand[i] < dist[targets[i]]) {
        expect.push_back(static_cast<uint32_t>(i));
      }
    }
    ASSERT_EQ(improved, expect.size());
    for (size_t k = 0; k < improved; ++k) EXPECT_EQ(idx[k], expect[k]);
  }
}

TEST(SimdKernelTest, MaskLessEqualMatchesScalarCompare) {
  Rng rng(59);
  for (int round = 0; round < 40; ++round) {
    const size_t n = rng.NextU64(40);
    const double bound = rng.NextDouble(0.0, 5.0);
    std::vector<double> values(n);
    for (auto& v : values) {
      v = rng.NextU64(8) == 0 ? kInfDistance : rng.NextDouble(0.0, 10.0);
    }
    std::vector<uint8_t> mask(n, 2);
    simd::MaskLessEqual(values.data(), n, bound, mask.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(mask[i] != 0, values[i] <= bound) << "i=" << i;
    }
  }
}

// ------------------------------------------------------ concurrent stress

TEST(BucketQueueConcurrencyTest, ParallelQueriesMatchSerialResults) {
  const FloorPlan plan = GenerateBuilding(TestBuilding(61));
  IndexOptions options;  // defaults: bucket queue + landmarks + cache
  IndexFramework index(plan, options);
  Rng rng(67);
  PopulateStore(GenerateObjects(plan, 100, &rng), &index.objects());

  const auto pairs = GeneratePositionPairs(plan, 24, &rng);
  const auto queries = GenerateQueryPositions(plan, 24, &rng);

  // Serial reference pass.
  std::vector<double> expect_dist(pairs.size());
  std::vector<std::vector<ObjectId>> expect_range(queries.size());
  std::vector<std::vector<Neighbor>> expect_knn(queries.size());
  const auto ctx = index.distance_context();
  for (size_t i = 0; i < pairs.size(); ++i) {
    expect_dist[i] =
        Pt2PtDistanceVirtual(ctx, pairs[i].first, pairs[i].second);
  }
  RangeQueryOptions range_options;
  range_options.use_index_matrix = false;  // full Md2d-row scan path
  for (size_t i = 0; i < queries.size(); ++i) {
    expect_range[i] = RangeQuery(index, queries[i], 25.0, range_options);
    expect_knn[i] = KnnQuery(index, queries[i], 5);
  }

  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      for (int iter = 0; iter < 3; ++iter) {
        for (size_t i = 0; i < pairs.size(); ++i) {
          EXPECT_EQ(
              Pt2PtDistanceVirtual(ctx, pairs[i].first, pairs[i].second),
              expect_dist[i]);
        }
        for (size_t i = 0; i < queries.size(); ++i) {
          EXPECT_EQ(RangeQuery(index, queries[i], 25.0, range_options),
                    expect_range[i]);
          EXPECT_EQ(KnnQuery(index, queries[i], 5), expect_knn[i]);
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
}

}  // namespace
}  // namespace indoor
