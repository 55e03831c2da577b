// Micro-benchmarks (google-benchmark) of the core operations: door-to-door
// Dijkstra, pt2pt variants, point location, grid searches, and the indexed
// queries, on the paper's 10-floor building with 10K objects.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/distance/d2d_distance.h"
#include "core/distance/pt2pt_distance.h"
#include "core/index/landmark_index.h"
#include "core/query/knn_query.h"
#include "core/query/range_query.h"
#include "util/min_heap.h"

using namespace indoor;
using namespace indoor::bench;

namespace {

/// Shared fixture state, built once.
struct State {
  State() : engine(MakeEngine(10, 10000, /*seed=*/5)) {
    Rng rng(6);
    queries = GenerateQueryPositions(engine->plan(), 256, &rng);
    pairs = GeneratePositionPairsByArea(engine->plan(), 256, &rng);
  }
  std::unique_ptr<QueryEngine> engine;
  std::vector<Point> queries;
  std::vector<std::pair<Point, Point>> pairs;
};

State& Shared() {
  static State state;
  return state;
}

void BM_D2dDistance(benchmark::State& state) {
  auto& s = Shared();
  const size_t n = s.engine->plan().door_count();
  Rng rng(7);
  size_t i = 0;
  std::vector<std::pair<DoorId, DoorId>> door_pairs;
  for (int k = 0; k < 256; ++k) {
    door_pairs.push_back({static_cast<DoorId>(rng.NextIndex(n)),
                          static_cast<DoorId>(rng.NextIndex(n))});
  }
  for (auto _ : state) {
    const auto& [a, b] = door_pairs[i++ % door_pairs.size()];
    benchmark::DoNotOptimize(
        D2dDistance(s.engine->index().graph(), a, b));
  }
}
BENCHMARK(BM_D2dDistance);

/// Raw extract-min cost isolated from graph relaxation: push a fixed key
/// set (uniform over four edge-weight windows, Dijkstra-like spread), then
/// pop to empty. One iteration = one full push+drain sweep.
void BM_HeapPushPop(benchmark::State& state) {
  auto& s = Shared();
  const double max_w = s.engine->index().graph().max_door_edge_weight();
  const size_t count = SweepCount(4096, 512);
  Rng rng(13);
  std::vector<std::pair<double, DoorId>> entries;
  for (size_t k = 0; k < count; ++k) {
    entries.push_back(
        {rng.NextDouble(0.0, 4.0 * max_w), static_cast<DoorId>(k)});
  }
  MinHeap<std::pair<double, DoorId>> heap;
  for (auto _ : state) {
    heap.clear();
    for (const auto& e : entries) heap.push(e);
    double sink = 0;
    while (!heap.empty()) {
      sink += heap.top().first;
      heap.pop();
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(count));
}
BENCHMARK(BM_HeapPushPop);

void BM_BucketPushPop(benchmark::State& state) {
  auto& s = Shared();
  const double max_w = s.engine->index().graph().max_door_edge_weight();
  const size_t count = SweepCount(4096, 512);
  Rng rng(13);
  std::vector<std::pair<double, DoorId>> entries;
  for (size_t k = 0; k < count; ++k) {
    entries.push_back(
        {rng.NextDouble(0.0, 4.0 * max_w), static_cast<DoorId>(k)});
  }
  BucketQueue queue;
  for (auto _ : state) {
    queue.Prepare(max_w);
    for (const auto& e : entries) queue.push(e);
    double sink = 0;
    while (!queue.empty()) {
      sink += queue.top().first;
      queue.pop();
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(count));
}
BENCHMARK(BM_BucketPushPop);

/// ALT lower-bound probe: per-pair bound cost, plus the share of random
/// door pairs whose bound alone exceeds a Fig. 8-style radius (r = 30) —
/// the fraction of full-row scan entries the range/kNN pruning hook skips
/// without touching the Md2d row. Reported as the prune_rate_r30 counter.
void BM_LandmarkBound(benchmark::State& state) {
  auto& s = Shared();
  const LandmarkIndex* const lm = s.engine->index().landmarks();
  if (lm == nullptr) {
    state.SkipWithError("landmarks disabled in IndexOptions");
    return;
  }
  const size_t n = s.engine->plan().door_count();
  Rng rng(17);
  const size_t pair_count = SweepCount(4096, 256);
  std::vector<std::pair<DoorId, DoorId>> door_pairs;
  for (size_t k = 0; k < pair_count; ++k) {
    door_pairs.push_back({static_cast<DoorId>(rng.NextIndex(n)),
                          static_cast<DoorId>(rng.NextIndex(n))});
  }
  const double r = 30.0;
  uint64_t prunable = 0;
  uint64_t probes = 0;
  size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = door_pairs[i++ % door_pairs.size()];
    const double lb = lm->LowerBound(a, b);
    prunable += lb > r ? 1 : 0;
    ++probes;
    benchmark::DoNotOptimize(lb);
  }
  state.counters["prune_rate_r30"] = benchmark::Counter(
      probes > 0 ? static_cast<double>(prunable) / static_cast<double>(probes)
                 : 0.0);
}
BENCHMARK(BM_LandmarkBound);

void BM_MatrixLookup(benchmark::State& state) {
  auto& s = Shared();
  const size_t n = s.engine->plan().door_count();
  Rng rng(8);
  size_t i = 0;
  for (auto _ : state) {
    const DoorId from = static_cast<DoorId>(i % n);
    const DoorId to = static_cast<DoorId>((i * 7 + 3) % n);
    ++i;
    benchmark::DoNotOptimize(s.engine->index().d2d_matrix().At(from, to));
  }
}
BENCHMARK(BM_MatrixLookup);

void BM_Pt2PtBasic(benchmark::State& state) {
  auto& s = Shared();
  const auto ctx = s.engine->index().distance_context();
  size_t i = 0;
  for (auto _ : state) {
    const auto& [p, q] = s.pairs[i++ % s.pairs.size()];
    benchmark::DoNotOptimize(Pt2PtDistanceBasic(ctx, p, q));
  }
}
BENCHMARK(BM_Pt2PtBasic);

void BM_Pt2PtRefined(benchmark::State& state) {
  auto& s = Shared();
  const auto ctx = s.engine->index().distance_context();
  size_t i = 0;
  for (auto _ : state) {
    const auto& [p, q] = s.pairs[i++ % s.pairs.size()];
    benchmark::DoNotOptimize(Pt2PtDistanceRefined(ctx, p, q));
  }
}
BENCHMARK(BM_Pt2PtRefined);

void BM_Pt2PtReuse(benchmark::State& state) {
  auto& s = Shared();
  const auto ctx = s.engine->index().distance_context();
  size_t i = 0;
  for (auto _ : state) {
    const auto& [p, q] = s.pairs[i++ % s.pairs.size()];
    benchmark::DoNotOptimize(Pt2PtDistanceReuse(ctx, p, q));
  }
}
BENCHMARK(BM_Pt2PtReuse);

void BM_Pt2PtVirtual(benchmark::State& state) {
  auto& s = Shared();
  const auto ctx = s.engine->index().distance_context();
  size_t i = 0;
  for (auto _ : state) {
    const auto& [p, q] = s.pairs[i++ % s.pairs.size()];
    benchmark::DoNotOptimize(Pt2PtDistanceVirtual(ctx, p, q));
  }
}
BENCHMARK(BM_Pt2PtVirtual);

void BM_PrunedSourceDoors(benchmark::State& state) {
  auto& s = Shared();
  const FloorPlan& plan = s.engine->plan();
  const size_t n = plan.partition_count();
  Rng rng(11);
  std::vector<std::pair<PartitionId, PartitionId>> part_pairs;
  for (int k = 0; k < 256; ++k) {
    part_pairs.push_back({static_cast<PartitionId>(rng.NextIndex(n)),
                          static_cast<PartitionId>(rng.NextIndex(n))});
  }
  // The scratch-owned output buffer is reused across calls — this measures
  // the steady-state (allocation-free) pruning cost.
  std::vector<DoorId> doors;
  size_t i = 0;
  for (auto _ : state) {
    const auto& [vs, vt] = part_pairs[i++ % part_pairs.size()];
    internal::PrunedSourceDoors(plan, vs, vt, &doors);
    benchmark::DoNotOptimize(doors.data());
  }
}
BENCHMARK(BM_PrunedSourceDoors);

void BM_GetHostPartition(benchmark::State& state) {
  auto& s = Shared();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.engine->index().locator().GetHostPartition(
        s.queries[i++ % s.queries.size()]));
  }
}
BENCHMARK(BM_GetHostPartition);

void BM_RangeQuery(benchmark::State& state) {
  auto& s = Shared();
  size_t i = 0;
  const double r = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        RangeQuery(s.engine->index(), s.queries[i++ % s.queries.size()], r));
  }
}
BENCHMARK(BM_RangeQuery)->Arg(10)->Arg(30)->Arg(50);

void BM_KnnQuery(benchmark::State& state) {
  auto& s = Shared();
  size_t i = 0;
  const size_t k = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        KnnQuery(s.engine->index(), s.queries[i++ % s.queries.size()], k));
  }
}
BENCHMARK(BM_KnnQuery)->Arg(1)->Arg(10)->Arg(100);

void BM_ShortestPath(benchmark::State& state) {
  auto& s = Shared();
  size_t i = 0;
  for (auto _ : state) {
    const auto& [p, q] = s.pairs[i++ % s.pairs.size()];
    benchmark::DoNotOptimize(s.engine->ShortestPath(p, q));
  }
}
BENCHMARK(BM_ShortestPath);

}  // namespace

BENCHMARK_MAIN();
