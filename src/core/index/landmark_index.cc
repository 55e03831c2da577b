#include "core/index/landmark_index.h"

#include <algorithm>
#include <utility>

#include "core/distance/d2d_distance.h"
#include "util/metrics.h"
#include "util/min_heap.h"

namespace indoor {
namespace {

/// Single-target reverse Dijkstra: dist[d] = d(d -> target) for every
/// door, over the transposed CSR rows. Those rows have no SoA twin for
/// RunDoorDijkstra's SIMD relaxation, and this runs at build time only,
/// so a plain local heap is fine; final distances are relaxation-order
/// independent and match the forward solves on the reversed graph
/// bit-for-bit.
void ReverseDistancesTo(const DistanceGraph& graph, DoorId target,
                        std::vector<double>* dist_out) {
  const size_t n = graph.plan().door_count();
  std::vector<double>& dist = *dist_out;
  dist.assign(n, kInfDistance);
  std::vector<char> visited(n, 0);
  MinHeap<std::pair<double, DoorId>> heap;
  dist[target] = 0.0;
  heap.push({0.0, target});
  while (!heap.empty()) {
    const auto [d, dj] = heap.top();
    heap.pop();
    if (visited[dj]) continue;
    visited[dj] = 1;
    for (const DoorGraphEdge& e : graph.ReverseDoorEdges(dj)) {
      if (visited[e.to]) continue;
      if (d + e.weight < dist[e.to]) {
        dist[e.to] = d + e.weight;
        heap.push({dist[e.to], e.to});
      }
    }
  }
}

}  // namespace

LandmarkIndex LandmarkIndex::Build(const DistanceGraph& graph, size_t count) {
  const size_t n = graph.plan().door_count();
  LandmarkIndex index;
  if (n == 0 || count == 0) return index;
  count = std::min({count, n, kMaxCount});

  // Farthest-point sampling: seed with door 0, then repeatedly take the
  // door maximizing the minimum forward distance from the chosen set.
  // Unreachable doors score infinity and are picked first (component
  // coverage); ties resolve to the smallest id; selection stops early
  // when every door is already a landmark's own door (score 0).
  std::vector<std::vector<double>> fwd_rows;
  std::vector<std::vector<double>> bwd_rows;
  std::vector<DoorId> landmark_doors;
  std::vector<double> score(n, kInfDistance);
  DoorId next = 0;
  for (size_t l = 0; l < count; ++l) {
    landmark_doors.push_back(next);
    fwd_rows.emplace_back();
    D2dDistancesFrom(graph, next, &fwd_rows.back(), nullptr);
    bwd_rows.emplace_back();
    ReverseDistancesTo(graph, next, &bwd_rows.back());

    if (l + 1 == count) break;
    const std::vector<double>& row = fwd_rows.back();
    double best = -1.0;
    DoorId cand = kInvalidId;
    for (DoorId d = 0; d < n; ++d) {
      if (row[d] < score[d]) score[d] = row[d];
      if (score[d] > best) {
        best = score[d];
        cand = d;
      }
    }
    if (cand == kInvalidId || best <= 0.0) break;  // graph fully covered
    next = cand;
  }

  // Transpose into the per-door layout.
  const size_t chosen = landmark_doors.size();
  std::vector<double> fwd(n * chosen);
  std::vector<double> bwd(n * chosen);
  for (size_t l = 0; l < chosen; ++l) {
    for (DoorId d = 0; d < n; ++d) {
      fwd[static_cast<size_t>(d) * chosen + l] = fwd_rows[l][d];
      bwd[static_cast<size_t>(d) * chosen + l] = bwd_rows[l][d];
    }
  }
  INDOOR_GAUGE_SET("index.landmarks.count", static_cast<double>(chosen));
  return FromRaw(n, std::move(landmark_doors), std::move(fwd),
                 std::move(bwd));
}

LandmarkIndex LandmarkIndex::FromRaw(size_t door_count,
                                     std::vector<DoorId> landmark_doors,
                                     std::vector<double> fwd,
                                     std::vector<double> bwd) {
  LandmarkIndex index;
  const size_t chosen = landmark_doors.size();
  INDOOR_CHECK(fwd.size() == door_count * chosen &&
               bwd.size() == door_count * chosen)
      << "landmark payload size mismatch";
  index.count_ = chosen;
  index.door_count_ = door_count;
  index.landmark_doors_ = OwnedSpan<DoorId>::Own(std::move(landmark_doors));
  index.fwd_ = OwnedSpan<double>::Own(std::move(fwd));
  index.bwd_ = OwnedSpan<double>::Own(std::move(bwd));
  return index;
}

LandmarkIndex LandmarkIndex::FromView(size_t door_count, size_t count,
                                      const DoorId* landmark_doors,
                                      const double* fwd, const double* bwd) {
  LandmarkIndex index;
  index.count_ = count;
  index.door_count_ = door_count;
  index.landmark_doors_ = OwnedSpan<DoorId>::Borrow(landmark_doors, count);
  index.fwd_ = OwnedSpan<double>::Borrow(fwd, door_count * count);
  index.bwd_ = OwnedSpan<double>::Borrow(bwd, door_count * count);
  return index;
}

}  // namespace indoor
