#include "core/query/temporal.h"

#include "core/distance/query_scratch.h"
#include "util/min_heap.h"

namespace indoor {
namespace internal {

// Keeps its own loop instead of RunDoorDijkstra (d2d_runner.h): a closed
// door must be skipped before its distance is updated, which the runner's
// batch relaxation of a whole edge span does not allow.
double SnapshotDijkstra(const DistanceGraph& graph,
                        const DoorSchedule& schedule, double time,
                        const std::vector<std::pair<DoorId, double>>& seeds,
                        DoorId target, std::vector<double>* dist_out,
                        std::vector<PrevEntry>* prev) {
  const FloorPlan& plan = graph.plan();
  const size_t n = plan.door_count();
  std::vector<double> local;
  std::vector<double>& dist = dist_out != nullptr ? *dist_out : local;
  dist.assign(n, kInfDistance);
  if (prev != nullptr) prev->assign(n, PrevEntry{});
  std::vector<char> visited(n, 0);
  MinHeap<std::pair<double, DoorId>> heap;
  for (const auto& [d, w] : seeds) {
    if (!schedule.IsOpen(d, time)) continue;
    if (w < dist[d]) {
      dist[d] = w;
      heap.push({w, d});
    }
  }
  while (!heap.empty()) {
    const auto [d, di] = heap.top();
    heap.pop();
    if (visited[di]) continue;
    visited[di] = 1;
    if (di == target) return d;
    for (const DoorGraphEdge& e : graph.DoorEdges(di)) {
      if (visited[e.to] || !schedule.IsOpen(e.to, time)) continue;
      if (d + e.weight < dist[e.to]) {
        dist[e.to] = d + e.weight;
        if (prev != nullptr) (*prev)[e.to] = {e.via, di};
        heap.push({dist[e.to], e.to});
      }
    }
  }
  return target == kInvalidId ? 0.0 : dist[target];
}

}  // namespace internal

double D2dDistanceAtTime(const DistanceGraph& graph,
                         const DoorSchedule& schedule, double time,
                         DoorId ds, DoorId dt) {
  INDOOR_CHECK(ds < graph.plan().door_count());
  INDOOR_CHECK(dt < graph.plan().door_count());
  return internal::SnapshotDijkstra(graph, schedule, time, {{ds, 0.0}}, dt,
                                    nullptr, nullptr);
}

double Pt2PtDistanceAtTime(const DistanceContext& ctx,
                           const DoorSchedule& schedule, double time,
                           const Point& ps, const Point& pt) {
  const FloorPlan& plan = ctx.graph->plan();
  const auto endpoints = internal::ResolveEndpoints(ctx, ps, pt);
  if (!endpoints.ok()) return kInfDistance;

  QueryScratch& scratch = TlsQueryScratch();
  double best = internal::DirectCandidate(ctx, endpoints, ps, pt,
                                          &scratch.geo);

  const auto& src_doors = plan.LeaveDoors(endpoints.vs);
  auto& src_leg = scratch.src_leg;
  src_leg.resize(src_doors.size());
  ctx.locator->DistVMany(endpoints.vs, ps, src_doors, &scratch.geo,
                         src_leg.data());
  std::vector<std::pair<DoorId, double>> seeds;
  for (size_t i = 0; i < src_doors.size(); ++i) {
    if (src_leg[i] != kInfDistance) seeds.push_back({src_doors[i], src_leg[i]});
  }
  std::vector<double> dist;
  internal::SnapshotDijkstra(*ctx.graph, schedule, time, seeds, kInvalidId,
                             &dist, nullptr);
  const auto& dst_doors = plan.EnterDoors(endpoints.vt);
  auto& dst_leg = scratch.dst_leg;
  dst_leg.resize(dst_doors.size());
  ctx.locator->DistVMany(endpoints.vt, pt, dst_doors, &scratch.geo,
                         dst_leg.data());
  for (size_t j = 0; j < dst_doors.size(); ++j) {
    if (dist[dst_doors[j]] == kInfDistance) continue;
    if (dst_leg[j] == kInfDistance) continue;
    best = std::min(best, dist[dst_doors[j]] + dst_leg[j]);
  }
  return best;
}

}  // namespace indoor
