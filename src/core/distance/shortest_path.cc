#include "core/distance/shortest_path.h"

#include <algorithm>

#include "core/distance/d2d_runner.h"
#include "core/distance/query_scratch.h"

namespace indoor {
namespace {

/// Appends the intra-partition leg from `from` to `to` within `v` to
/// `waypoints` (excluding `from`, including `to`).
void AppendLeg(const FloorPlan& plan, PartitionId v, const Point& from,
               const Point& to, bool expand, std::vector<Point>* waypoints) {
  if (expand) {
    const auto leg = plan.partition(v).footprint().ShortestPath(from, to);
    for (size_t i = 1; i < leg.size(); ++i) waypoints->push_back(leg[i]);
  } else {
    waypoints->push_back(to);
  }
}

}  // namespace

IndoorPath D2dShortestPath(const DistanceGraph& graph, DoorId ds,
                           DoorId dt) {
  IndoorPath path;
  std::vector<PrevEntry> prev;
  path.length = D2dDistance(graph, ds, dt, &prev);
  if (!path.found()) return path;

  // Walk prev from dt back to ds.
  std::vector<DoorId> doors{dt};
  std::vector<PartitionId> parts;
  DoorId cur = dt;
  while (cur != ds) {
    const PrevEntry& entry = prev[cur];
    INDOOR_CHECK(entry.door != kInvalidId) << "broken prev chain";
    parts.push_back(entry.partition);
    doors.push_back(entry.door);
    cur = entry.door;
  }
  std::reverse(doors.begin(), doors.end());
  std::reverse(parts.begin(), parts.end());
  path.doors = std::move(doors);
  path.partitions = std::move(parts);
  for (DoorId d : path.doors) {
    path.waypoints.push_back(graph.plan().door(d).Midpoint());
  }
  return path;
}

IndoorPath Pt2PtShortestPath(const DistanceContext& ctx, const Point& ps,
                             const Point& pt, bool expand_waypoints) {
  const FloorPlan& plan = ctx.graph->plan();
  IndoorPath path;
  const auto endpoints = internal::ResolveEndpoints(ctx, ps, pt);
  if (!endpoints.ok()) return path;

  QueryScratch& scratch = TlsQueryScratch();
  const double direct =
      internal::DirectCandidate(ctx, endpoints, ps, pt, &scratch.geo);

  // Multi-source Dijkstra over doors, seeded at the source partition's
  // leaveable doors (see Pt2PtDistanceVirtual). Entry and exit legs are
  // each one batched geodesic solve.
  const auto& src_doors = plan.LeaveDoors(endpoints.vs);
  auto& src_leg = scratch.src_leg;
  src_leg.resize(src_doors.size());
  ctx.locator->DistVMany(endpoints.vs, ps, src_doors, &scratch.geo,
                         src_leg.data());
  std::vector<PrevEntry> prev;
  RunDoorDijkstra(*ctx.graph, src_doors, src_leg, &scratch.door, &prev);
  const std::vector<double>& dist = scratch.door.dist;

  // Best destination door.
  const auto& dst_doors = plan.EnterDoors(endpoints.vt);
  auto& dst_leg = scratch.dst_leg;
  dst_leg.resize(dst_doors.size());
  ctx.locator->DistVMany(endpoints.vt, pt, dst_doors, &scratch.geo,
                         dst_leg.data());
  DoorId best_door = kInvalidId;
  double best = kInfDistance;
  for (size_t j = 0; j < dst_doors.size(); ++j) {
    const DoorId dt = dst_doors[j];
    const double leg = dst_leg[j];
    if (leg == kInfDistance || dist[dt] == kInfDistance) continue;
    if (dist[dt] + leg < best) {
      best = dist[dt] + leg;
      best_door = dt;
    }
  }

  if (direct <= best) {
    if (direct == kInfDistance) return path;
    path.length = direct;
    path.partitions = {endpoints.vs};
    path.waypoints.push_back(ps);
    AppendLeg(plan, endpoints.vs, ps, pt, expand_waypoints,
              &path.waypoints);
    return path;
  }

  path.length = best;
  // Reconstruct the door chain back to a seeded source door.
  std::vector<DoorId> doors{best_door};
  std::vector<PartitionId> mid_parts;
  DoorId cur = best_door;
  while (prev[cur].door != kInvalidId) {
    mid_parts.push_back(prev[cur].partition);
    cur = prev[cur].door;
    doors.push_back(cur);
  }
  std::reverse(doors.begin(), doors.end());
  std::reverse(mid_parts.begin(), mid_parts.end());
  path.doors = std::move(doors);
  path.partitions.push_back(endpoints.vs);
  for (PartitionId v : mid_parts) path.partitions.push_back(v);
  path.partitions.push_back(endpoints.vt);

  // Geometric polyline: ps -> door midpoints -> pt, legs expanded on demand.
  path.waypoints.push_back(ps);
  Point cursor = ps;
  for (size_t i = 0; i < path.doors.size(); ++i) {
    const Point mid = plan.door(path.doors[i]).Midpoint();
    AppendLeg(plan, path.partitions[i], cursor, mid, expand_waypoints,
              &path.waypoints);
    cursor = mid;
  }
  AppendLeg(plan, endpoints.vt, cursor, pt, expand_waypoints,
            &path.waypoints);
  return path;
}

}  // namespace indoor
