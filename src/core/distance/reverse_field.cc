#include "core/distance/reverse_field.h"

#include "core/distance/bucket_queue.h"
#include "core/distance/query_scratch.h"

namespace indoor {

ReverseDistanceField::ReverseDistanceField(const DistanceContext& ctx,
                                           const Point& target)
    : ctx_(ctx), target_(target) {
  const FloorPlan& plan = ctx.graph->plan();
  door_dist_.assign(plan.door_count(), kInfDistance);
  const auto host = ctx.locator->GetHostPartition(target);
  if (!host.ok()) return;
  host_ = host.value();

  // Dijkstra on the reversed door graph: settled dj relaxes every di with a
  // forward edge di -> dj, iterated over the transposed CSR rows. Those
  // rows have no SoA twin for the SIMD relaxation, so this builder (like
  // the landmark backward rows) keeps its own loop instead of
  // RunDoorDijkstra (d2d_runner.h), and emits no Dijkstra metrics. Final
  // distances are relaxation-order independent, so they match the nested
  // LeaveableParts/EnterDoors loops bit-for-bit.
  std::vector<char> visited(plan.door_count(), 0);
  BucketQueue frontier;
  frontier.Prepare(ctx.graph->max_door_edge_weight());
  // Seeds: crossing an entering door of the host partition leaves only the
  // final intra leg to the target. The legs keep the historical
  // door->target orientation (each its own solve), so seed values match
  // exactly.
  for (DoorId dt : plan.EnterDoors(host_)) {
    const double leg = plan.partition(host_).IntraDistance(
        plan.door(dt).Midpoint(), target);
    if (leg < door_dist_[dt]) {
      door_dist_[dt] = leg;
      frontier.push({leg, dt});
    }
  }
  while (!frontier.empty()) {
    const auto [d, dj] = frontier.top();
    frontier.pop();
    if (visited[dj]) continue;
    visited[dj] = 1;
    for (const DoorGraphEdge& e : ctx.graph->ReverseDoorEdges(dj)) {
      if (visited[e.to]) continue;
      if (d + e.weight < door_dist_[e.to]) {
        door_dist_[e.to] = d + e.weight;
        frontier.push({door_dist_[e.to], e.to});
      }
    }
  }
}

double ReverseDistanceField::DistanceFrom(PartitionId v,
                                          const Point& p) const {
  if (!valid()) return kInfDistance;
  const FloorPlan& plan = ctx_.graph->plan();
  const Partition& part = plan.partition(v);
  double best = kInfDistance;
  // All legs share the source `p`, so one batched solve settles the direct
  // leg and every leaving door exactly (DistVMany == per-door
  // IntraDistance for doors touching `v`).
  QueryScratch& scratch = TlsQueryScratch();
  if (v == host_) {
    best = part.IntraDistance(p, target_, &scratch.geo);
  }
  const std::vector<DoorId>& doors = plan.LeaveDoors(v);
  auto& leg = scratch.src_leg;
  leg.resize(doors.size());
  ctx_.locator->DistVMany(v, p, doors, &scratch.geo, leg.data());
  for (size_t i = 0; i < doors.size(); ++i) {
    const DoorId ds = doors[i];
    if (door_dist_[ds] == kInfDistance || leg[i] == kInfDistance) continue;
    const double total = leg[i] + door_dist_[ds];
    if (total < best) best = total;
  }
  return best;
}

double ReverseDistanceField::DistanceFrom(const Point& p) const {
  if (!valid()) return kInfDistance;
  const auto host = ctx_.locator->GetHostPartition(p);
  if (!host.ok()) return kInfDistance;
  return DistanceFrom(host.value(), p);
}

}  // namespace indoor
