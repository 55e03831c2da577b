#include "core/distance/distance_field.h"

#include "core/distance/d2d_runner.h"
#include "core/distance/query_scratch.h"
#include "util/metrics.h"

namespace indoor {

DistanceField::DistanceField(const DistanceContext& ctx, const Point& source)
    : ctx_(ctx), source_(source) {
  const FloorPlan& plan = ctx.graph->plan();
  door_dist_.assign(plan.door_count(), kInfDistance);
  const auto host = ctx.locator->GetHostPartition(source);
  if (!host.ok()) return;
  host_ = host.value();

  QueryScratch& scratch = TlsQueryScratch();
  const auto& src_doors = plan.LeaveDoors(host_);
  auto& src_leg = scratch.src_leg;
  src_leg.resize(src_doors.size());
  ctx.locator->DistVMany(host_, source, src_doors, &scratch.geo,
                         src_leg.data());
  INDOOR_COUNTER_INC("distance.field.builds");
  RunDoorDijkstra(*ctx.graph, src_doors, src_leg, &scratch.door, nullptr);
  door_dist_ = scratch.door.dist;
}

double DistanceField::DistanceTo(PartitionId v, const Point& p) const {
  if (!valid()) return kInfDistance;
  const FloorPlan& plan = ctx_.graph->plan();
  const Partition& part = plan.partition(v);
  double best = kInfDistance;
  if (v == host_) {
    best = part.IntraDistance(source_, p);
  }
  for (DoorId dt : plan.EnterDoors(v)) {
    if (door_dist_[dt] == kInfDistance || door_dist_[dt] >= best) continue;
    const double leg = part.IntraDistance(plan.door(dt).Midpoint(), p);
    if (leg == kInfDistance) continue;
    best = std::min(best, door_dist_[dt] + leg);
  }
  return best;
}

double DistanceField::DistanceTo(const Point& p) const {
  if (!valid()) return kInfDistance;
  const auto host = ctx_.locator->GetHostPartition(p);
  if (!host.ok()) return kInfDistance;
  return DistanceTo(host.value(), p);
}

}  // namespace indoor
