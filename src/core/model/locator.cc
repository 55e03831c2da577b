#include "core/model/locator.h"

#include <sstream>

#include "util/metrics.h"

namespace indoor {

PartitionLocator::PartitionLocator(const FloorPlan& plan) : plan_(&plan) {
  std::vector<std::pair<Rect, uint32_t>> items;
  items.reserve(plan.partition_count());
  for (const Partition& part : plan.partitions()) {
    items.push_back(
        {part.footprint().outer().BoundingBox(), part.id()});
  }
  rtree_.BulkLoad(std::move(items));
}

Result<PartitionId> PartitionLocator::GetHostPartition(
    const Point& p) const {
  INDOOR_COUNTER_INC("index.locator.lookups");
  PartitionId best = kInvalidId;
  double best_area = 0.0;
  rtree_.QueryPoint(p, [&](uint32_t id) {
    const Partition& part = plan_->partition(id);
    if (!part.Contains(p)) return;
    const double area = part.footprint().outer().Area();
    const bool better =
        best == kInvalidId ||
        // Non-outdoor beats outdoor; then smaller area; then lower id.
        (plan_->partition(best).IsOutdoor() && !part.IsOutdoor()) ||
        (plan_->partition(best).IsOutdoor() == part.IsOutdoor() &&
         (area < best_area || (area == best_area && id < best)));
    if (better) {
      best = id;
      best_area = area;
    }
  });
  if (best == kInvalidId) {
    INDOOR_COUNTER_INC("index.locator.misses");
    std::ostringstream msg;
    msg << "position " << p << " is not inside any partition";
    return Status::NotFound(msg.str());
  }
  return best;
}

double PartitionLocator::DistV(PartitionId v, const Point& p, DoorId d,
                               GeodesicScratch* scratch) const {
  if (!plan_->Touches(d, v)) return kInfDistance;
  return plan_->partition(v).IntraDistance(p, plan_->door(d).Midpoint(),
                                           scratch);
}

void PartitionLocator::DistVMany(PartitionId v, const Point& p,
                                 std::span<const DoorId> doors,
                                 GeodesicScratch* scratch,
                                 double* out) const {
  INDOOR_COUNTER_INC("distance.distv.calls");
  INDOOR_COUNTER_ADD("distance.distv.doors", doors.size());
  INDOOR_HISTOGRAM_RECORD("distance.distv.batch_size", doors.size());
  if (scratch == nullptr) scratch = &TlsGeodesicScratch();
  auto& pts = scratch->points;
  auto& slots = scratch->slots;
  auto& values = scratch->values;
  pts.clear();
  slots.clear();
  for (size_t i = 0; i < doors.size(); ++i) {
    if (!plan_->Touches(doors[i], v)) {
      out[i] = kInfDistance;
      continue;
    }
    pts.push_back(plan_->door(doors[i]).Midpoint());
    slots.push_back(i);
  }
  values.resize(pts.size());
  plan_->partition(v).IntraDistancesToMany(p, pts, scratch, values.data());
  for (size_t j = 0; j < slots.size(); ++j) out[slots[j]] = values[j];
}

double PartitionLocator::DistV(const Point& p, DoorId d) const {
  auto host = GetHostPartition(p);
  if (!host.ok()) return kInfDistance;
  return DistV(host.value(), p, d);
}

}  // namespace indoor
