#include "core/query/incremental_knn.h"

#include <span>

namespace indoor {

DistanceBrowser::DistanceBrowser(const IndexFramework& index, const Point& q)
    : index_(&index), query_(q) {
  const auto host = index.locator().GetHostPartition(q);
  if (!host.ok()) return;
  valid_ = true;
  const PartitionId v = host.value();
  // The host partition's own cells, anchored at the query itself.
  PushCells(v, q, 0.0);
  // One row cursor per leaveable door of the host partition; all distV
  // legs come from one batched geodesic solve rooted at q.
  const FloorPlan& plan = index.plan();
  const auto& src_doors = plan.LeaveDoors(v);
  auto& src_leg = scratch_.src_leg;
  src_leg.resize(src_doors.size());
  index.locator().DistVMany(v, q, src_doors, &scratch_.geo, src_leg.data());
  for (size_t i = 0; i < src_doors.size(); ++i) {
    const DoorId ds = src_doors[i];
    const double base = src_leg[i];
    if (base == kInfDistance) continue;
    Entry entry;
    entry.kind = Kind::kRowCursor;
    entry.row_door = ds;
    entry.row_pos = 0;
    entry.row_base = base;
    // Midx[ds][0] is ds itself at Md2d 0, so the initial key is base.
    entry.key = base + index.d2d_matrix().At(
                           ds, index.index_matrix().At(ds, 0));
    heap_.push(entry);
  }
}

void DistanceBrowser::PushCells(PartitionId partition, const Point& anchor,
                                double base) {
  const GridBucket& bucket = index_->objects().bucket(partition);
  if (bucket.size() == 0) return;
  const double scale = index_->plan().partition(partition).metric_scale();
  for (size_t c = 0; c < bucket.cell_count(); ++c) {
    if (bucket.CellIds(c).empty()) continue;
    Entry entry;
    entry.kind = Kind::kCell;
    entry.partition = partition;
    entry.cell = c;
    entry.anchor = anchor;
    entry.anchor_base = base;
    entry.key = base + bucket.CellRectAt(c).MinDistance(anchor) * scale;
    heap_.push(entry);
  }
}

void DistanceBrowser::Settle() {
  const FloorPlan& plan = index_->plan();
  while (!heap_.empty()) {
    const Entry top = heap_.top();
    if (top.kind == Kind::kObject) {
      if (yielded_.count(top.object)) {
        heap_.pop();
        continue;
      }
      return;  // next object ready
    }
    heap_.pop();
    if (top.kind == Kind::kRowCursor) {
      const DoorId dj =
          index_->index_matrix().At(top.row_door, top.row_pos);
      const double dist_dj = top.key;  // row_base + Md2d[row_door, dj]
      // Enter dj's partitions unless a cheaper entry already did.
      const DptRecord& rec = index_->dpt()[dj];
      for (PartitionId part : {rec.part1, rec.part2}) {
        if (part == kInvalidId) continue;
        const uint64_t tag = (static_cast<uint64_t>(part) << 32) | dj;
        if (!partitions_entered_.insert(tag).second) continue;
        PushCells(part, plan.door(dj).Midpoint(), dist_dj);
      }
      // Advance the cursor.
      const size_t next = top.row_pos + 1;
      if (next < plan.door_count()) {
        const DoorId dn = index_->index_matrix().At(top.row_door, next);
        const double md = index_->d2d_matrix().At(top.row_door, dn);
        if (md != kInfDistance) {
          Entry entry = top;
          entry.row_pos = next;
          entry.key = top.row_base + md;
          heap_.push(entry);
        }
      }
    } else {  // kCell
      const Partition& part = plan.partition(top.partition);
      const GridBucket& bucket = index_->objects().bucket(top.partition);
      const std::span<const ObjectId> ids = bucket.CellIds(top.cell);
      const std::span<const Point> points = bucket.CellPoints(top.cell);
      // One batched geodesic solve from the anchor covers every unyielded
      // object of the cell (identical values to per-object IntraDistance).
      auto& pts = scratch_.geo.points;
      pts.clear();
      for (size_t j = 0; j < ids.size(); ++j) {
        if (!yielded_.count(ids[j])) pts.push_back(points[j]);
      }
      if (pts.empty()) continue;
      auto& legs = scratch_.src_leg;
      legs.resize(pts.size());
      part.IntraDistancesToMany(top.anchor, pts, &scratch_.geo, legs.data());
      size_t next_leg = 0;
      for (const ObjectId id : ids) {
        if (yielded_.count(id)) continue;
        const double leg = legs[next_leg++];
        if (leg == kInfDistance) continue;
        Entry entry;
        entry.kind = Kind::kObject;
        entry.object = id;
        entry.key = top.anchor_base + leg;
        heap_.push(entry);
      }
    }
  }
}

bool DistanceBrowser::HasNext() {
  if (!valid_) return false;
  Settle();
  return !heap_.empty();
}

Neighbor DistanceBrowser::Next() {
  INDOOR_CHECK(HasNext()) << "DistanceBrowser exhausted";
  const Entry top = heap_.top();
  heap_.pop();
  yielded_.insert(top.object);
  return {top.object, top.key};
}

}  // namespace indoor
