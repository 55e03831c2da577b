#include "tracking/positioning.h"

#include <algorithm>

namespace indoor {

ReaderDeployment ReaderDeployment::AtDoors(const FloorPlan& plan,
                                           double range) {
  std::vector<Reader> readers;
  readers.reserve(plan.door_count());
  for (const Door& door : plan.doors()) {
    Reader reader;
    reader.id = static_cast<uint32_t>(readers.size());
    reader.position = door.Midpoint();
    reader.range = range;
    reader.door = door.id();
    readers.push_back(reader);
  }
  return ReaderDeployment(std::move(readers));
}

ReaderDeployment::ReaderDeployment(std::vector<Reader> readers)
    : readers_(std::move(readers)) {
  std::vector<std::pair<Rect, uint32_t>> items;
  items.reserve(readers_.size());
  for (const Reader& reader : readers_) {
    items.push_back(
        {Rect(reader.position.x - reader.range,
              reader.position.y - reader.range,
              reader.position.x + reader.range,
              reader.position.y + reader.range),
         reader.id});
  }
  rtree_.BulkLoad(std::move(items));
}

std::vector<uint32_t> ReaderDeployment::Detect(const Point& p) const {
  std::vector<uint32_t> out;
  rtree_.QueryPoint(p, [&](uint32_t id) {
    const Reader& reader = readers_[id];
    if (Distance(reader.position, p) <= reader.range) out.push_back(id);
  });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Detection> ReaderDeployment::DetectAll(
    const std::vector<PositionReport>& reports) const {
  std::vector<Detection> out;
  for (const PositionReport& report : reports) {
    for (uint32_t reader : Detect(report.position)) {
      out.push_back({report.id, reader});
    }
  }
  return out;
}

SymbolicTracker::SymbolicTracker(const FloorPlan& plan,
                                 const ReaderDeployment& deployment,
                                 size_t object_count)
    : plan_(&plan), deployment_(&deployment), candidates_(object_count) {}

void SymbolicTracker::OnDetection(const Detection& detection) {
  INDOOR_CHECK(detection.object < candidates_.size());
  INDOOR_CHECK(detection.reader < deployment_->readers().size());
  const Reader& reader = deployment_->readers()[detection.reader];
  std::vector<PartitionId> next;
  if (reader.door != kInvalidId) {
    const auto [a, b] = plan_->ConnectedPair(reader.door);
    next = {std::min(a, b), std::max(a, b)};
  } else {
    for (const Partition& part : plan_->partitions()) {
      if (part.Contains(reader.position)) next.push_back(part.id());
    }
  }
  candidates_[detection.object] = std::move(next);
}

void SymbolicTracker::WidenAll() {
  for (auto& cands : candidates_) {
    if (cands.empty()) continue;  // unknown stays unknown
    std::vector<PartitionId> widened = cands;
    for (PartitionId v : cands) {
      for (DoorId d : plan_->LeaveDoors(v)) {
        for (PartitionId to : plan_->EnterableParts(d)) {
          widened.push_back(to);
        }
      }
    }
    std::sort(widened.begin(), widened.end());
    widened.erase(std::unique(widened.begin(), widened.end()),
                  widened.end());
    cands = std::move(widened);
  }
}

}  // namespace indoor
