#include "core/query/window_query.h"

#include <algorithm>
#include <span>

namespace indoor {
namespace {

/// Visits every (id, position) pair of `bucket` in cells overlapping
/// `window`; `visit(id, inside)` receives whether the position itself is
/// inside. `whole_cell` short-circuits per-object tests for cells fully
/// covered by the window.
template <typename Visit>
void ScanBucket(const GridBucket& bucket, const Rect& window,
                const Visit& visit) {
  for (size_t c = 0; c < bucket.cell_count(); ++c) {
    const std::span<const ObjectId> ids = bucket.CellIds(c);
    if (ids.empty()) continue;
    const Rect rect = bucket.CellRectAt(c);
    if (!rect.Intersects(window)) continue;
    const bool whole_cell = window.ContainsRect(rect);
    const std::span<const Point> points = bucket.CellPoints(c);
    for (size_t j = 0; j < ids.size(); ++j) {
      visit(ids[j], whole_cell || window.Contains(points[j]));
    }
  }
}

}  // namespace

std::vector<ObjectId> WindowQuery(const IndexFramework& index,
                                  const Rect& window) {
  std::vector<ObjectId> result;
  // Partition candidates via the same R-tree that backs getHostPartition.
  // (Its payload is partition MBRs, so a rect query gives the candidates.)
  for (const Partition& part : index.plan().partitions()) {
    if (!part.footprint().outer().BoundingBox().Intersects(window)) {
      continue;
    }
    const GridBucket& bucket = index.objects().bucket(part.id());
    if (bucket.size() == 0) continue;
    ScanBucket(bucket, window, [&](ObjectId id, bool inside) {
      if (inside) result.push_back(id);
    });
  }
  std::sort(result.begin(), result.end());
  // Overlapping footprints (outdoor, staircase bands) cannot duplicate an
  // object — each object lives in exactly one bucket — so no unique pass.
  return result;
}

size_t WindowCount(const IndexFramework& index, const Rect& window) {
  size_t count = 0;
  for (const Partition& part : index.plan().partitions()) {
    if (!part.footprint().outer().BoundingBox().Intersects(window)) {
      continue;
    }
    const GridBucket& bucket = index.objects().bucket(part.id());
    if (bucket.size() == 0) continue;
    ScanBucket(bucket, window, [&](ObjectId, bool inside) {
      if (inside) ++count;
    });
  }
  return count;
}

}  // namespace indoor
