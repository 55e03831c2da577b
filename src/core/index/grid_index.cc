#include "core/index/grid_index.h"

#include <algorithm>
#include <cmath>

#include "util/simd.h"

namespace indoor {

// ---------------------------------------------------------------- KnnCollector

KnnCollector::KnnCollector(size_t k) { Reset(k); }

void KnnCollector::Reset(size_t k) {
  INDOOR_CHECK(k > 0) << "kNN requires k >= 1";
  k_ = k;
  entries_.clear();
}

bool KnnCollector::Offer(ObjectId id, double distance) {
  const auto pos = std::find_if(
      entries_.begin(), entries_.end(),
      [id](const std::pair<double, ObjectId>& e) { return e.second == id; });
  const std::pair<double, ObjectId> entry{distance, id};
  if (pos != entries_.end()) {
    if (distance >= pos->first) return false;
    entries_.erase(pos);
  } else if (entries_.size() == k_) {
    if (distance >= entries_.back().first) return false;
    entries_.pop_back();
  }
  entries_.insert(std::upper_bound(entries_.begin(), entries_.end(), entry),
                  entry);
  return true;
}

std::vector<Neighbor> KnnCollector::Sorted() const {
  std::vector<Neighbor> out;
  out.reserve(entries_.size());
  for (const auto& [dist, id] : entries_) out.push_back({id, dist});
  return out;
}

// ------------------------------------------------------------------ GridBucket

GridBucket::GridBucket(const Partition& partition, double cell_size) {
  INDOOR_CHECK(cell_size > 0.0);
  const Rect bbox = partition.footprint().outer().BoundingBox();
  origin_ = bbox.lo;
  cell_size_ = cell_size;
  nx_ = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(bbox.Width() / cell_size)));
  ny_ = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(bbox.Height() / cell_size)));
  cells_.assign(nx_ * ny_, {});
}

size_t GridBucket::CellIndex(const Point& p) const {
  const auto clamp_cell = [](double v, size_t n) {
    if (v < 0) return size_t{0};
    const size_t c = static_cast<size_t>(v);
    return std::min(c, n - 1);
  };
  const size_t cx = clamp_cell((p.x - origin_.x) / cell_size_, nx_);
  const size_t cy = clamp_cell((p.y - origin_.y) / cell_size_, ny_);
  return cy * nx_ + cx;
}

Rect GridBucket::CellRect(size_t idx) const {
  const size_t cy = idx / nx_;
  const size_t cx = idx % nx_;
  const Point lo(origin_.x + cx * cell_size_, origin_.y + cy * cell_size_);
  return Rect(lo, Point(lo.x + cell_size_, lo.y + cell_size_));
}

void GridBucket::Insert(ObjectId id, const Point& position) {
  INDOOR_CHECK(!cells_.empty()) << "GridBucket not initialized";
  cells_[CellIndex(position)].push_back({id, position});
  ++count_;
}

bool GridBucket::Remove(ObjectId id, const Point& position) {
  if (cells_.empty()) return false;
  auto& cell = cells_[CellIndex(position)];
  for (auto it = cell.begin(); it != cell.end(); ++it) {
    if (it->first == id) {
      *it = cell.back();
      cell.pop_back();
      --count_;
      return true;
    }
  }
  return false;
}

namespace {

/// Batched intra-partition distances from `q` to every object of `cell`,
/// written to geo->values. One geodesic solve per cell; the source-solve
/// cache in `geo` collapses repeated cells of the same search into a
/// single solve. Values are EXACTLY those of per-object IntraDistance.
void CellDistances(const Partition& partition, const Point& q,
                   const std::vector<std::pair<ObjectId, Point>>& cell,
                   GeodesicScratch* geo) {
  auto& pts = geo->points;
  pts.clear();
  for (const auto& [id, pos] : cell) pts.push_back(pos);
  geo->values.resize(pts.size());
  partition.IntraDistancesToMany(q, pts, geo, geo->values.data());
}

}  // namespace

void GridBucket::RangeSearch(const Partition& partition, const Point& q,
                             double r, std::vector<Neighbor>* out,
                             BucketScratch* scratch) const {
  if (count_ == 0 || r < 0) return;
  INDOOR_METRICS_ONLY(if (scratch != nullptr) ++scratch->searches;)
  const double scale = partition.metric_scale();
  // Whole-cell admission is only sound where intra-distance == scaled
  // Euclidean distance everywhere in the cell.
  const bool euclidean = !partition.footprint().HasObstacles() &&
                         partition.footprint().outer().IsConvex();
  for (size_t i = 0; i < cells_.size(); ++i) {
    const auto& cell = cells_[i];
    if (cell.empty()) continue;
    INDOOR_METRICS_ONLY(if (scratch != nullptr) ++scratch->cells_visited;)
    const Rect rect = CellRect(i);
    if (rect.MinDistance(q) * scale > r) {  // prune: lower bound
      INDOOR_METRICS_ONLY(if (scratch != nullptr) ++scratch->cells_pruned;)
      continue;
    }
    if (euclidean && rect.MaxDistance(q) * scale <= r) {
      INDOOR_METRICS_ONLY(if (scratch != nullptr) ++scratch->cells_admitted;)
      for (const auto& [id, pos] : cell) {
        out->push_back({id, Distance(q, pos) * scale});
      }
      continue;
    }
    if (scratch != nullptr) {
      INDOOR_METRICS_ONLY(scratch->objects_tested += cell.size();)
      CellDistances(partition, q, cell, &scratch->geo);
      // Batched d <= r compare over the whole cell; the mask holds the
      // same verdicts as the scalar compare, evaluated lane-parallel.
      scratch->filter_mask.resize(cell.size());
      simd::MaskLessEqual(scratch->geo.values.data(), cell.size(), r,
                          scratch->filter_mask.data());
      for (size_t j = 0; j < cell.size(); ++j) {
        if (scratch->filter_mask[j]) {
          out->push_back({cell[j].first, scratch->geo.values[j]});
        }
      }
      continue;
    }
    for (const auto& [id, pos] : cell) {
      const double d = partition.IntraDistance(q, pos);
      if (d <= r) out->push_back({id, d});
    }
  }
}

bool GridBucket::WouldAdmit(const Partition& partition, const Point& q,
                            double r, const Point& position,
                            GeodesicScratch* geo) const {
  if (r < 0) return false;
  const double scale = partition.metric_scale();
  const bool euclidean = !partition.footprint().HasObstacles() &&
                         partition.footprint().outer().IsConvex();
  const Rect rect = CellRect(CellIndex(position));
  if (rect.MinDistance(q) * scale > r) return false;
  if (euclidean && rect.MaxDistance(q) * scale <= r) return true;
  return partition.IntraDistance(q, position, geo) <= r;
}

void GridBucket::NnSearch(const Partition& partition, const Point& q,
                          double extra, KnnCollector* collector,
                          BucketScratch* scratch) const {
  if (count_ == 0) return;
  INDOOR_METRICS_ONLY(if (scratch != nullptr) ++scratch->searches;)
  const double scale = partition.metric_scale();
  // Visit cells in ascending lower-bound order so the bound tightens early.
  std::vector<std::pair<double, size_t>> local_order;
  std::vector<std::pair<double, size_t>>& order =
      scratch != nullptr ? scratch->cell_order : local_order;
  order.clear();
  order.reserve(cells_.size());
  for (size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].empty()) continue;
    order.push_back({CellRect(i).MinDistance(q) * scale + extra, i});
  }
  std::sort(order.begin(), order.end());
  for (const auto& [lower, idx] : order) {
    if (lower >= collector->Bound()) break;
    INDOOR_METRICS_ONLY(if (scratch != nullptr) ++scratch->cells_visited;)
    if (scratch != nullptr) {
      INDOOR_METRICS_ONLY(scratch->objects_tested += cells_[idx].size();)
      CellDistances(partition, q, cells_[idx], &scratch->geo);
      for (size_t j = 0; j < cells_[idx].size(); ++j) {
        const double d = scratch->geo.values[j];
        if (d == kInfDistance) continue;
        collector->Offer(cells_[idx][j].first, d + extra);
      }
      continue;
    }
    for (const auto& [id, pos] : cells_[idx]) {
      const double d = partition.IntraDistance(q, pos);
      if (d == kInfDistance) continue;
      collector->Offer(id, d + extra);
    }
  }
}

}  // namespace indoor
