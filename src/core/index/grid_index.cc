#include "core/index/grid_index.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

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

// ------------------------------------------------------------------ ResultBits

namespace {

// Portable SWAR popcount: at the default x86-64 target std::popcount is a
// library call.
inline size_t PopCount(uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
  return static_cast<size_t>((x * 0x0101010101010101ull) >> 56);
}

// De Bruijn count of trailing zeros: the lowest set bit times the sequence
// puts a distinct pattern in the top six bits. Zero maps to bit 0.
constexpr uint64_t kDeBruijn64 = 0x03f79d71b4cb0a89ull;

constexpr std::array<uint8_t, 64> MakeDeBruijnIndex() {
  std::array<uint8_t, 64> index{};
  for (unsigned i = 0; i < 64; ++i) {
    index[((uint64_t{1} << i) * kDeBruijn64) >> 58] = static_cast<uint8_t>(i);
  }
  return index;
}

constexpr std::array<uint8_t, 64> kDeBruijnIndex = MakeDeBruijnIndex();

inline uint32_t LowestBit(uint64_t x) {
  return kDeBruijnIndex[((x & (~x + 1)) * kDeBruijn64) >> 58];
}

}  // namespace

std::vector<ObjectId> ResultBits::Emit() {
  // Every word decodes four positions unconditionally into slack past the
  // live ids and the cursor advances by its popcount, so the loop does not
  // branch on the bits; only a word with more than four keeps decoding.
  // The largest position written is count_ + 3.
  std::vector<ObjectId> ids(count_ + 4);
  ObjectId* const out = ids.data();
  size_t n = 0;
  for (size_t w = lo_; w < hi_; ++w) {
    uint64_t word = std::exchange((*words_)[w], 0);
    const size_t bits = PopCount(word);
    const auto base = static_cast<ObjectId>(w * 64);
    ObjectId* at = out + n;
    do {
      for (int j = 0; j < 4; ++j) {
        at[j] = base + LowestBit(word);
        word &= word - 1;
      }
      at += 4;
    } while (word != 0);
    n += bits;
  }
  ids.resize(n);
  return ids;
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
  cells_.assign(nx_ * ny_ + 1, CellSlice{});
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

Rect GridBucket::CellRect(size_t cx, size_t cy) const {
  const Point lo(origin_.x + cx * cell_size_, origin_.y + cy * cell_size_);
  return Rect(lo, Point(lo.x + cell_size_, lo.y + cell_size_));
}

void GridBucket::Insert(ObjectId id, const Point& position) {
  INDOOR_CHECK(!cells_.empty()) << "GridBucket not initialized";
  const size_t c = CellIndex(position);
  if (cells_[c].end == cells_[c + 1].begin) {
    // Full: double the cell's slots and shift the later cells' slices.
    const uint32_t slots = cells_[c + 1].begin - cells_[c].begin;
    const uint32_t grow = std::max<uint32_t>(slots, 4);
    const uint32_t at = cells_[c + 1].begin;
    ids_.insert(ids_.begin() + at, grow, kInvalidId);
    points_.insert(points_.begin() + at, grow, Point());
    for (size_t j = c + 1; j < cells_.size(); ++j) {
      cells_[j].begin += grow;
      cells_[j].end += grow;
    }
  }
  const uint32_t at = cells_[c].end++;
  ids_[at] = id;
  points_[at] = position;
  ++size_;
}

bool GridBucket::Remove(ObjectId id, const Point& position) {
  if (cells_.empty()) return false;
  CellSlice& cell = cells_[CellIndex(position)];
  for (uint32_t i = cell.begin; i < cell.end; ++i) {
    if (ids_[i] != id) continue;
    const uint32_t last = --cell.end;
    ids_[i] = ids_[last];
    points_[i] = points_[last];
    --size_;
    return true;
  }
  return false;
}

namespace {

enum class CellVerdict { kPrune, kWhole, kTest };

/// Whole-cell admission is only sound where intra-distance == scaled
/// Euclidean distance everywhere in the cell.
bool WholeCellsExact(const Partition& partition) {
  return !partition.footprint().HasObstacles() &&
         partition.footprint().outer().IsConvex();
}

/// What a range search from `q` with radius `r` does with a cell: prune it
/// by the Euclidean lower bound, admit it whole by the upper bound (only
/// where `whole_exact`), or test its objects one by one.
CellVerdict RangeCellVerdict(const Rect& cell, const Point& q, double scale,
                             double r, bool whole_exact) {
  if (cell.MinDistance(q) * scale > r) return CellVerdict::kPrune;
  if (whole_exact && cell.MaxDistance(q) * scale <= r) {
    return CellVerdict::kWhole;
  }
  return CellVerdict::kTest;
}

/// Rect::MinDistance of any cell in the grid row or column [lo, hi] is at
/// least this: its own expression with the other axis' gap at 0.
double AxisGap(double lo, double hi, double p) {
  const double d = std::max({lo - p, 0.0, p - hi});
  return std::sqrt(d * d);
}

/// The per-object test of a range search: intra-partition distances from
/// `q` to `targets` in one batched solve into scratch->geo.values, and
/// their d <= r verdicts, evaluated lane-parallel with the same results as
/// the scalar compare, into scratch->filter_mask.
void TestObjects(const Partition& partition, const Point& q, double r,
                 std::span<const Point> targets, BucketScratch* scratch) {
  const size_t n = targets.size();
  INDOOR_METRICS_ONLY(scratch->objects_tested += n;)
  scratch->geo.values.resize(n);
  partition.IntraDistancesToMany(q, targets, &scratch->geo,
                                 scratch->geo.values.data());
  scratch->filter_mask.resize(n);
  simd::MaskLessEqual(scratch->geo.values.data(), n, r,
                      scratch->filter_mask.data());
}

/// RangeSearchGates' per-object test of one cell for the gate (q, r):
/// adds the cell's objects within r to `bits`, testing only those not in
/// it yet.
void TestCellInto(const Partition& partition, std::span<const ObjectId> ids,
                  std::span<const Point> points, const Point& q, double r,
                  ResultBits* bits, BucketScratch* scratch) {
  std::vector<uint32_t>& slots = scratch->slots;
  slots.clear();
  for (uint32_t j = 0; j < ids.size(); ++j) {
    if (!bits->Contains(ids[j])) slots.push_back(j);
  }
  const size_t n = slots.size();
  if (n == 0) return;
  std::span<const Point> targets = points;
  if (n != points.size()) {  // some objects are in the result already
    std::vector<Point>& subset = scratch->geo.points;
    subset.clear();
    for (const uint32_t j : slots) subset.push_back(points[j]);
    targets = subset;
  }
  TestObjects(partition, q, r, targets, scratch);
  for (size_t k = 0; k < n; ++k) {
    if (scratch->filter_mask[k]) bits->Add(ids[slots[k]]);
  }
}

}  // namespace

void GridBucket::RangeSearch(const Partition& partition, const Point& q,
                             double r, std::vector<Neighbor>* out,
                             BucketScratch* scratch) const {
  if (size() == 0 || r < 0) return;
  INDOOR_METRICS_ONLY(if (scratch != nullptr) ++scratch->searches;)
  const double scale = partition.metric_scale();
  const bool whole_exact = WholeCellsExact(partition);
  for (size_t i = 0; i < cell_count(); ++i) {
    const uint32_t b = cells_[i].begin;
    const uint32_t e = cells_[i].end;
    if (b == e) continue;
    INDOOR_METRICS_ONLY(if (scratch != nullptr) ++scratch->cells_visited;)
    switch (RangeCellVerdict(CellRect(i), q, scale, r, whole_exact)) {
      case CellVerdict::kPrune:
        INDOOR_METRICS_ONLY(if (scratch != nullptr) ++scratch->cells_pruned;)
        continue;
      case CellVerdict::kWhole:
        INDOOR_METRICS_ONLY(
            if (scratch != nullptr) ++scratch->cells_admitted;)
        for (uint32_t j = b; j < e; ++j) {
          out->push_back({ids_[j], Distance(q, points_[j]) * scale});
        }
        continue;
      case CellVerdict::kTest:
        break;
    }
    if (scratch != nullptr) {
      TestObjects(partition, q, r, CellPoints(i), scratch);
      for (size_t j = 0; j < e - b; ++j) {
        if (scratch->filter_mask[j]) {
          out->push_back({ids_[b + j], scratch->geo.values[j]});
        }
      }
      continue;
    }
    for (uint32_t j = b; j < e; ++j) {
      const double d = partition.IntraDistance(q, points_[j]);
      if (d <= r) out->push_back({ids_[j], d});
    }
  }
}

void GridBucket::RangeSearchGates(const Partition& partition,
                                  std::span<const RangeGate> gates,
                                  ResultBits* bits,
                                  BucketScratch* scratch) const {
  if (size() == 0) return;
  const double scale = partition.metric_scale();
  const bool whole_exact = WholeCellsExact(partition);
  std::vector<uint8_t>& done = scratch->cell_done;
  done.assign(cell_count(), 0);
  for (const RangeGate& gate : gates) {
    const Point& q = gate.anchor;
    const double r = gate.budget;
    if (!(r >= 0)) continue;
    INDOOR_METRICS_ONLY(++scratch->searches;)
    // The columns that no axis gap rules out; any inside the range that
    // the gap would rule out are pruned by the verdict instead.
    size_t x0 = nx_, x1 = 0;
    for (size_t cx = 0; cx < nx_; ++cx) {
      const double lo = origin_.x + cx * cell_size_;
      if (AxisGap(lo, lo + cell_size_, q.x) * scale > r) continue;
      x0 = std::min(x0, cx);
      x1 = cx + 1;
    }
    for (size_t cy = 0; cy < ny_ && x0 < x1; ++cy) {
      const double lo = origin_.y + cy * cell_size_;
      if (AxisGap(lo, lo + cell_size_, q.y) * scale > r) continue;
      for (size_t cx = x0; cx < x1; ++cx) {
        const size_t i = cy * nx_ + cx;
        if (CellSize(i) == 0 || done[i]) continue;
        INDOOR_METRICS_ONLY(++scratch->cells_visited;)
        switch (RangeCellVerdict(CellRect(cx, cy), q, scale, r,
                                 whole_exact)) {
          case CellVerdict::kPrune:
            INDOOR_METRICS_ONLY(++scratch->cells_pruned;)
            break;
          case CellVerdict::kWhole:
            INDOOR_METRICS_ONLY(++scratch->cells_admitted;)
            done[i] = 1;
            for (const ObjectId id : CellIds(i)) bits->Add(id);
            break;
          case CellVerdict::kTest:
            TestCellInto(partition, CellIds(i), CellPoints(i), q, r, bits,
                         scratch);
            break;
        }
      }
    }
  }
}

bool GridBucket::WouldAdmit(const Partition& partition, const Point& q,
                            double r, const Point& position,
                            GeodesicScratch* geo) const {
  if (r < 0) return false;
  switch (RangeCellVerdict(CellRect(CellIndex(position)), q,
                           partition.metric_scale(), r,
                           WholeCellsExact(partition))) {
    case CellVerdict::kPrune:
      return false;
    case CellVerdict::kWhole:
      return true;
    case CellVerdict::kTest:
      break;
  }
  return partition.IntraDistance(q, position, geo) <= r;
}

void GridBucket::NnSearch(const Partition& partition, const Point& q,
                          double extra, KnnCollector* collector,
                          BucketScratch* scratch) const {
  if (size() == 0) return;
  INDOOR_METRICS_ONLY(if (scratch != nullptr) ++scratch->searches;)
  const double scale = partition.metric_scale();
  // Visit cells in ascending lower-bound order so the bound tightens early.
  std::vector<std::pair<double, size_t>> local_order;
  std::vector<std::pair<double, size_t>>& order =
      scratch != nullptr ? scratch->cell_order : local_order;
  order.clear();
  order.reserve(cell_count());
  for (size_t i = 0; i < cell_count(); ++i) {
    if (CellSize(i) == 0) continue;
    order.push_back({CellRect(i).MinDistance(q) * scale + extra, i});
  }
  std::sort(order.begin(), order.end());
  for (const auto& [lower, idx] : order) {
    if (lower >= collector->Bound()) break;
    INDOOR_METRICS_ONLY(if (scratch != nullptr) ++scratch->cells_visited;)
    const std::span<const ObjectId> ids = CellIds(idx);
    if (scratch != nullptr) {
      INDOOR_METRICS_ONLY(scratch->objects_tested += ids.size();)
      // One batched solve per cell, read in place; the source-solve cache
      // in the scratch collapses repeated cells of a search into one solve.
      std::vector<double>& values = scratch->geo.values;
      values.resize(ids.size());
      partition.IntraDistancesToMany(q, CellPoints(idx), &scratch->geo,
                                     values.data());
      for (size_t j = 0; j < ids.size(); ++j) {
        if (values[j] == kInfDistance) continue;
        collector->Offer(ids[j], values[j] + extra);
      }
      continue;
    }
    const std::span<const Point> points = CellPoints(idx);
    for (size_t j = 0; j < ids.size(); ++j) {
      const double d = partition.IntraDistance(q, points[j]);
      if (d == kInfDistance) continue;
      collector->Offer(ids[j], d + extra);
    }
  }
}

}  // namespace indoor
