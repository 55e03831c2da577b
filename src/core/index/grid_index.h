// Intra-partition object organization (paper §IV-B, §V-B): objects of one
// partition live in an object bucket that is subdivided by a uniform grid;
// each grid cell is a sub-bucket. rangeSearch/nnSearch prune whole cells by
// circle overlap before touching individual objects.
//
// Layout: a bucket is one cell-ordered array of (id, position) slots held
// as two parallel arrays. Cell c owns the slots from its begin up to the
// next cell's begin, and its entries fill the front of them, [begin, end).
// Insert appends at the end of its cell and Remove moves its cell's last
// entry into the hole, so every cell keeps the order a vector per cell
// would give it (kNN's offer order, and with it its ties at the k-th
// distance, depend on that order). An update touches only its own cell's
// slice and slots: only a full cell grows, doubling its slots and shifting
// the later cells, so growth stops once every cell has held its peak.
// Whole-bucket inclusion reads the slot arrays front to back, and a cell's
// batched distance solve reads its positions in place.
//
// Range queries reach one partition through several doors. RangeSearchGates
// admits, in one pass over the bucket, the union of what RangeSearch would
// admit for each (anchor, budget) gate, straight into the query's result
// bitmap. It is exact because it only skips work whose outcome is known:
//   - a row or column whose axis gap alone, sqrt(g * g) * scale, exceeds
//     the budget. That is Rect::MinDistance's own expression with the
//     other axis at 0, and rounding is monotone, so every cell there has
//     MinDistance * scale >= the gap's and RangeSearch prunes it too;
//   - a cell an earlier gate of the pass admitted whole, and an object
//     already in the bitmap: both are in the union already.
// Every other cell goes through the per-cell verdict RangeSearch and
// WouldAdmit use (prune by the lower bound, admit whole by the upper bound
// in obstacle-free convex partitions, else the batched per-object test),
// and each object's distance is the one per-object IntraDistance gives.

#ifndef INDOOR_CORE_INDEX_GRID_INDEX_H_
#define INDOOR_CORE_INDEX_GRID_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "indoor/partition.h"
#include "util/metrics.h"

namespace indoor {

/// A query result entry: object and its indoor walking distance.
struct Neighbor {
  ObjectId id = kInvalidId;
  double distance = kInfDistance;

  bool operator==(const Neighbor& o) const {
    return id == o.id && distance == o.distance;
  }
};

/// Collects the k nearest objects with per-object-id de-duplication (the
/// same object can be reached through several doors; only its best distance
/// may occupy a slot).
///
/// Stored as one flat sorted vector of (distance, id) pairs — k is small,
/// so linear dedup beats the former set + hash-map pair, and Reset(k) lets
/// per-thread scratch reuse the buffer allocation-free across queries.
class KnnCollector {
 public:
  /// A held candidate: (distance, id).
  using value_type = std::pair<double, ObjectId>;

  explicit KnnCollector(size_t k);

  /// Re-arms the collector for a new query, keeping buffer capacity.
  void Reset(size_t k);

  /// Current pruning bound: the k-th best distance, or kInfDistance while
  /// fewer than k objects are collected.
  double Bound() const {
    return entries_.size() == k_ ? entries_.back().first : kInfDistance;
  }

  /// Offers a candidate; keeps it only if it improves the collection.
  /// Returns true if the candidate was (re)admitted.
  bool Offer(ObjectId id, double distance);

  /// The collected neighbors, nearest first.
  std::vector<Neighbor> Sorted() const;

  /// The k this collector was (re-)armed with.
  size_t k() const { return k_; }

  /// Candidates currently held (<= k()).
  size_t size() const { return entries_.size(); }

  /// Allocated candidate-buffer bytes (scratch-arena decay accounting).
  size_t CapacityBytes() const {
    return entries_.capacity() * sizeof(entries_[0]);
  }
  /// Releases capacity beyond the current size (scratch-arena decay).
  void ShrinkToFit() { entries_.shrink_to_fit(); }

 private:
  size_t k_;
  // (distance, id), ascending; at most k entries.
  std::vector<value_type> entries_;
};

/// A range query's result as one bit per object id, over caller-owned
/// words that are all-zero between queries. Add sets an id's bit and counts
/// the id the first time. Emit returns the set ids in ascending order, in a
/// vector allocated once, and zeroes every word it scans. An object
/// admitted through several doors, or by the host search and a door, is
/// emitted once.
class ResultBits {
 public:
  ResultBits(std::vector<uint64_t>* words, size_t objects) : words_(words) {
    const size_t need = (objects + 63) / 64;
    if (words_->size() < need) words_->resize(need);  // new words are zero
  }

  bool Contains(ObjectId id) const {
    return ((*words_)[id / 64] >> (id % 64)) & 1;
  }

  void Add(ObjectId id) {
    const size_t w = id / 64;
    const uint64_t bit = uint64_t{1} << (id % 64);
    count_ += ((*words_)[w] & bit) == 0;
    (*words_)[w] |= bit;
    lo_ = std::min(lo_, w);
    hi_ = std::max(hi_, w + 1);
  }

  std::vector<ObjectId> Emit();

 private:
  std::vector<uint64_t>* words_;
  size_t count_ = 0;
  size_t lo_ = std::numeric_limits<size_t>::max();  // touched words [lo, hi)
  size_t hi_ = 0;
};

/// One gate of a GridBucket::RangeSearchGates pass: the RangeSearch
/// anchored at `anchor` with radius `budget`.
struct RangeGate {
  Point anchor;
  double budget = 0.0;
};

/// Reusable GridBucket search state: the geodesic scratch for batched
/// intra-partition distances plus the cell visit-order buffer. Same
/// ownership contract as GeodesicScratch — one thread at a time, buffers
/// survive across searches.
struct BucketScratch {
  GeodesicScratch geo;
  std::vector<std::pair<double, size_t>> cell_order;
  /// Byte mask of the batched distance-filter compare (RangeSearch's
  /// d <= r test, evaluated via simd::MaskLessEqual over a whole cell).
  std::vector<uint8_t> filter_mask;
  /// RangeSearchGates: the caller's gates of one partition, the cells the
  /// running pass admitted whole, and the entries of a cell still to test.
  std::vector<RangeGate> gates;
  std::vector<uint8_t> cell_done;
  std::vector<uint32_t> slots;

  /// Observability accumulators, incremented by GridBucket searches (only
  /// when the library is built with INDOOR_METRICS=ON) and drained into
  /// the global `index.grid.*` counters once per query by
  /// FlushBucketStats. Plain fields — per-thread, no atomics — so the
  /// search inner loops stay cheap. Always present to keep the struct
  /// layout independent of the metrics option.
  uint64_t searches = 0;
  uint64_t cells_visited = 0;
  uint64_t cells_pruned = 0;
  uint64_t cells_admitted = 0;
  uint64_t objects_tested = 0;

  /// Per-query partition-hotness staging: (partition, objects tested
  /// there) pairs appended by the door-expansion paths and drained once
  /// per query into IndexFramework's PartitionHotness accumulator
  /// (util/timeseries.h) via FlushVisits. Same plain-field contract as
  /// the counters above: only touched inside INDOOR_METRICS_ONLY.
  std::vector<std::pair<uint32_t, uint32_t>> hot;
};

/// Drains a scratch's accumulated grid-search statistics into the
/// `index.grid.*` counters and zeroes them. Query entry points call this
/// once per query, inside INDOOR_METRICS_ONLY.
inline void FlushBucketStats(BucketScratch* scratch) {
  INDOOR_COUNTER_ADD("index.grid.searches", scratch->searches);
  INDOOR_COUNTER_ADD("index.grid.cells_visited", scratch->cells_visited);
  INDOOR_COUNTER_ADD("index.grid.cells_pruned", scratch->cells_pruned);
  INDOOR_COUNTER_ADD("index.grid.cells_admitted", scratch->cells_admitted);
  INDOOR_COUNTER_ADD("index.grid.objects_tested", scratch->objects_tested);
  scratch->searches = 0;
  scratch->cells_visited = 0;
  scratch->cells_pruned = 0;
  scratch->cells_admitted = 0;
  scratch->objects_tested = 0;
}

/// The grid-subdivided object bucket of one partition. Stores (id, point)
/// pairs; all distances reported by searches are intra-partition walking
/// distances (obstructed and metric-scaled as the partition dictates).
///
/// Thread-safety: ForEachId/CollectAll/RangeSearch/RangeSearchGates/
/// NnSearch and the cell accessors are const and keep all traversal state
/// (cell frontiers, candidate heaps) in locals or caller-provided
/// scratch/output buffers, so concurrent readers are safe. Insert/Remove
/// require external synchronization.
class GridBucket {
 public:
  GridBucket() = default;

  /// Covers the partition's bounding box with square cells of `cell_size`
  /// meters (at least 1 x 1 cells).
  GridBucket(const Partition& partition, double cell_size);

  /// Adds an object at `position` (must lie in the covered bounding box)
  /// at the end of its cell.
  void Insert(ObjectId id, const Point& position);

  /// Removes the object (position must match the inserted one); its
  /// cell's last entry takes its place. Returns false if absent.
  bool Remove(ObjectId id, const Point& position);

  /// Objects currently in the bucket.
  size_t size() const { return size_; }

  /// Grid cells covering the partition's bounding box.
  size_t cell_count() const { return nx_ * ny_; }

  /// Calls visit(id) for every object in the bucket, cell by cell
  /// (whole-partition inclusion).
  template <typename Visit>
  void ForEachId(const Visit& visit) const {
    for (size_t c = 0; c < cell_count(); ++c) {
      for (uint32_t j = cells_[c].begin; j < cells_[c].end; ++j) {
        visit(ids_[j]);
      }
    }
  }

  /// Appends every object id in the bucket (whole-partition inclusion).
  void CollectAll(std::vector<ObjectId>* out) const {
    for (size_t c = 0; c < cell_count(); ++c) {
      out->insert(out->end(), ids_.begin() + cells_[c].begin,
                  ids_.begin() + cells_[c].end);
    }
  }

  /// rangeSearch(B, q, r): appends (id, distance) of all objects whose
  /// intra-partition distance from `q` is <= r. Cells are pruned by the
  /// Euclidean lower bound; obstacle-free convex partitions also admit
  /// whole cells by the Euclidean upper bound. With a scratch, each cell's
  /// surviving objects are resolved through one batched geodesic solve
  /// (ObstructedRegion::DistancesToMany) — identical results, no per-object
  /// Dijkstra; a null scratch keeps the historical per-object evaluation.
  void RangeSearch(const Partition& partition, const Point& q, double r,
                   std::vector<Neighbor>* out,
                   BucketScratch* scratch = nullptr) const;

  /// Adds to `bits` every object that RangeSearch(partition, g.anchor,
  /// g.budget) admits for some gate g, in one pass over the bucket (see
  /// the file comment for why the pass is exact). A gate with a negative
  /// or NaN budget admits nothing, as in RangeSearch.
  void RangeSearchGates(const Partition& partition,
                        std::span<const RangeGate> gates, ResultBits* bits,
                        BucketScratch* scratch) const;

  /// Single-object admission predicate of RangeSearch: would a
  /// RangeSearch(partition, q, r, ...) report an object located at
  /// `position`? Applies the same per-cell verdict as the full search, so
  /// the answer is bit-identical to the full search's treatment of that
  /// object. Backs the query cache's stale-result repair path.
  bool WouldAdmit(const Partition& partition, const Point& q, double r,
                  const Point& position, GeodesicScratch* geo = nullptr) const;

  /// nnSearch(B, q, ...): offers objects to `collector`, visiting cells in
  /// ascending lower-bound order and stopping once no cell can beat the
  /// collector's bound. `extra` is added to every distance before offering
  /// (the q-to-door leg accumulated outside this partition). Scratch
  /// semantics as in RangeSearch.
  void NnSearch(const Partition& partition, const Point& q, double extra,
                KnnCollector* collector,
                BucketScratch* scratch = nullptr) const;

  /// Geometry of cell `idx` (for external best-first traversals).
  Rect CellRectAt(size_t idx) const { return CellRect(idx); }

  /// Ids and positions of cell `idx`'s objects, in the cell's order.
  std::span<const ObjectId> CellIds(size_t idx) const {
    INDOOR_CHECK(idx < cell_count());
    return {ids_.data() + cells_[idx].begin, CellSize(idx)};
  }
  std::span<const Point> CellPoints(size_t idx) const {
    INDOOR_CHECK(idx < cell_count());
    return {points_.data() + cells_[idx].begin, CellSize(idx)};
  }

 private:
  size_t CellIndex(const Point& p) const;
  Rect CellRect(size_t cx, size_t cy) const;
  Rect CellRect(size_t idx) const { return CellRect(idx % nx_, idx / nx_); }
  size_t CellSize(size_t idx) const {
    return cells_[idx].end - cells_[idx].begin;
  }

  /// Cell c's entries are slots [begin, end) of the parallel arrays ids_
  /// and points_; its free slots run up to cells_[c + 1].begin. The last
  /// element is a sentinel whose begin is the slot count.
  struct CellSlice {
    uint32_t begin = 0;
    uint32_t end = 0;
  };

  Point origin_;
  double cell_size_ = 1.0;
  size_t nx_ = 0, ny_ = 0;
  size_t size_ = 0;
  std::vector<CellSlice> cells_;
  std::vector<ObjectId> ids_;
  std::vector<Point> points_;
};

}  // namespace indoor

#endif  // INDOOR_CORE_INDEX_GRID_INDEX_H_
