// Intra-partition object organization (paper §IV-B, §V-B): objects of one
// partition live in an object bucket that is subdivided by a uniform grid;
// each grid cell is a sub-bucket. rangeSearch/nnSearch prune whole cells by
// circle overlap before touching individual objects.

#ifndef INDOOR_CORE_INDEX_GRID_INDEX_H_
#define INDOOR_CORE_INDEX_GRID_INDEX_H_

#include <cstdint>
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
  std::vector<std::pair<double, ObjectId>> entries_;
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
/// Thread-safety: ForEachId/CollectAll/RangeSearch/NnSearch and the cell
/// accessors are const and keep all traversal state (cell frontiers,
/// candidate heaps) in locals or caller-provided scratch/output buffers, so
/// concurrent readers are safe. Insert/Remove require external
/// synchronization.
class GridBucket {
 public:
  GridBucket() = default;

  /// Covers the partition's bounding box with square cells of `cell_size`
  /// meters (at least 1 x 1 cells).
  GridBucket(const Partition& partition, double cell_size);

  /// Adds an object at `position` (must lie in the covered bounding box).
  void Insert(ObjectId id, const Point& position);

  /// Removes the object (position must match the inserted one). Returns
  /// false if absent.
  bool Remove(ObjectId id, const Point& position);

  /// Objects currently in the bucket.
  size_t size() const { return count_; }

  /// Grid cells covering the partition's bounding box.
  size_t cell_count() const { return cells_.size(); }

  /// Calls visit(id) for every object in the bucket (whole-partition
  /// inclusion).
  template <typename Visit>
  void ForEachId(const Visit& visit) const {
    for (const auto& cell : cells_) {
      for (const auto& [id, pos] : cell) visit(id);
    }
  }

  /// Appends every object id in the bucket (whole-partition inclusion).
  void CollectAll(std::vector<ObjectId>* out) const {
    ForEachId([out](ObjectId id) { out->push_back(id); });
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

  /// Single-object admission predicate of RangeSearch: would a
  /// RangeSearch(partition, q, r, ...) report an object located at
  /// `position`? Mirrors the cell-level shortcuts (Euclidean lower-bound
  /// prune, whole-cell upper-bound admission) exactly, so the verdict is
  /// bit-identical to the full search's treatment of that object. Backs
  /// the query cache's stale-result repair path.
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

  /// Contents of cell `idx`.
  const std::vector<std::pair<ObjectId, Point>>& CellContents(
      size_t idx) const {
    INDOOR_CHECK(idx < cells_.size());
    return cells_[idx];
  }

 private:
  size_t CellIndex(const Point& p) const;
  Rect CellRect(size_t idx) const;

  Point origin_;
  double cell_size_ = 1.0;
  size_t nx_ = 0, ny_ = 0;
  size_t count_ = 0;
  std::vector<std::vector<std::pair<ObjectId, Point>>> cells_;
};

}  // namespace indoor

#endif  // INDOOR_CORE_INDEX_GRID_INDEX_H_
