// The complete indexing framework of paper §IV: the distance-aware graph,
// the R-tree-backed locator, the pre-computed door-to-door distance matrix
// Md2d, the distance index matrix Midx, the door-to-partition table DPT,
// and the grid-bucketed object store — built together from one floor plan.

#ifndef INDOOR_CORE_INDEX_INDEX_FRAMEWORK_H_
#define INDOOR_CORE_INDEX_INDEX_FRAMEWORK_H_

#include <memory>

#include "core/distance/pt2pt_distance.h"
#include "core/index/approx_knn.h"
#include "core/index/distance_index_matrix.h"
#include "core/index/distance_matrix.h"
#include "core/index/dpt.h"
#include "core/index/hierarchy_index.h"
#include "core/index/index_artifacts.h"
#include "core/index/landmark_index.h"
#include "core/index/object_store.h"
#include "core/model/distance_graph.h"
#include "core/model/locator.h"
#include "util/timeseries.h"

namespace indoor {

/// Construction knobs.
struct IndexOptions {
  /// Grid cell edge length for the intra-partition object index.
  double grid_cell_size = 2.0;
  /// Worker threads for the precomputation-heavy structures (Md2d rows,
  /// Midx row sorts, DPT records). 1 = fully sequential build,
  /// 0 = hardware concurrency. Parallel builds produce bit-identical
  /// structures (see thread_pool.h).
  unsigned build_threads = 1;

  /// Build ALT landmark rows (landmark_index.h) and attach them to query
  /// contexts; pruning with them is loss-free, so results stay
  /// bit-identical with landmarks on or off.
  bool use_landmarks = true;
  /// Landmarks selected at build time (clamped to LandmarkIndex::kMaxCount
  /// and the door count). More landmarks = tighter bounds, linearly more
  /// build work and per-bound arithmetic. 0 (the default) auto-scales with
  /// the plan's door count — AutoLandmarkCount in landmark_index.h; the
  /// curve is documented in docs/BENCHMARKS.md. Pruning is loss-free at
  /// any count, so results never depend on this knob.
  unsigned landmark_count = 0;

  /// Build the approximate kNN tier (core/index/approx_knn.h): per-object
  /// landmark embeddings served by KnnQuery's candidate-generation +
  /// exact-re-rank path. Default OFF: the tier trades recall for QPS, so
  /// it must be an explicit opt-in and is never consulted by the reference
  /// implementations or anything digest-gated. Requires use_landmarks and
  /// the flat matrices (ignored under use_hierarchy).
  bool approx_knn = false;
  /// Candidate over-provisioning for the approximate tier: the query exact
  /// re-ranks up to k * approx_candidate_factor bound-sorted candidates.
  /// Larger = higher recall, more re-rank work. KnnQueryOptions can lower
  /// or raise it per query without rebuilding.
  unsigned approx_candidate_factor = 8;

  /// Replace the flat O(|D|^2) Md2d/Midx with the partition-contraction
  /// hierarchy (hierarchy_index.h): per-cell exact distance blocks plus a
  /// border-door clique, with bounded Dijkstra expansions at query time.
  /// Every query result stays bitwise identical to the flat engine (the
  /// flat path remains the default and the oracle); only build time,
  /// memory, and per-query work change. Query paths that still require
  /// the dense matrices (distance joins, incremental kNN, the reference
  /// implementations) reject with a CHECK under this option.
  bool use_hierarchy = false;
  /// Target partitions per hierarchy cell (build-time clustering knob).
  /// A cell is a BFS core of about this many partitions plus the
  /// fragments (cells of at most 2 partitions) folded into it, so it may
  /// hold more. Smaller cells = less block memory but more border doors;
  /// the total footprint is sum_c |M_c|^2 + |B|^2 versus the flat |D|^2.
  unsigned hierarchy_cell_target = 128;

  /// Cross-query work sharing (core/query/query_cache.h): cache host
  /// partition lookups and source/destination door distance fields across
  /// queries. Results are bit-identical with the cache on or off; turn it
  /// off for purity-sensitive comparisons (the reference implementations
  /// never consult it either way).
  bool enable_query_cache = true;
  /// Cache byte budget for the geometry caches (3/4 distance fields, 1/4
  /// host lookups); the range/kNN result cache gets an additional 1/4 of
  /// this on top.
  size_t cache_capacity_bytes = 32u << 20;
  /// Shards per cache (rounded up to a power of two).
  unsigned cache_shards = 16;
};

/// Owns every index structure over one (externally owned) FloorPlan.
///
/// Thread-safety: construction and mutation are single-threaded, but once
/// built, every const accessor — and every query algorithm that takes a
/// `const IndexFramework&` (range, kNN, window, distance lookups) — is
/// safe to call from any number of concurrent readers: all structures are
/// precomputed eagerly (no lazy caches) and queries keep their scratch
/// state (heaps, collectors, visited sets) on the stack. Writes through
/// the non-const `objects()` accessor (Insert/MoveObject) must be
/// externally synchronized and must not overlap any reader.
class IndexFramework {
 public:
  explicit IndexFramework(const FloorPlan& plan, IndexOptions options = {});

  /// Cold-start constructor: adopts the preloaded (or mmap-ed) structures
  /// in `artifacts` and builds only the absent ones. The artifacts must
  /// have been produced for `plan` (index_io.cc authenticates the
  /// container by plan fingerprint before handing them over).
  IndexFramework(const FloorPlan& plan, IndexArtifacts artifacts,
                 IndexOptions options = {});

  ~IndexFramework();  // defined in .cc where QueryCache is complete

  const FloorPlan& plan() const { return *plan_; }
  const IndexOptions& options() const { return options_; }
  const DistanceGraph& graph() const { return graph_; }
  const PartitionLocator& locator() const { return locator_; }

  /// True when the dense Md2d/Midx pair exists (the default); false under
  /// IndexOptions::use_hierarchy, where the hierarchy serves instead.
  bool has_flat_matrix() const { return !options_.use_hierarchy; }

  const DistanceMatrix& d2d_matrix() const {
    INDOOR_CHECK(has_flat_matrix())
        << "flat Md2d disabled by IndexOptions::use_hierarchy; this query "
           "path has no hierarchy lowering";
    return d2d_matrix_;
  }
  const DistanceIndexMatrix& index_matrix() const {
    INDOOR_CHECK(has_flat_matrix())
        << "flat Midx disabled by IndexOptions::use_hierarchy; this query "
           "path has no hierarchy lowering";
    return index_matrix_;
  }

  /// The partition-contraction hierarchy; invalid (valid() == false) when
  /// IndexOptions::use_hierarchy is off or the plan has no doors.
  const HierarchyIndex& hierarchy_index() const { return hierarchy_; }

  const DoorPartitionTable& dpt() const { return dpt_; }
  ObjectStore& objects() { return objects_; }
  const ObjectStore& objects() const { return objects_; }

  /// The cross-query cache, or null when IndexOptions disabled it.
  const QueryCache* query_cache() const { return query_cache_.get(); }

  /// Drops every cached cross-query entry (operator-facing full reset).
  /// Object writes do NOT need this: geometry entries are never affected
  /// by the object population, and object-dependent result entries are
  /// epoch-versioned per partition and lazily rejected at lookup (see
  /// query_cache.h). No-op when the cache is disabled.
  void InvalidateQueryCache() const;

  /// The per-partition visit/settle accumulator (one cell per
  /// partition), fed by the range/kNN door-expansion paths and sampled
  /// by the flight recorder; the input to cell-eviction decisions.
  /// Lock-free relaxed atomics, so handing concurrent readers a mutable
  /// reference is safe — the accumulator is telemetry, never consulted
  /// by query results.
  tseries::PartitionHotness& hotness() const { return hotness_; }

  /// The ALT landmark rows, or null when IndexOptions disabled them.
  const LandmarkIndex* landmarks() const {
    return landmarks_.valid() ? &landmarks_ : nullptr;
  }

  /// The approximate-kNN embedding store, or null when the tier is off or
  /// has no embeddings yet (RefreshApproxKnn never ran, or landmarks are
  /// absent). Callers must still check FreshFor before serving from it.
  const ApproxKnnIndex* approx_knn() const {
    return options_.approx_knn && approx_.valid() ? &approx_ : nullptr;
  }

  /// (Re)builds the approximate-kNN embeddings against the current object
  /// population. Called by ApplyMoveBatch after every applied batch, and
  /// manually after bulk Insert loops (tools, benches, tests). No-op when
  /// the tier is off; writer-side — must not overlap readers (same
  /// barrier as object writes).
  void RefreshApproxKnn();

  /// Context for the pt2pt distance algorithms (cache and landmarks
  /// attached when enabled).
  DistanceContext distance_context() const {
    DistanceContext ctx(graph_, locator_);
    ctx.cache = query_cache_.get();
    ctx.landmarks = landmarks();
    return ctx;
  }

  /// Total bytes of the pre-computed structures (Md2d + Midx + DPT +
  /// landmark rows + hierarchy arrays + approx-kNN embeddings; absent
  /// structures report 0).
  size_t IndexMemoryBytes() const {
    return d2d_matrix_.MemoryBytes() + index_matrix_.MemoryBytes() +
           dpt_.MemoryBytes() + landmarks_.MemoryBytes() +
           hierarchy_.MemoryBytes() + approx_.MemoryBytes();
  }

 private:
  /// Adopts present artifacts and builds the rest (both constructors).
  void BuildStructures(IndexArtifacts* artifacts);

  const FloorPlan* plan_;
  IndexOptions options_;
  DistanceGraph graph_;
  PartitionLocator locator_;
  DistanceMatrix d2d_matrix_;       // empty under use_hierarchy
  DistanceIndexMatrix index_matrix_;  // empty under use_hierarchy
  DoorPartitionTable dpt_;
  HierarchyIndex hierarchy_;  // invalid unless use_hierarchy
  LandmarkIndex landmarks_;   // invalid (empty) when disabled
  ApproxKnnIndex approx_;     // invalid until RefreshApproxKnn (opt-in)
  ObjectStore objects_;
  mutable tseries::PartitionHotness hotness_;  // telemetry, hence mutable
  std::unique_ptr<QueryCache> query_cache_;  // null when disabled
  /// Keeps an mmap-ed container alive while structures borrow its pages.
  std::shared_ptr<const void> mapping_;
};

}  // namespace indoor

#endif  // INDOOR_CORE_INDEX_INDEX_FRAMEWORK_H_
