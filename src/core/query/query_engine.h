// QueryEngine: the library's top-level facade. Owns a floor plan and its
// full indexing framework, and exposes the distance computations and
// distance-aware queries of the paper behind one object.

#ifndef INDOOR_CORE_QUERY_QUERY_ENGINE_H_
#define INDOOR_CORE_QUERY_QUERY_ENGINE_H_

#include <memory>
#include <span>

#include "core/distance/hierarchy_distance.h"
#include "core/distance/matrix_distance.h"
#include "core/distance/shortest_path.h"
#include "core/query/batch_executor.h"
#include "core/query/knn_query.h"
#include "core/query/query_cache.h"
#include "core/query/range_query.h"

namespace indoor {

/// One-stop API over a floor plan: construct with a plan, add objects, ask
/// for distances, paths, range and kNN results.
///
///   QueryEngine engine(MakeRunningExamplePlan());
///   engine.AddObject(room, point);
///   double d = engine.Distance(p, q);
///   auto nearest = engine.Nearest(p, 3);
///
/// Thread-safety: every const method (Distance, DoorDistance,
/// ShortestPath, Range, Nearest, Locate) may be called concurrently from
/// any number of threads once construction and object loading are done —
/// the underlying index is immutable, and per-query mutable state lives in
/// a QueryScratch arena. Callers that pass no scratch get the calling
/// thread's TlsQueryScratch() automatically; callers that manage their own
/// threads may instead pass one QueryScratch per thread explicitly (see
/// query_scratch.h for the ownership contract). Either way the hot query
/// path performs no steady-state heap allocations. AddObject/MoveObject
/// are writes: they require external synchronization and must not overlap
/// any in-flight reader.
///
/// Positions no partition contains, NaN and infinite coordinates included,
/// are not located: Distance returns kInfDistance, Range and Nearest
/// return empty results, Locate returns NotFound, and RunBatch answers
/// such requests the same way. Range also returns empty when r is
/// negative or NaN. The answer is the same with the cache on and off.
class QueryEngine {
 public:
  /// Takes ownership of the plan and builds every index over it.
  explicit QueryEngine(FloorPlan plan, IndexOptions options = {});

  /// Takes ownership of the plan and adopts preloaded index structures
  /// (the `indoor_tool serve --load` / `--load-mmap` cold-start path);
  /// structures absent from `artifacts` are built normally.
  QueryEngine(FloorPlan plan, IndexArtifacts artifacts,
              IndexOptions options = {});

  const FloorPlan& plan() const { return *plan_; }
  const IndexFramework& index() const { return *index_; }
  IndexFramework& index() { return *index_; }

  /// Adds an object into `partition` at `position`. Writes no longer
  /// touch the cross-query cache: geometry entries (distance fields, host
  /// lookups) never depend on objects, and object-dependent result
  /// entries are epoch-versioned per partition — the store bumps the
  /// epochs of the partitions the write touches and stale cached results
  /// are lazily rejected at lookup (see query_cache.h).
  Result<ObjectId> AddObject(PartitionId partition, const Point& position) {
    return index_->objects().Insert(partition, position);
  }

  /// Relocates an object (moving populations); epoch semantics as in
  /// AddObject.
  Status MoveObject(ObjectId id, PartitionId partition,
                    const Point& position) {
    return index_->objects().MoveObject(id, partition, position);
  }

  /// Applies a batch of moves in submission order through the observed
  /// ingest path (per-move capture records + update metrics); stops at the
  /// first failing op and returns its status. Equivalent to calling
  /// MoveObject per op. Like all writes, must not overlap readers.
  Status ApplyMoves(std::span<const MoveOp> moves) {
    return ApplyMoveBatch(*index_, moves);
  }

  /// Minimum indoor walking distance between two positions (exact; reads
  /// the pre-computed Md2d — or, under IndexOptions::use_hierarchy, the
  /// bit-identical hierarchy solver). kInfDistance when disconnected or
  /// not indoors.
  double Distance(const Point& ps, const Point& pt,
                  QueryScratch* scratch = nullptr) const {
    if (!index_->has_flat_matrix()) {
      return Pt2PtDistanceHierarchy(index_->locator(), index_->graph(),
                                    index_->hierarchy_index(), ps, pt,
                                    scratch, index_->query_cache(),
                                    index_->queue_kind());
    }
    return Pt2PtDistanceMatrix(index_->locator(), index_->d2d_matrix(), ps,
                               pt, scratch, index_->query_cache());
  }

  /// Minimum walking distance between two doors.
  double DoorDistance(DoorId ds, DoorId dt) const {
    if (!index_->has_flat_matrix()) {
      return HierarchyDoorDistance(index_->graph(), index_->hierarchy_index(),
                                   ds, dt, nullptr, index_->queue_kind());
    }
    return index_->d2d_matrix().At(ds, dt);
  }

  /// Concrete shortest path between two positions.
  IndoorPath ShortestPath(const Point& ps, const Point& pt,
                          bool expand_waypoints = false) const {
    return Pt2PtShortestPath(index_->distance_context(), ps, pt,
                             expand_waypoints);
  }

  /// Range query Qr(q, r).
  std::vector<ObjectId> Range(const Point& q, double r,
                              RangeQueryOptions options = {},
                              QueryScratch* scratch = nullptr) const {
    return RangeQuery(*index_, q, r, options, scratch);
  }

  /// kNN query, nearest first.
  std::vector<Neighbor> Nearest(const Point& q, size_t k,
                                KnnQueryOptions options = {},
                                QueryScratch* scratch = nullptr) const {
    return KnnQuery(*index_, q, k, options, scratch);
  }

  /// getHostPartition(p), served through the cross-query cache when
  /// enabled.
  Result<PartitionId> Locate(const Point& p) const {
    return CachedHostPartition(index_->query_cache(), index_->locator(), p);
  }

  /// Executes a mixed pt2pt/range/kNN batch: requests are grouped by host
  /// partition (sharing warmed source fields) and fanned across
  /// `options.threads` workers. Results are bit-identical to calling
  /// Distance/Range/Nearest in a sequential loop, in request order. For a
  /// long-lived serving loop prefer constructing one BatchExecutor next
  /// to it (reuses workers and scratches across batches).
  std::vector<QueryResult> RunBatch(std::span<const QueryRequest> requests,
                                    const BatchOptions& options = {}) const {
    return indoor::RunBatch(*index_, requests, options);
  }

 private:
  // unique_ptrs keep the plan's address stable for the index's back
  // references while letting QueryEngine stay movable.
  std::unique_ptr<FloorPlan> plan_;
  std::unique_ptr<IndexFramework> index_;
};

}  // namespace indoor

#endif  // INDOOR_CORE_QUERY_QUERY_ENGINE_H_
