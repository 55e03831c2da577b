// Batched parallel query execution: the serving-side counterpart of the
// cross-query cache (query_cache.h).
//
// A batch of mixed pt2pt / range / kNN requests is executed as follows:
//
//   1. every request's host partition is resolved once up front (through
//      the cache when enabled),
//   2. requests are ordered by (host partition, exact query position), so
//      same-source queries run back to back — the first one warms the
//      partition's source-door field and the rest hit it (and even with
//      the cache off, consecutive same-source geodesic solves reuse the
//      GeodesicScratch single-source cache),
//   3. contiguous same-partition groups are claimed by the workers, each
//      with one long-lived QueryScratch: the calling thread is worker 0
//      and a ThreadPool runs the others (a one-worker executor holds no
//      pool and runs the batch inline),
//   4. each result lands in the slot of its originating request.
//
// Results are bit-identical to running the same requests through
// QueryEngine::Distance/Range/Nearest in a sequential loop, in any thread
// count and any grouping: per-request computation is untouched, only the
// execution order changes, and no query state is shared beyond the
// thread-safe cache.
//
// Thread-safety: one Run() at a time per executor (it owns the worker
// scratches); different executors over the same index may run
// concurrently. Run() must not overlap index writes.

#ifndef INDOOR_CORE_QUERY_BATCH_EXECUTOR_H_
#define INDOOR_CORE_QUERY_BATCH_EXECUTOR_H_

#include <optional>
#include <span>
#include <vector>

#include "core/distance/query_scratch.h"
#include "core/index/index_framework.h"
#include "util/thread_pool.h"

namespace indoor {

/// One distance-aware query of a batch.
struct QueryRequest {
  enum class Kind : uint8_t {
    kDistance,  // pt2pt walking distance a -> b (matrix path)
    kRange,     // objects within `radius` of a
    kKnn,       // `k` nearest objects to a
  };
  Kind kind = Kind::kDistance;
  /// Query position (pt2pt source; range/kNN center).
  Point a{0.0, 0.0};
  /// pt2pt destination (kDistance only).
  Point b{0.0, 0.0};
  double radius = 0.0;
  size_t k = 0;

  static QueryRequest Distance(Point source, Point target) {
    return {.kind = Kind::kDistance, .a = source, .b = target};
  }
  static QueryRequest Range(Point center, double radius) {
    return {.kind = Kind::kRange, .a = center, .radius = radius};
  }
  static QueryRequest Knn(Point center, size_t k) {
    return {.kind = Kind::kKnn, .a = center, .k = k};
  }
};

/// Result slot of one request; only the member matching the request kind
/// is populated.
struct QueryResult {
  double distance = kInfDistance;     // kDistance
  std::vector<ObjectId> ids;          // kRange (ascending, deduplicated)
  std::vector<Neighbor> neighbors;    // kKnn (nearest first)
};

/// Per-run knobs.
struct BatchOptions {
  /// Worker threads (0 = hardware concurrency). Only used by the
  /// QueryEngine::RunBatch convenience wrapper — a BatchExecutor's pool
  /// size is fixed at construction.
  unsigned threads = 0;
  /// Sort requests by (host partition, position) before execution. Off
  /// preserves submission order within each worker's slice; results are
  /// identical either way.
  bool group_by_partition = true;
};

/// Reusable batched runner over one immutable index. Construct once next
/// to the serving loop and feed it batches; workers and scratches persist
/// across Run() calls.
class BatchExecutor {
 public:
  /// `index` must outlive the executor. `threads` = 0 uses hardware
  /// concurrency. Run()'s calling thread is worker 0, so the pool holds
  /// `threads` - 1 threads.
  BatchExecutor(const IndexFramework& index, unsigned threads);

  /// Executes the batch and returns one result per request, in request
  /// order.
  std::vector<QueryResult> Run(std::span<const QueryRequest> requests,
                               const BatchOptions& options = {});

  /// Workers per batch, the calling thread included.
  unsigned thread_count() const {
    return static_cast<unsigned>(scratches_.size());
  }

 private:
  void Execute(const QueryRequest& request, PartitionId host,
               QueryScratch* scratch, QueryResult* result) const;

  /// Execute plus per-query observability (metrics builds only): wraps
  /// the query in a QueryLogScope carrying the batch id and worker index
  /// (suppressing the per-kind scopes inside), and — when the trace
  /// collector is armed — runs it under a QueryTrace offered to the
  /// collector afterwards, so each worker renders as its own track.
  void ExecuteObserved(const QueryRequest& request, PartitionId host,
                       QueryScratch* scratch, QueryResult* result,
                       uint64_t batch_id, unsigned worker,
                       bool collect_trace) const;

  const IndexFramework* index_;
  std::vector<QueryScratch> scratches_;  // one per worker
  std::optional<ThreadPool> pool_;       // workers 1..; none for one worker
};

/// One-shot convenience: builds a transient executor with
/// `options.threads` workers and runs the batch through it.
std::vector<QueryResult> RunBatch(const IndexFramework& index,
                                  std::span<const QueryRequest> requests,
                                  const BatchOptions& options = {});

/// The write-side counterpart of Run(): applies a move batch through the
/// observed update-ingest path. The moves go to ObjectStore::ApplyMoves
/// (submission order, stop at first error); when the query log is armed,
/// the batch gets its own batch id from the same sequence as query
/// batches and one kMove record per attempted op (kFlagMoveBatch), so a
/// capture interleaves move batches with query batches in arrival order
/// and replay can reproduce the exact write schedule. Like every store
/// write, calls must be externally serialized and must not overlap any
/// reader (no concurrent Run()).
Status ApplyMoveBatch(IndexFramework& index, std::span<const MoveOp> moves);

}  // namespace indoor

#endif  // INDOOR_CORE_QUERY_BATCH_EXECUTOR_H_
