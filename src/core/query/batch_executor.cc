#include "core/query/batch_executor.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "core/distance/hierarchy_distance.h"
#include "core/distance/matrix_distance.h"
#include "core/query/knn_query.h"
#include "core/query/query_cache.h"
#include "core/query/range_query.h"
#include "core/query/result_digest.h"
#include "util/metrics.h"
#include "util/query_log.h"
#include "util/trace_export.h"

namespace indoor {
namespace {

/// Sort/grouping record: one per request, ordered by (host, position,
/// original index) — a strict weak order with a deterministic total
/// tie-break, so the grouping is reproducible run to run.
struct BatchItem {
  PartitionId host;
  double x, y;
  uint32_t index;

  bool operator<(const BatchItem& other) const {
    if (host != other.host) return host < other.host;
    if (x != other.x) return x < other.x;
    if (y != other.y) return y < other.y;
    return index < other.index;
  }
};

#ifdef INDOOR_METRICS_ENABLED
/// Monotonic nonzero batch ids: every observed Run() gets one, so a
/// capture's records group back into their original batches at replay.
uint64_t NextBatchId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}
#endif

}  // namespace

BatchExecutor::BatchExecutor(const IndexFramework& index, unsigned threads)
    : index_(&index), scratches_(ResolveThreadCount(threads)) {
  // The calling thread is worker 0; ThreadPool(0) would mean hardware
  // concurrency, so a one-worker executor holds no pool.
  if (scratches_.size() > 1) pool_.emplace(thread_count() - 1);
}

void BatchExecutor::Execute(const QueryRequest& request, PartitionId host,
                            QueryScratch* scratch,
                            QueryResult* result) const {
  switch (request.kind) {
    case QueryRequest::Kind::kDistance: {
      if (host == kInvalidId) return;  // source not indoors
      const auto target = CachedHostPartition(
          index_->query_cache(), index_->locator(), request.b);
      if (!target.ok()) return;
      if (!index_->has_flat_matrix()) {
        result->distance = Pt2PtDistanceHierarchy(
            index_->plan(), index_->graph(), index_->hierarchy_index(), host,
            request.a, target.value(), request.b, scratch,
            index_->query_cache());
      } else {
        result->distance = Pt2PtDistanceMatrix(
            index_->plan(), index_->d2d_matrix(), host, request.a,
            target.value(), request.b, scratch, index_->query_cache());
      }
      break;
    }
    case QueryRequest::Kind::kRange:
      result->ids = RangeQuery(*index_, host, request.a, request.radius, {},
                               scratch);
      break;
    case QueryRequest::Kind::kKnn:
      result->neighbors = KnnQuery(*index_, host, request.a, request.k, {},
                                   scratch);
      break;
  }
}

#ifdef INDOOR_METRICS_ENABLED
void BatchExecutor::ExecuteObserved(const QueryRequest& request,
                                    PartitionId host, QueryScratch* scratch,
                                    QueryResult* result, uint64_t batch_id,
                                    unsigned worker,
                                    bool collect_trace) const {
  // The batch-level scope owns the record; the per-kind scopes inside
  // Execute find an active scope on this thread and stay dormant.
  qlog::QueryLogScope scope(
      static_cast<qlog::RecordKind>(static_cast<uint8_t>(request.kind)),
      request.a.x, request.a.y, request.b.x, request.b.y, request.radius,
      qlog::LoggedK(request.k), /*explicit_scratch=*/true);
  scope.SetBatch(batch_id, static_cast<uint16_t>(worker));
  std::optional<metrics::QueryTrace> trace;
  if (collect_trace) trace.emplace();
  Execute(request, host, scratch, result);
  if (scope.active()) {
    scope.SetHost(host);
    scope.SetResult(qdigest::DigestCount(request, *result),
                    qdigest::DigestValue(request, *result));
  }
  const uint64_t seq = scope.seq();
  const uint64_t latency_ns = scope.Finish();
  if (collect_trace) {
    const uint64_t slow_ns = qlog::QueryLog::Global().slow_threshold_ns();
    trace::TraceEventCollector::Global().Offer(
        *trace, worker, "worker " + std::to_string(worker), seq,
        slow_ns > 0 && latency_ns >= slow_ns);
  }
}
#endif  // INDOOR_METRICS_ENABLED

std::vector<QueryResult> BatchExecutor::Run(
    std::span<const QueryRequest> requests, const BatchOptions& options) {
  INDOOR_LATENCY_SPAN("batch", "batch.latency_ns");
  std::vector<QueryResult> results(requests.size());
  if (requests.empty()) return results;

  // Host resolution up front: one (cached) locator probe per request,
  // reused both for grouping and as the request's host in Execute.
  std::vector<BatchItem> order;
  order.reserve(requests.size());
  for (uint32_t i = 0; i < requests.size(); ++i) {
    const auto host = CachedHostPartition(index_->query_cache(),
                                          index_->locator(), requests[i].a);
    // Unlocated requests all answer empty; their positions (possibly NaN)
    // stay out of the sort order.
    order.push_back(host.ok() ? BatchItem{host.value(), requests[i].a.x,
                                          requests[i].a.y, i}
                              : BatchItem{kInvalidId, 0.0, 0.0, i});
  }
  if (options.group_by_partition) {
    std::sort(order.begin(), order.end());
  }

  // Contiguous same-host runs become the work units; workers claim
  // groups from an atomic cursor.
  std::vector<std::pair<uint32_t, uint32_t>> groups;
  for (uint32_t begin = 0; begin < order.size();) {
    uint32_t end = begin + 1;
    while (end < order.size() && order[end].host == order[begin].host) ++end;
    groups.emplace_back(begin, end);
    INDOOR_HISTOGRAM_RECORD("batch.group_size", end - begin);
    begin = end;
  }

  std::atomic<uint32_t> cursor{0};
#ifdef INDOOR_METRICS_ENABLED
  // Observability is decided once per batch: when neither the query log
  // nor the trace collector is armed, the worker loop below is the
  // uninstrumented one.
  const bool trace_on = trace::TraceEventCollector::Global().armed();
  const bool observed = qlog::internal::Armed() || trace_on;
  const uint64_t batch_id = observed ? NextBatchId() : 0;
#endif
  const auto work = [&](unsigned t) {
    QueryScratch& scratch = scratches_[t];
    for (uint32_t g = cursor.fetch_add(1, std::memory_order_relaxed);
         g < groups.size();
         g = cursor.fetch_add(1, std::memory_order_relaxed)) {
      for (uint32_t i = groups[g].first; i < groups[g].second; ++i) {
        const BatchItem& item = order[i];
#ifdef INDOOR_METRICS_ENABLED
        if (observed) {
          ExecuteObserved(requests[item.index], item.host, &scratch,
                          &results[item.index], batch_id, t, trace_on);
          continue;
        }
#endif
        Execute(requests[item.index], item.host, &scratch,
                &results[item.index]);
      }
    }
  };
  // Workers 1.. run on the pool; the calling thread is worker 0.
  for (unsigned t = 1; t < thread_count(); ++t) {
    pool_->Submit([&work, t] { work(t); });
  }
  work(0);
  if (pool_) pool_->Wait();

  INDOOR_COUNTER_INC("batch.runs");
  INDOOR_COUNTER_ADD("batch.requests", requests.size());
  INDOOR_HISTOGRAM_RECORD("batch.groups", groups.size());
  return results;
}

std::vector<QueryResult> RunBatch(const IndexFramework& index,
                                  std::span<const QueryRequest> requests,
                                  const BatchOptions& options) {
  BatchExecutor executor(index, options.threads);
  return executor.Run(requests, options);
}

Status ApplyMoveBatch(IndexFramework& index, std::span<const MoveOp> moves) {
  if (moves.empty()) return Status::OK();
  size_t applied = 0;
#ifdef INDOOR_METRICS_ENABLED
  const bool observed = qlog::internal::Armed();
  const auto t0 = std::chrono::steady_clock::now();
  const Status status = index.objects().ApplyMoves(moves, &applied);
  // Re-embed the approximate-kNN tier against the moved population (no-op
  // when the tier is off); still under the batch's writer barrier, so
  // queries never observe a half-refreshed store.
  index.RefreshApproxKnn();
  if (observed) {
    // One record per attempted op: the applied prefix plus, on failure,
    // the op that was rejected (result_count 0) — ops never attempted are
    // not recorded, matching the state the batch actually produced.
    const size_t attempted =
        status.ok() ? applied : std::min(applied + 1, moves.size());
    const uint64_t batch_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    const uint64_t per_op_ns =
        attempted > 0 ? batch_ns / attempted : batch_ns;
    qlog::QueryLog& log = qlog::QueryLog::Global();
    const uint64_t batch_id = NextBatchId();
    for (size_t i = 0; i < attempted; ++i) {
      const MoveOp& op = moves[i];
      const bool ok = i < applied;
      qlog::QueryLogRecord record;
      record.seq = log.NextSeq();
      record.batch_id = batch_id;
      record.start_us = log.SessionMicros();
      record.latency_ns = per_op_ns;
      record.ax = op.position.x;
      record.ay = op.position.y;
      record.k = op.id;
      record.host = op.partition;
      record.result_count = ok ? 1u : 0u;
      record.result_value =
          ok ? qdigest::MoveDigest(op.id, op.partition, op.position.x,
                                   op.position.y)
             : 0.0;
      record.kind = static_cast<uint8_t>(qlog::RecordKind::kMove);
      record.flags = qlog::kFlagMoveBatch;
      log.Submit(record);
    }
  }
  return status;
#else
  const Status status = index.objects().ApplyMoves(moves, &applied);
  index.RefreshApproxKnn();
  return status;
#endif
}

}  // namespace indoor
