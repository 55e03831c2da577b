// Nearest-neighbor query Qnn(q) (paper §V-A2, Algorithm 6), generalized to
// k >= 1 exactly as the paper's extension describes: a k-element result
// array replaces (nn, distnn), and nnSearch updates it in place.

#ifndef INDOOR_CORE_QUERY_KNN_QUERY_H_
#define INDOOR_CORE_QUERY_KNN_QUERY_H_

#include <vector>

#include "core/index/index_framework.h"

namespace indoor {

struct QueryScratch;

/// Query knobs.
struct KnnQueryOptions {
  /// Use Midx to scan doors nearest-first with early termination; when
  /// false the entire Md2d row is examined (paper Fig. 9's "without d2d
  /// index" configuration).
  bool use_index_matrix = true;
  /// Serve from the approximate tier (core/index/approx_knn.h) when the
  /// framework opted in (IndexOptions::approx_knn) and the embeddings are
  /// fresh; effect-free otherwise. The tier falls back to the exact path
  /// whenever it cannot prove a full answer (stale embeddings, fewer than
  /// k reachable candidates), counted under `knn.approx.exact_fallback`.
  bool use_approx = true;
  /// Per-query candidate over-provisioning override for the approximate
  /// tier: re-rank up to k * factor bound-sorted candidates. 0 inherits
  /// IndexOptions::approx_candidate_factor (benches sweep this without
  /// rebuilding the framework).
  unsigned approx_candidate_factor = 0;
};

/// Executes the kNN query: the k objects with smallest indoor walking
/// distance from q, nearest first. k = 0 returns an empty result; any k
/// at or above the population (SIZE_MAX included) returns every object a
/// walk from q reaches, nearest first. Empty when q is not inside any
/// partition (NaN or infinite coordinates included). The answer is the
/// same with the cache on and off. A null `scratch` falls back to the
/// calling thread's TlsQueryScratch().
std::vector<Neighbor> KnnQuery(const IndexFramework& index, const Point& q,
                               size_t k, KnnQueryOptions options = {},
                               QueryScratch* scratch = nullptr);

/// Variant with q's host partition already known (e.g. resolved by a
/// batch): `host` is what the cache's or locator's getHostPartition(q)
/// returns, kInvalidId when q is not indoors. The variant above resolves
/// it and calls this.
std::vector<Neighbor> KnnQuery(const IndexFramework& index, PartitionId host,
                               const Point& q, size_t k,
                               KnnQueryOptions options = {},
                               QueryScratch* scratch = nullptr);

}  // namespace indoor

#endif  // INDOOR_CORE_QUERY_KNN_QUERY_H_
