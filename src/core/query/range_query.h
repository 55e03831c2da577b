// Range query Qr(q, r) (paper §V-A1, Algorithm 5): all indoor objects
// within indoor walking distance r of position q.

#ifndef INDOOR_CORE_QUERY_RANGE_QUERY_H_
#define INDOOR_CORE_QUERY_RANGE_QUERY_H_

#include <vector>

#include "core/index/index_framework.h"

namespace indoor {

struct QueryScratch;

/// Query knobs.
struct RangeQueryOptions {
  /// Use Midx to scan doors nearest-first with early termination. When
  /// false, every row entry of Md2d is examined (the paper's "without d2d
  /// index" configuration in Fig. 8).
  bool use_index_matrix = true;
};

/// Executes Qr(q, r). Returns the qualifying object ids, sorted and unique
/// (one partition can be reached through several doors). Returns an empty
/// result when q is not inside any partition (NaN or infinite coordinates
/// included) or when r is negative or NaN. The answer is the same with the
/// cache on and off. A null `scratch` falls back to the calling thread's
/// TlsQueryScratch().
std::vector<ObjectId> RangeQuery(const IndexFramework& index, const Point& q,
                                 double r, RangeQueryOptions options = {},
                                 QueryScratch* scratch = nullptr);

/// Variant with q's host partition already known (e.g. resolved by a
/// batch): `host` is what the cache's or locator's getHostPartition(q)
/// returns, kInvalidId when q is not indoors. The variant above resolves
/// it and calls this.
std::vector<ObjectId> RangeQuery(const IndexFramework& index, PartitionId host,
                                 const Point& q, double r,
                                 RangeQueryOptions options = {},
                                 QueryScratch* scratch = nullptr);

}  // namespace indoor

#endif  // INDOOR_CORE_QUERY_RANGE_QUERY_H_
