// Matrix-backed position-to-position distance: the paper's observation
// (§VI-A) that "the pt2ptdistance algorithm runs faster if the door-to-door
// distances are pre-computed and stored for reference", realized against
// the Md2d of the indexing framework. No Dijkstra per query — one Md2d
// lookup per (leaveable source door, enterable destination door) pair plus
// the two intra-partition legs.

#ifndef INDOOR_CORE_DISTANCE_MATRIX_DISTANCE_H_
#define INDOOR_CORE_DISTANCE_MATRIX_DISTANCE_H_

#include "core/index/distance_matrix.h"
#include "core/model/locator.h"

namespace indoor {

struct QueryScratch;
class QueryCache;

/// Exact minimum walking distance using precomputed door-to-door entries.
/// `matrix` must have been built for `locator.plan()`. A null `scratch`
/// falls back to the calling thread's TlsQueryScratch(). A non-null
/// `cache` (core/query/query_cache.h) serves the host-partition probes
/// and the entry/exit legs from the cross-query cache; results are
/// bit-identical either way.
double Pt2PtDistanceMatrix(const PartitionLocator& locator,
                           const DistanceMatrix& matrix, const Point& ps,
                           const Point& pt, QueryScratch* scratch = nullptr,
                           const QueryCache* cache = nullptr);

/// Variant with both host partitions already known (e.g. stored objects).
double Pt2PtDistanceMatrix(const FloorPlan& plan,
                           const DistanceMatrix& matrix, PartitionId vs,
                           const Point& ps, PartitionId vt, const Point& pt,
                           QueryScratch* scratch = nullptr,
                           const QueryCache* cache = nullptr);

/// The entry and exit legs of one pt2pt query, shared by both engines
/// (this file and hierarchy_distance.h) so their legs are the same bits:
/// fills scratch->src_leg with ||ps, ds|| per plan.LeaveDoors(vs) and
/// scratch->dst_leg with ||dt, pt|| per plan.EnterDoors(vt), read through
/// `cache` when it is non-null (bit-identical either way). Returns the
/// direct same-partition distance ps -> pt when vs == vt, else
/// kInfDistance.
double Pt2PtLegs(const FloorPlan& plan, PartitionId vs, const Point& ps,
                 PartitionId vt, const Point& pt, QueryScratch* scratch,
                 const QueryCache* cache);

}  // namespace indoor

#endif  // INDOOR_CORE_DISTANCE_MATRIX_DISTANCE_H_
