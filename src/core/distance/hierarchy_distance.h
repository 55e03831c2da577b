// Hierarchy-backed position-to-position distance: the Md2d-free twin of
// matrix_distance.h. Same-cell door pairs are served straight from the
// hierarchy's per-cell blocks (bit-equal to the flat Md2d entries by the
// settle-prefix contract, hierarchy_index.h); cross-cell pairs run a
// BOUNDED door Dijkstra whose stop and push-prune predicates are loss-free
// — composed border sums act only as search caps, never as answers — so
// the returned distance is bit-identical to Pt2PtDistanceMatrix on the
// flat index.

#ifndef INDOOR_CORE_DISTANCE_HIERARCHY_DISTANCE_H_
#define INDOOR_CORE_DISTANCE_HIERARCHY_DISTANCE_H_

#include "core/index/hierarchy_index.h"
#include "core/model/locator.h"

namespace indoor {

struct QueryScratch;
class QueryCache;

/// Exact minimum walking distance over the hierarchy index; bit-identical
/// to Pt2PtDistanceMatrix against the flat Md2d of the same plan. `hier`
/// and `graph` must both come from `locator.plan()`. A null `scratch`
/// falls back to the calling thread's TlsQueryScratch(); a non-null
/// `cache` serves host probes and entry/exit legs exactly as the flat
/// path does.
double Pt2PtDistanceHierarchy(const PartitionLocator& locator,
                              const DistanceGraph& graph,
                              const HierarchyIndex& hier, const Point& ps,
                              const Point& pt, QueryScratch* scratch = nullptr,
                              const QueryCache* cache = nullptr);

/// Variant with both host partitions already known (e.g. stored objects).
double Pt2PtDistanceHierarchy(const FloorPlan& plan, const DistanceGraph& graph,
                              const HierarchyIndex& hier, PartitionId vs,
                              const Point& ps, PartitionId vt, const Point& pt,
                              QueryScratch* scratch = nullptr,
                              const QueryCache* cache = nullptr);

/// Exact door-to-door distance d(s -> t), bit-identical to the flat
/// Md2d[s][t]: a block lookup when s and t share a cell, else a bounded
/// Dijkstra capped at kUpperBoundSlack times the composed border route.
double HierarchyDoorDistance(const DistanceGraph& graph,
                             const HierarchyIndex& hier, DoorId s, DoorId t,
                             QueryScratch* scratch = nullptr);

}  // namespace indoor

#endif  // INDOOR_CORE_DISTANCE_HIERARCHY_DISTANCE_H_
