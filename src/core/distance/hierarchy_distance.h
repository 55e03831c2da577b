// Hierarchy-backed position-to-position distance: the Md2d-free twin of
// matrix_distance.h. Same-cell door pairs are served straight from the
// hierarchy's per-cell blocks (bit-equal to the flat Md2d entries by the
// settle-prefix contract, hierarchy_index.h); cross-cell pairs run
// BOUNDED door Dijkstras, goal-directed by a distance-to-destination
// potential composed from the blocks and the border clique. Composed sums
// are caps and a pruning potential, never answers: every value that can
// reach the result is settled by the Dijkstra itself, so the returned
// distance is bit-identical to Pt2PtDistanceMatrix on the flat index.

#ifndef INDOOR_CORE_DISTANCE_HIERARCHY_DISTANCE_H_
#define INDOOR_CORE_DISTANCE_HIERARCHY_DISTANCE_H_

#include <span>

#include "core/index/hierarchy_index.h"
#include "core/model/locator.h"

namespace indoor {

struct QueryScratch;
struct PotentialScratch;
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
/// Md2d[s][t]: a block lookup when s and t share a cell, else the
/// goal-directed bounded search of Pt2PtDistanceHierarchy with one source
/// and one destination, both at leg 0.
double HierarchyDoorDistance(const DistanceGraph& graph,
                             const HierarchyIndex& hier, DoorId s, DoorId t,
                             QueryScratch* scratch = nullptr);

/// The distance-to-destination potential of one query: for destination
/// doors d_j, all members of cell `ct`, with exit legs leg_j,
///
///   H(v) = min_j (d(v -> d_j) + leg_j),
///
/// composed from stored full-graph distances only. With hT(m) =
/// min_j(block_ct(m, d_j) + leg_j) for members m of ct, and g(b) = hT(b)
/// for a border b in ct, else min over ct's borders b2 of
/// (clique(b, b2) + hT(b2)), H(v) is the minimum over v's cells c of
/// hT(v) when c == ct, else of min over c's borders b of
/// (block_c(v, b) + g(b)). In real arithmetic this is exact: a path that
/// leaves a cell's member set first reaches one of its border doors
/// (hierarchy_index.h), and blocks and clique hold full-graph distances.
/// In doubles it is a sum of at most four non-negative stored values with
/// no subtraction, so its rounding is relative to the path length. +inf
/// exactly when no destination is reachable from v. Destinations with an
/// infinite leg are skipped. g is computed for a cell's borders the first
/// time H needs that cell and kept in `scratch` for the potential's
/// lifetime; construction costs O(|borders of ct| x |destinations|).
class HierarchyPotential {
 public:
  HierarchyPotential(const HierarchyIndex& hier, uint32_t ct,
                     std::span<const DoorId> dest_doors,
                     std::span<const double> dest_leg,
                     PotentialScratch* scratch);
  HierarchyPotential(const HierarchyPotential&) = delete;
  HierarchyPotential& operator=(const HierarchyPotential&) = delete;

  /// H(v).
  double At(DoorId v);

 private:
  /// min_k(row[cols[k]] + add[k]), +inf when empty. Four running minima
  /// overlap their compare chains; a min of non-negative doubles is exact,
  /// so the grouping leaves the result unchanged.
  static double MinPlus(const double* row, std::span<const uint32_t> cols,
                        const double* add);
  /// hT of member `local` of ct.
  double TargetH(uint32_t local) const;
  /// g of each border of cell `c`, in CellBorderLocals(c) order, computed
  /// on the first call for `c`.
  const double* CellG(uint32_t c);

  const HierarchyIndex& hier_;
  const uint32_t ct_;
  PotentialScratch& s_;
};

}  // namespace indoor

#endif  // INDOOR_CORE_DISTANCE_HIERARCHY_DISTANCE_H_
