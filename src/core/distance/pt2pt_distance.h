// Position-to-position minimum indoor walking distance: the paper's three
// algorithm variants plus one extension.
//
//   Pt2PtDistanceBasic    — Algorithm 2: for every (source door, destination
//                           door) pair, blindly call d2dDistance.
//   Pt2PtDistanceRefined  — Algorithm 3: dead-end source-door pruning, one
//                           shared Dijkstra per source door over a target
//                           door set filtered by the current best bound.
//   Pt2PtDistanceReuse    — Algorithm 4: Algorithm 3 plus cross-iteration
//                           reuse of door-to-door distances via the
//                           dists[.][.] cache and prev[] backtracking.
//   Pt2PtDistanceVirtual  — extension (not in the paper): a single Dijkstra
//                           seeded with dist[ds] = distV(ps, ds) for every
//                           source door; exact and asymptotically the
//                           cheapest. Used as a further comparison point.
//
// All variants additionally consider the direct intra-partition distance
// when both positions share a host partition (the paper's pseudocode
// enumerates only door pairs; without this the result would be wrong for
// same-room queries — see DESIGN.md §2.4).

#ifndef INDOOR_CORE_DISTANCE_PT2PT_DISTANCE_H_
#define INDOOR_CORE_DISTANCE_PT2PT_DISTANCE_H_

#include "core/model/distance_graph.h"
#include "core/model/locator.h"

namespace indoor {

struct QueryScratch;
class QueryCache;
class LandmarkIndex;

/// Shared inputs of the pt2pt algorithms. Both referents must outlive the
/// context.
struct DistanceContext {
  const DistanceGraph* graph;
  const PartitionLocator* locator;

  /// Optional cross-query cache (core/query/query_cache.h). When set,
  /// ResolveEndpoints consults the host-partition cache and the entry/exit
  /// leg solves read through the source-field cache; results stay
  /// bit-identical to the uncached path. IndexFramework::distance_context
  /// attaches its cache automatically; reference implementations and
  /// hand-built contexts leave it null.
  const QueryCache* cache = nullptr;

  /// Optional ALT landmark rows (core/index/landmark_index.h). When set,
  /// Basic skips door pairs whose triangle-inequality lower bound cannot
  /// beat the running minimum, and Virtual prunes frontier pushes the same
  /// way; both uses are provably loss-free, so results stay bit-identical
  /// with landmarks attached or not. Refined/Reuse ignore the field (their
  /// shared-Dijkstra bounds interact with the dists[.][.] reuse cache; see
  /// pt2pt_distance3.cc).
  const LandmarkIndex* landmarks = nullptr;

  /// Known host partitions of the query endpoints. When a caller already
  /// knows where a position lives (e.g. a stored object's partition),
  /// setting the hint skips the per-evaluation R-tree lookup in
  /// ResolveEndpoints; kInvalidId means "free point, locate it".
  PartitionId source_hint = kInvalidId;
  PartitionId target_hint = kInvalidId;

  DistanceContext(const DistanceGraph& g, const PartitionLocator& l)
      : graph(&g), locator(&l) {}

  /// Copy of this context with endpoint hints attached.
  DistanceContext WithHints(PartitionId vs, PartitionId vt) const {
    DistanceContext ctx = *this;
    ctx.source_hint = vs;
    ctx.target_hint = vt;
    return ctx;
  }
};

/// How Algorithm 4 exploits the dists[.][.] cache.
enum class ReusePolicy {
  /// Exact: cached distances only tighten the pruning bound and seed
  /// candidates; the expansion never terminates early on a cache hit whose
  /// optimality is not guaranteed (DESIGN.md §2.3).
  kSafe,
  /// Verbatim paper pseudocode (lines 40–45 break on a forward cache hit).
  /// Can overestimate on topologies where the shortest path to a
  /// destination door does not pass through an earlier source door.
  kPaperFaithful,
};

// All four variants accept an optional QueryScratch (query_scratch.h); a
// null scratch falls back to the calling thread's arena. Either way the
// steady-state evaluation performs no heap allocations, and results are
// bit-identical to the historical per-door implementations (the batched
// leg solver and the CSR expansions perform the same floating-point
// additions in the same order).

/// Algorithm 2. Returns kInfDistance when either position is not indoors or
/// no path exists.
double Pt2PtDistanceBasic(const DistanceContext& ctx, const Point& ps,
                          const Point& pt, QueryScratch* scratch = nullptr);

/// Algorithm 3.
double Pt2PtDistanceRefined(const DistanceContext& ctx, const Point& ps,
                            const Point& pt, QueryScratch* scratch = nullptr);

/// Algorithm 4.
double Pt2PtDistanceReuse(const DistanceContext& ctx, const Point& ps,
                          const Point& pt,
                          ReusePolicy policy = ReusePolicy::kSafe,
                          QueryScratch* scratch = nullptr);

/// Extension: single multi-source Dijkstra.
double Pt2PtDistanceVirtual(const DistanceContext& ctx, const Point& ps,
                            const Point& pt, QueryScratch* scratch = nullptr);

namespace internal {

/// Resolved query endpoints; hosts are kInvalidId when not indoors.
struct Endpoints {
  PartitionId vs = kInvalidId;
  PartitionId vt = kInvalidId;
  bool ok() const { return vs != kInvalidId && vt != kInvalidId; }
};

/// Resolves the endpoint host partitions, honoring the context's
/// source/target hints: the R-tree point query runs only for endpoints
/// without a hint (free points).
Endpoints ResolveEndpoints(const DistanceContext& ctx, const Point& ps,
                           const Point& pt);

/// The direct intra-partition candidate when vs == vt, else kInfDistance.
double DirectCandidate(const DistanceContext& ctx,
                       const Endpoints& endpoints, const Point& ps,
                       const Point& pt, GeodesicScratch* scratch = nullptr);

/// Algorithm 3/4 lines 3–8: source doors P2D_leave(vs) minus doors leading
/// only into a dead-end partition np (P2D_leave(np) == {ds}, np != vt).
/// Appends into `out` (cleared first) so a scratch-owned buffer is reused
/// across queries without reallocating.
void PrunedSourceDoors(const FloorPlan& plan, PartitionId vs, PartitionId vt,
                       std::vector<DoorId>* out);

/// Convenience wrapper returning a fresh vector.
std::vector<DoorId> PrunedSourceDoors(const FloorPlan& plan, PartitionId vs,
                                      PartitionId vt);

}  // namespace internal
}  // namespace indoor

#endif  // INDOOR_CORE_DISTANCE_PT2PT_DISTANCE_H_
