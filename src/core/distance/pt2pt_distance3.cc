// Algorithm 4 (paper's pt2ptDistance3): Algorithm 3 plus cross-iteration
// reuse of door-to-door distances.
//
//  * Backward reuse (paper lines 31-37): when destination door di settles,
//    every not-yet-processed source door dj on its shortest-path tree branch
//    yields the EXACT distance dists[dj][di] = dist[di] - dist[dj]
//    (sub-paths of shortest paths are shortest), so dj's own iteration can
//    skip di entirely.
//  * Forward reuse (paper lines 40-45): when an already-processed source
//    door di settles, cached dists[di][dj] values concatenate into valid
//    ds->di->dj path lengths. Under ReusePolicy::kPaperFaithful the search
//    then breaks as in the pseudocode (which silently assumes the shortest
//    ds->dj path runs through di and can overestimate on star topologies);
//    under ReusePolicy::kSafe (default) the concatenations only tighten the
//    bound dist_m and the expansion continues, preserving exactness.

#include <algorithm>

#include "core/distance/d2d_runner.h"
#include "core/distance/pt2pt_distance.h"
#include "core/distance/query_scratch.h"
#include "core/query/query_cache.h"
#include "util/metrics.h"

namespace indoor {

using internal::DirectCandidate;
using internal::Endpoints;
using internal::PrunedSourceDoors;
using internal::ResolveEndpoints;

double Pt2PtDistanceReuse(const DistanceContext& ctx, const Point& ps,
                          const Point& pt, ReusePolicy policy,
                          QueryScratch* scratch) {
  INDOOR_LATENCY_SPAN("pt2pt_reuse", "query.pt2pt_reuse.latency_ns");
  const FloorPlan& plan = ctx.graph->plan();
  const Endpoints endpoints = ResolveEndpoints(ctx, ps, pt);
  if (!endpoints.ok()) return kInfDistance;
  scratch = &ResolveQueryScratch(scratch);
  const ScratchDecayGuard decay_guard(scratch);

  auto& doors_s = scratch->source_doors;
  PrunedSourceDoors(plan, endpoints.vs, endpoints.vt, &doors_s);
  const std::vector<DoorId>& doors_t = plan.EnterDoors(endpoints.vt);

  // Leg caches and local (row/col) index maps for the dists[.][.] matrix,
  // each endpoint resolved with one batched geodesic solve.
  const size_t rows = doors_s.size();
  const size_t cols = doors_t.size();
  auto& src_leg = scratch->src_leg;
  auto& dst_leg = scratch->dst_leg;
  src_leg.resize(rows);
  dst_leg.resize(cols);
  {
    INDOOR_TRACE_SPAN("entry_exit_legs");
    // doors_s is an ascending subset of LeaveDoors(vs), served exactly
    // from the cached canonical field (query_cache.h).
    CachedFieldLegs(ctx.cache, *ctx.locator, FieldKind::kLeaveFrom,
                    endpoints.vs, ps, doors_s, &scratch->geo,
                    src_leg.data());
    CachedFieldLegs(ctx.cache, *ctx.locator, FieldKind::kEnterTo,
                    endpoints.vt, pt, doors_t, &scratch->geo,
                    dst_leg.data());
  }
  auto row_of = [&](DoorId d) -> int {
    const auto it = std::lower_bound(doors_s.begin(), doors_s.end(), d);
    return (it != doors_s.end() && *it == d)
               ? static_cast<int>(it - doors_s.begin())
               : -1;
  };
  auto col_of = [&](DoorId d) -> int {
    const auto it = std::lower_bound(doors_t.begin(), doors_t.end(), d);
    return (it != doors_t.end() && *it == d)
               ? static_cast<int>(it - doors_t.begin())
               : -1;
  };
  // dists[row][col], initialized to infinity (paper lines 9-10).
  auto& dists = scratch->d2d_cache;
  dists.assign(rows * cols, kInfDistance);

  double dist_m = DirectCandidate(ctx, endpoints, ps, pt, &scratch->geo);

  INDOOR_TRACE_SPAN("source_door_expansions");
  // The runner's arrays; dist[] is read only at settled doors, where it is
  // exact.
  const std::vector<double>& dist = scratch->door.dist;
  auto& prev = scratch->prev;

  for (size_t row = 0; row < rows; ++row) {
    const DoorId ds = doors_s[row];
    if (src_leg[row] == kInfDistance) continue;

    // Lines 13-16: candidate destination doors with unknown distances.
    auto& doors = scratch->cand_doors;
    doors.clear();
    for (size_t j = 0; j < cols; ++j) {
      if (dists[row * cols + j] == kInfDistance &&
          dst_leg[j] != kInfDistance &&
          src_leg[row] + dst_leg[j] < dist_m) {
        doors.push_back(doors_t[j]);
      }
    }
    if (doors.empty()) continue;

    const auto on_settle = [&](DoorId di, double d) {
      const auto door_it = std::find(doors.begin(), doors.end(), di);
      if (door_it != doors.end()) {
        // Lines 27-38: a destination door settles.
        doors.erase(door_it);
        const int col = col_of(di);
        dists[row * cols + col] = d;  // settled value is exact (our addition)
        if (src_leg[row] + d + dst_leg[col] < dist_m) {
          dist_m = src_leg[row] + d + dst_leg[col];
        }
        // Backward reuse along the shortest-path tree branch.
        DoorId dj = prev[di].door;
        while (dj != kInvalidId && dj != ds) {
          const int back_row = row_of(dj);
          if (back_row >= 0 && dj > ds) {
            const double exact = d - dist[dj];
            dists[static_cast<size_t>(back_row) * cols + col] = exact;
            if (src_leg[back_row] != kInfDistance &&
                src_leg[back_row] + exact + dst_leg[col] < dist_m) {
              dist_m = src_leg[back_row] + exact + dst_leg[col];
            }
          }
          dj = prev[dj].door;
        }
        return !doors.empty();
      }
      const int fwd_row = row_of(di);
      if (fwd_row < 0 || di >= ds) return true;
      // Lines 40-45: forward reuse through an earlier source door.
      for (DoorId dj : doors) {
        const int col = col_of(dj);
        const double via =
            d + dists[static_cast<size_t>(fwd_row) * cols +
                      static_cast<size_t>(col)];
        if (via == kInfDistance) continue;
        if (policy == ReusePolicy::kPaperFaithful) {
          dists[row * cols + col] = via;
        }
        if (src_leg[row] + via + dst_leg[col] < dist_m) {
          dist_m = src_leg[row] + via + dst_leg[col];
        }
      }
      // Verbatim pseudocode stops this source's expansion here.
      return policy != ReusePolicy::kPaperFaithful;
    };
    RunDoorDijkstra(*ctx.graph, ds, &scratch->door, &prev, on_settle);
  }
  return dist_m;
}

}  // namespace indoor
