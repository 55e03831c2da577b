// Algorithm 3 (paper's pt2ptDistance2): dead-end source-door pruning plus
// one bounded Dijkstra per source door over a filtered destination set.

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

double Pt2PtDistanceRefined(const DistanceContext& ctx, const Point& ps,
                            const Point& pt, QueryScratch* scratch) {
  INDOOR_LATENCY_SPAN("pt2pt_refined", "query.pt2pt_refined.latency_ns");
  const FloorPlan& plan = ctx.graph->plan();
  const Endpoints endpoints = ResolveEndpoints(ctx, ps, pt);
  if (!endpoints.ok()) return kInfDistance;
  scratch = &ResolveQueryScratch(scratch);
  const ScratchDecayGuard decay_guard(scratch);

  // Lines 3-8: source doors with dead ends removed; destination doors.
  auto& doors_s = scratch->source_doors;
  PrunedSourceDoors(plan, endpoints.vs, endpoints.vt, &doors_s);
  const std::vector<DoorId>& doors_t = plan.EnterDoors(endpoints.vt);

  double dist_m = DirectCandidate(ctx, endpoints, ps, pt, &scratch->geo);

  // Entry and exit legs, one batched geodesic solve per endpoint (the
  // pseudocode recomputes ||dt, pt|| per source door; values identical).
  auto& src_leg = scratch->src_leg;
  auto& dst_leg = scratch->dst_leg;
  src_leg.resize(doors_s.size());
  dst_leg.resize(doors_t.size());
  {
    INDOOR_TRACE_SPAN("entry_exit_legs");
    // doors_s is an ascending subset of LeaveDoors(vs), so the cached
    // canonical field serves it exactly (query_cache.h).
    CachedFieldLegs(ctx.cache, *ctx.locator, FieldKind::kLeaveFrom,
                    endpoints.vs, ps, doors_s, &scratch->geo,
                    src_leg.data());
    CachedFieldLegs(ctx.cache, *ctx.locator, FieldKind::kEnterTo,
                    endpoints.vt, pt, doors_t, &scratch->geo,
                    dst_leg.data());
  }

  INDOOR_TRACE_SPAN("source_door_expansions");
  for (size_t s = 0; s < doors_s.size(); ++s) {
    const DoorId ds = doors_s[s];
    if (src_leg[s] == kInfDistance) continue;

    // Lines 11-14: destination doors that can still beat dist_m.
    auto& doors = scratch->cand_doors;
    doors.clear();
    for (size_t j = 0; j < doors_t.size(); ++j) {
      if (dst_leg[j] != kInfDistance && src_leg[s] + dst_leg[j] < dist_m) {
        doors.push_back(doors_t[j]);
      }
    }
    if (doors.empty()) continue;

    // Lines 15-36: one Dijkstra from ds, terminating once every door in
    // `doors` has been settled.
    const auto on_settle = [&](DoorId di, double d) {
      const auto it = std::find(doors.begin(), doors.end(), di);
      if (it == doors.end()) return true;
      doors.erase(it);
      const auto t = std::lower_bound(doors_t.begin(), doors_t.end(), di);
      const double leg = dst_leg[t - doors_t.begin()];
      if (src_leg[s] + d + leg < dist_m) dist_m = src_leg[s] + d + leg;
      return !doors.empty();
    };
    RunDoorDijkstra(*ctx.graph, ds, &scratch->door, nullptr, on_settle);
  }
  return dist_m;
}

}  // namespace indoor
