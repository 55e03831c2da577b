#include "core/distance/pt2pt_distance.h"

#include <algorithm>

#include "core/distance/d2d_runner.h"
#include "core/distance/query_scratch.h"
#include "core/index/landmark_index.h"
#include "core/query/query_cache.h"
#include "util/metrics.h"
#include "util/simd.h"

namespace indoor {
namespace internal {

Endpoints ResolveEndpoints(const DistanceContext& ctx, const Point& ps,
                           const Point& pt) {
  Endpoints endpoints;
  if (ctx.source_hint != kInvalidId) {
    endpoints.vs = ctx.source_hint;
  } else {
    auto vs = CachedHostPartition(ctx.cache, *ctx.locator, ps);
    if (vs.ok()) endpoints.vs = vs.value();
  }
  if (ctx.target_hint != kInvalidId) {
    endpoints.vt = ctx.target_hint;
  } else {
    auto vt = CachedHostPartition(ctx.cache, *ctx.locator, pt);
    if (vt.ok()) endpoints.vt = vt.value();
  }
  return endpoints;
}

double DirectCandidate(const DistanceContext& ctx,
                       const Endpoints& endpoints, const Point& ps,
                       const Point& pt, GeodesicScratch* scratch) {
  if (endpoints.vs != endpoints.vt) return kInfDistance;
  return ctx.graph->plan().partition(endpoints.vs).IntraDistance(ps, pt,
                                                                 scratch);
}

void PrunedSourceDoors(const FloorPlan& plan, PartitionId vs, PartitionId vt,
                       std::vector<DoorId>* out) {
  out->clear();
  for (DoorId ds : plan.LeaveDoors(vs)) {
    // np: the partition in D2P_enterable(ds) \ {vs}.
    PartitionId np = kInvalidId;
    for (PartitionId v : plan.EnterableParts(ds)) {
      if (v != vs) np = v;
    }
    if (np != kInvalidId && np != vt && plan.LeaveDoors(np).size() == 1 &&
        plan.LeaveDoors(np)[0] == ds) {
      continue;  // dead end: one could only come straight back through ds
    }
    out->push_back(ds);
  }
  // LeaveDoors is sorted, so iteration order is ascending id.
}

std::vector<DoorId> PrunedSourceDoors(const FloorPlan& plan, PartitionId vs,
                                      PartitionId vt) {
  std::vector<DoorId> doors;
  PrunedSourceDoors(plan, vs, vt, &doors);
  return doors;
}

}  // namespace internal

using internal::DirectCandidate;
using internal::Endpoints;
using internal::ResolveEndpoints;

double Pt2PtDistanceBasic(const DistanceContext& ctx, const Point& ps,
                          const Point& pt, QueryScratch* scratch) {
  INDOOR_LATENCY_SPAN("pt2pt_basic", "query.pt2pt_basic.latency_ns");
  const FloorPlan& plan = ctx.graph->plan();
  const Endpoints endpoints = ResolveEndpoints(ctx, ps, pt);
  if (!endpoints.ok()) return kInfDistance;
  scratch = &ResolveQueryScratch(scratch);
  const ScratchDecayGuard decay_guard(scratch);

  double dist = DirectCandidate(ctx, endpoints, ps, pt, &scratch->geo);

  // Entry legs ||ps, ds|| and exit legs ||dt, pt||, each resolved with one
  // batched geodesic solve instead of a Dijkstra per door. The exit legs
  // are loop-invariant in ds, so unlike Algorithm 2's pseudocode they are
  // computed once (the values are identical either way).
  const auto& src_doors = plan.LeaveDoors(endpoints.vs);
  const auto& dst_doors = plan.EnterDoors(endpoints.vt);
  auto& src_leg = scratch->src_leg;
  auto& dst_leg = scratch->dst_leg;
  src_leg.resize(src_doors.size());
  dst_leg.resize(dst_doors.size());
  {
    INDOOR_TRACE_SPAN("entry_exit_legs");
    CachedFieldLegs(ctx.cache, *ctx.locator, FieldKind::kLeaveFrom,
                    endpoints.vs, ps, src_doors, &scratch->geo,
                    src_leg.data());
    CachedFieldLegs(ctx.cache, *ctx.locator, FieldKind::kEnterTo,
                    endpoints.vt, pt, dst_doors, &scratch->geo,
                    dst_leg.data());
  }

  // Algorithm 2: every (leaveable source door, enterable destination door)
  // pair via a blind d2dDistance call. With landmarks attached, a pair
  // whose triangle-inequality lower bound already meets the running
  // minimum is skipped outright — the skipped call could only have
  // returned a candidate >= its lower bound, so the final minimum is
  // unchanged.
  {
    INDOOR_TRACE_SPAN("door_pairs");
    const LandmarkIndex* const lm = ctx.landmarks;
    uint64_t lm_prunes = 0;
    for (size_t i = 0; i < src_doors.size(); ++i) {
      if (src_leg[i] == kInfDistance) continue;
      for (size_t j = 0; j < dst_doors.size(); ++j) {
        if (dst_leg[j] == kInfDistance) continue;
        if (lm != nullptr &&
            src_leg[i] + lm->LowerBound(src_doors[i], dst_doors[j]) +
                    dst_leg[j] >=
                dist) {
          ++lm_prunes;
          continue;
        }
        const double d2d = D2dDistance(*ctx.graph, src_doors[i], dst_doors[j],
                                       &scratch->door);
        if (d2d == kInfDistance) continue;
        dist = std::min(dist, src_leg[i] + d2d + dst_leg[j]);
      }
    }
    if (lm_prunes != 0) {
      INDOOR_COUNTER_ADD("distance.dijkstra.prunes.landmark", lm_prunes);
    }
  }
  return dist;
}

double Pt2PtDistanceVirtual(const DistanceContext& ctx, const Point& ps,
                            const Point& pt, QueryScratch* scratch) {
  INDOOR_LATENCY_SPAN("pt2pt_virtual", "query.pt2pt_virtual.latency_ns");
  const FloorPlan& plan = ctx.graph->plan();
  const Endpoints endpoints = ResolveEndpoints(ctx, ps, pt);
  if (!endpoints.ok()) return kInfDistance;
  scratch = &ResolveQueryScratch(scratch);
  const ScratchDecayGuard decay_guard(scratch);

  double best = DirectCandidate(ctx, endpoints, ps, pt, &scratch->geo);

  const auto& src_doors = plan.LeaveDoors(endpoints.vs);
  auto& src_leg = scratch->src_leg;
  src_leg.resize(src_doors.size());
  CachedFieldLegs(ctx.cache, *ctx.locator, FieldKind::kLeaveFrom,
                  endpoints.vs, ps, src_doors, &scratch->geo, src_leg.data());

  // Destination doors with their exit legs.
  const auto& dest_doors = plan.EnterDoors(endpoints.vt);
  auto& exit_leg = scratch->dst_leg;
  exit_leg.resize(dest_doors.size());
  CachedFieldLegs(ctx.cache, *ctx.locator, FieldKind::kEnterTo, endpoints.vt,
                  pt, dest_doors, &scratch->geo, exit_leg.data());
  double min_exit = kInfDistance;
  for (const double leg : exit_leg) min_exit = std::min(min_exit, leg);

  INDOOR_TRACE_SPAN("virtual_dijkstra");
  // With landmarks attached, a push is dropped when even the optimistic
  // completion `cand + lb_set(door) + min_exit` cannot beat the running
  // best. The set bound aggregates the destination rows once per query:
  //   min_tf[l] = min over finite-exit-leg targets t of fwd[t][l]
  //   max_tb[l] = max over those targets of bwd[t][l]  (infinities kept:
  //               a target unable to reach landmark l invalidates the term)
  // so lb_set(v) <= min over targets t of d(v, t). Pruning never changes
  // the returned distance: the doors on one optimal path always bound
  // strictly below `best` until best reaches the optimum, and any pruned
  // completion was already >= the final answer. The runner records a
  // pruned candidate in dist[]; that changes no push, because the prune
  // test is monotone in the candidate and `best` only falls, so any later
  // candidate no better than a pruned one is pruned too (d2d_runner.h).
  const LandmarkIndex* const lm = ctx.landmarks;
  size_t lcount = 0;
  double min_tf[LandmarkIndex::kMaxCount];
  double max_tb[LandmarkIndex::kMaxCount];
  if (lm != nullptr && lm->valid()) {
    lcount = lm->count();
    for (size_t l = 0; l < lcount; ++l) {
      min_tf[l] = kInfDistance;
      max_tb[l] = -kInfDistance;
    }
    for (size_t j = 0; j < dest_doors.size(); ++j) {
      if (exit_leg[j] == kInfDistance) continue;
      const double* const tf = lm->ForwardRow(dest_doors[j]);
      const double* const tb = lm->BackwardRow(dest_doors[j]);
      for (size_t l = 0; l < lcount; ++l) {
        min_tf[l] = std::min(min_tf[l], tf[l]);
        max_tb[l] = std::max(max_tb[l], tb[l]);
      }
    }
  }

  // One Dijkstra seeded with every source door at its distV offset.
  INDOOR_METRICS_ONLY(uint64_t lm_prunes = 0;)
  RunDoorDijkstra(
      *ctx.graph, src_doors, src_leg, &scratch->door, nullptr,
      [&](DoorId di, double d) {
        if (d + min_exit >= best) return false;  // no door can improve
        const auto it =
            std::lower_bound(dest_doors.begin(), dest_doors.end(), di);
        if (it != dest_doors.end() && *it == di) {
          const double leg = exit_leg[it - dest_doors.begin()];
          if (leg != kInfDistance) best = std::min(best, d + leg);
        }
        return true;
      },
      [&](DoorId to, double cand) {
        if (lcount == 0) return true;
        const double lb = simd::AltSetBound(
            lm->ForwardRow(to), lm->BackwardRow(to), min_tf, max_tb, lcount);
        if (cand + lb + min_exit >= best) {
          INDOOR_METRICS_ONLY(++lm_prunes;)
          return false;
        }
        return true;
      });
  INDOOR_METRICS_ONLY(if (lm_prunes != 0) {
    INDOOR_COUNTER_ADD("distance.dijkstra.prunes.landmark", lm_prunes);
  })
  return best;
}

}  // namespace indoor
