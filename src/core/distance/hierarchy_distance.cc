#include "core/distance/hierarchy_distance.h"

#include <algorithm>

#include "core/distance/d2d_runner.h"
#include "core/distance/query_scratch.h"
#include "core/query/query_cache.h"
#include "util/metrics.h"
#include "util/query_log.h"

namespace indoor {
namespace {

/// Sentinel marking a (src, dest) pair whose exact d2d is still pending a
/// graph run; walking distances are non-negative, so -1 cannot collide.
constexpr double kPending = -1.0;

}  // namespace

double Pt2PtDistanceHierarchy(const FloorPlan& plan, const DistanceGraph& graph,
                              const HierarchyIndex& hier, PartitionId vs,
                              const Point& ps, PartitionId vt, const Point& pt,
                              QueryScratch* scratch, const QueryCache* cache) {
  INDOOR_LATENCY_SPAN("pt2pt_hier", "query.pt2pt_hier.latency_ns");
  qlog::QueryLogScope qscope(qlog::RecordKind::kDistance, ps.x, ps.y, pt.x,
                             pt.y, 0.0, 0, scratch != nullptr);
  qscope.SetHost(vs);
  INDOOR_CHECK(hier.door_count() == plan.door_count())
      << "hierarchy was built for a different plan";
  scratch = &ResolveQueryScratch(scratch);
  const ScratchDecayGuard decay_guard(scratch);
  const Partition& source_part = plan.partition(vs);
  const Partition& target_part = plan.partition(vt);
  double best = kInfDistance;
  if (vs == vt) {
    source_part.IntraDistancesToMany(ps, {&pt, 1}, &scratch->geo, &best);
  }
  // Entry/exit legs: the exact code of Pt2PtDistanceMatrix, so every leg
  // value is bit-identical to the flat path's (with or without a cache).
  const auto& dest_doors = plan.EnterDoors(vt);
  auto& dest_leg = scratch->dst_leg;
  dest_leg.resize(dest_doors.size());
  if (cache != nullptr) {
    cache->FieldLegs(FieldKind::kEnterFrom, vt, pt, dest_doors,
                     &scratch->geo, dest_leg.data());
  } else {
    auto& mids = scratch->geo.points;
    mids.clear();
    for (DoorId dt : dest_doors) mids.push_back(plan.door(dt).Midpoint());
    target_part.IntraDistancesFromMany(mids, pt, &scratch->geo,
                                       dest_leg.data());
  }
  const auto& src_doors = plan.LeaveDoors(vs);
  auto& src_leg = scratch->src_leg;
  src_leg.resize(src_doors.size());
  if (cache != nullptr) {
    cache->FieldLegs(FieldKind::kLeaveFrom, vs, ps, src_doors, &scratch->geo,
                     src_leg.data());
  } else {
    auto& mids = scratch->geo.points;
    mids.clear();
    for (DoorId ds : src_doors) mids.push_back(plan.door(ds).Midpoint());
    source_part.IntraDistancesToMany(ps, mids, &scratch->geo,
                                     src_leg.data());
  }

  // Pass 1: shared-cell pairs straight from the blocks (each d bit-equal
  // to Md2d, each total the same (leg1 + d) + leg2 left-fold as the flat
  // loop, and the final min over the pair multiset is order-independent).
  // Cross-cell pairs stay pending; their composed border route feeds the
  // loss-free cap of pass 2.
  const size_t ns = src_doors.size();
  const size_t nd = dest_doors.size();
  auto& d2d = scratch->d2d_cache;
  d2d.assign(ns * nd, kPending);
  double ub_min = kInfDistance;
  size_t total_pending = 0;
  INDOOR_METRICS_ONLY(uint64_t block_pairs = 0;)
  for (size_t i = 0; i < ns; ++i) {
    const double leg1 = src_leg[i];
    if (leg1 == kInfDistance) continue;
    for (size_t j = 0; j < nd; ++j) {
      if (dest_leg[j] == kInfDistance) continue;
      double dex;
      if (hier.TryExact(src_doors[i], dest_doors[j], &dex)) {
        d2d[i * nd + j] = dex;
        INDOOR_METRICS_ONLY(++block_pairs;)
        if (dex == kInfDistance) continue;
        best = std::min(best, leg1 + dex + dest_leg[j]);
        continue;
      }
      ++total_pending;
      const double ub = hier.UpperBound(src_doors[i], dest_doors[j]);
      if (ub < kInfDistance) {
        ub_min = std::min(ub_min, leg1 + ub + dest_leg[j]);
      }
    }
  }
  INDOOR_METRICS_ONLY(
      INDOOR_COUNTER_ADD("index.hier.pt2pt.block_pairs", block_pairs);)

  // Pass 2: one bounded Dijkstra per source door with pending pairs. The
  // cap C exceeds the final best by construction — every pair's flat total
  // is at most a few ulps above its composed-route value, and the 1e-9
  // slack dominates that rounding — so stopping a run once fl(leg1 + d)
  // rises past min(best, C) (and push-pruning with the same predicate,
  // which is monotone non-increasing) discards only pairs whose totals
  // cannot lower the final min. Settled distances are bit-equal to the
  // flat row entries by the settle-prefix property.
  if (total_pending > 0) {
    const double cap =
        HierarchyIndex::kUpperBoundSlack * std::min(best, ub_min);
    INDOOR_METRICS_ONLY(uint64_t runs = 0;)
    for (size_t i = 0; i < ns; ++i) {
      const double leg1 = src_leg[i];
      if (leg1 == kInfDistance) continue;
      size_t remaining = 0;
      for (size_t j = 0; j < nd; ++j) {
        if (d2d[i * nd + j] == kPending && dest_leg[j] != kInfDistance) {
          ++remaining;
        }
      }
      // Totals through this door are >= leg1, so a row at or above the
      // running best (the flat loop's own skip) or above the cap cannot
      // lower the final min.
      if (remaining == 0 || leg1 >= best || leg1 > cap) continue;
      INDOOR_METRICS_ONLY(++runs;)
      RunDoorDijkstra(
          graph, src_doors[i], &scratch->door, nullptr,
          [&](DoorId di, double d) {
            const double through = leg1 + d;
            if (through > cap || through >= best) return false;
            for (size_t j = 0; j < nd; ++j) {
              if (dest_doors[j] != di || d2d[i * nd + j] != kPending ||
                  dest_leg[j] == kInfDistance) {
                continue;
              }
              d2d[i * nd + j] = d;
              best = std::min(best, through + dest_leg[j]);
              --remaining;
            }
            return remaining != 0;
          },
          [&](DoorId, double cand) {
            const double through = leg1 + cand;
            return through <= cap && through < best;
          });
    }
    INDOOR_METRICS_ONLY(INDOOR_COUNTER_ADD("index.hier.pt2pt.runs", runs);)
  }
  qscope.SetResult(best < kInfDistance ? 1u : 0u, best);
  return best;
}

double Pt2PtDistanceHierarchy(const PartitionLocator& locator,
                              const DistanceGraph& graph,
                              const HierarchyIndex& hier, const Point& ps,
                              const Point& pt, QueryScratch* scratch,
                              const QueryCache* cache) {
  const auto vs = CachedHostPartition(cache, locator, ps);
  const auto vt = CachedHostPartition(cache, locator, pt);
  if (!vs.ok() || !vt.ok()) return kInfDistance;
  return Pt2PtDistanceHierarchy(locator.plan(), graph, hier, vs.value(), ps,
                                vt.value(), pt, scratch, cache);
}

double HierarchyDoorDistance(const DistanceGraph& graph,
                             const HierarchyIndex& hier, DoorId s, DoorId t,
                             QueryScratch* scratch) {
  INDOOR_CHECK(s < hier.door_count() && t < hier.door_count());
  double out;
  if (hier.TryExact(s, t, &out)) return out;
  scratch = &ResolveQueryScratch(scratch);
  // The cap exceeds the exact float distance (the composed route's
  // rounding is dominated by the slack), so every node on t's shortest
  // -path-tree branch — whose tentative values never exceed the final
  // d(s, t) — survives both the push prune and the settle stop, and t
  // settles with its exact (flat-bit-equal) distance.
  const double cap = HierarchyIndex::kUpperBoundSlack * hier.UpperBound(s, t);
  INDOOR_COUNTER_INC("index.hier.d2d.runs");
  double result = kInfDistance;
  RunDoorDijkstra(
      graph, s, &scratch->door, nullptr,
      [&](DoorId di, double d) {
        if (d > cap) return false;
        if (di != t) return true;
        result = d;
        return false;
      },
      [&](DoorId, double cand) { return cand <= cap; });
  return result;
}

}  // namespace indoor
