#include "core/distance/matrix_distance.h"

#include <algorithm>

#include "core/distance/query_scratch.h"
#include "core/query/query_cache.h"
#include "util/metrics.h"
#include "util/query_log.h"

namespace indoor {

double Pt2PtLegs(const FloorPlan& plan, PartitionId vs, const Point& ps,
                 PartitionId vt, const Point& pt, QueryScratch* scratch,
                 const QueryCache* cache) {
  double direct = kInfDistance;
  if (vs == vt) {
    plan.partition(vs).IntraDistancesToMany(ps, {&pt, 1}, &scratch->geo,
                                            &direct);
  }
  // Destination legs keep the historical door->pt orientation (one kernel
  // call rooted at each door midpoint); the source legs below share a single
  // batched solve rooted at ps. With a cache, both fields read through the
  // cross-query source-field cache (FieldKind::kEnterFrom preserves the
  // door->pt orientation, and every leave door touches vs, so the canonical
  // kLeaveFrom field equals the unfiltered IntraDistancesToMany values):
  // cached and uncached legs are the same bits.
  const auto midpoints = [&](const std::vector<DoorId>& doors) {
    auto& mids = scratch->geo.points;
    mids.clear();
    for (DoorId d : doors) mids.push_back(plan.door(d).Midpoint());
    return std::span<const Point>(mids);
  };
  const auto& dest_doors = plan.EnterDoors(vt);
  scratch->dst_leg.resize(dest_doors.size());
  if (cache != nullptr) {
    cache->FieldLegs(FieldKind::kEnterFrom, vt, pt, dest_doors,
                     &scratch->geo, scratch->dst_leg.data());
  } else {
    plan.partition(vt).IntraDistancesFromMany(
        midpoints(dest_doors), pt, &scratch->geo, scratch->dst_leg.data());
  }
  const auto& src_doors = plan.LeaveDoors(vs);
  scratch->src_leg.resize(src_doors.size());
  if (cache != nullptr) {
    cache->FieldLegs(FieldKind::kLeaveFrom, vs, ps, src_doors, &scratch->geo,
                     scratch->src_leg.data());
  } else {
    plan.partition(vs).IntraDistancesToMany(
        ps, midpoints(src_doors), &scratch->geo, scratch->src_leg.data());
  }
  return direct;
}

double Pt2PtDistanceMatrix(const FloorPlan& plan,
                           const DistanceMatrix& matrix, PartitionId vs,
                           const Point& ps, PartitionId vt, const Point& pt,
                           QueryScratch* scratch, const QueryCache* cache) {
  INDOOR_LATENCY_SPAN("pt2pt_matrix", "query.pt2pt_matrix.latency_ns");
  qlog::QueryLogScope qscope(qlog::RecordKind::kDistance, ps.x, ps.y, pt.x,
                             pt.y, 0.0, 0, scratch != nullptr);
  qscope.SetHost(vs);
  INDOOR_CHECK(matrix.door_count() == plan.door_count())
      << "matrix was built for a different plan";
  scratch = &ResolveQueryScratch(scratch);
  const ScratchDecayGuard decay_guard(scratch);
  double best = Pt2PtLegs(plan, vs, ps, vt, pt, scratch, cache);
  const auto& src_doors = plan.LeaveDoors(vs);
  const auto& dest_doors = plan.EnterDoors(vt);
  const auto& src_leg = scratch->src_leg;
  const auto& dest_leg = scratch->dst_leg;
  INDOOR_METRICS_ONLY(uint64_t rows_fetched = 0;)
  for (size_t i = 0; i < src_doors.size(); ++i) {
    const double leg1 = src_leg[i];
    if (leg1 == kInfDistance || leg1 >= best) continue;
    const double* row = matrix.Row(src_doors[i]);
    INDOOR_METRICS_ONLY(++rows_fetched;)
    for (size_t j = 0; j < dest_doors.size(); ++j) {
      if (dest_leg[j] == kInfDistance) continue;
      const double total = leg1 + row[dest_doors[j]] + dest_leg[j];
      best = std::min(best, total);
    }
  }
  INDOOR_METRICS_ONLY(INDOOR_COUNTER_ADD("index.md2d.row_fetches", rows_fetched);)
  qscope.SetResult(best < kInfDistance ? 1u : 0u, best);
  return best;
}

double Pt2PtDistanceMatrix(const PartitionLocator& locator,
                           const DistanceMatrix& matrix, const Point& ps,
                           const Point& pt, QueryScratch* scratch,
                           const QueryCache* cache) {
  const auto vs = CachedHostPartition(cache, locator, ps);
  const auto vt = CachedHostPartition(cache, locator, pt);
  if (!vs.ok() || !vt.ok()) return kInfDistance;
  return Pt2PtDistanceMatrix(locator.plan(), matrix, vs.value(), ps,
                             vt.value(), pt, scratch, cache);
}

}  // namespace indoor
