#include "core/query/range_query.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/distance/query_scratch.h"
#include "core/query/door_ball.h"
#include "core/query/query_cache.h"
#include "core/query/result_digest.h"
#include "util/metrics.h"
#include "util/query_log.h"

namespace indoor {
namespace {

/// Would a fresh Qr(q, r) admit an object currently at `o`? Evaluates the
/// exact gate expressions of the full search: the host-partition direct
/// search when o lives in `host`, else every gate of o's partition —
/// whole-partition inclusion (fdv <= budget) or the bucket's own
/// single-object admission predicate anchored at the gate door.
bool RangeObjectQualifies(const IndexFramework& index, const Point& q,
                          double r, PartitionId host, const StaleResult& stale,
                          const IndoorObject& o, GeodesicScratch* geo) {
  const FloorPlan& plan = index.plan();
  const ObjectStore& store = index.objects();
  if (o.partition == host &&
      store.bucket(host).WouldAdmit(plan.partition(host), q, r, o.position,
                                    geo)) {
    return true;
  }
  for (const ResultGate& g : stale.gates) {
    if (g.part != o.partition) continue;
    if (g.fdv <= g.budget) return true;
    if (store.bucket(g.part).WouldAdmit(plan.partition(g.part),
                                        plan.door(g.door).Midpoint(), g.budget,
                                        o.position, geo)) {
      return true;
    }
  }
  return false;
}

/// Patches a stale cached range result in place: for every object the
/// change journals name, re-test membership and insert/erase its id,
/// keeping the canonical sorted order. Always succeeds — range membership
/// of unmoved objects cannot change (their gates are object-independent).
void RepairRangeResult(const IndexFramework& index, const Point& q, double r,
                       PartitionId host, StaleResult* stale,
                       GeodesicScratch* geo) {
  const ObjectStore& store = index.objects();
  for (const ObjectId id : stale->changed) {
    const IndoorObject& o = store.object(id);
    const bool now = RangeObjectQualifies(index, q, r, host, *stale, o, geo);
    const auto it = std::lower_bound(stale->ids.begin(), stale->ids.end(), id);
    const bool was = it != stale->ids.end() && *it == id;
    if (now && !was) {
      stale->ids.insert(it, id);
    } else if (!now && was) {
      stale->ids.erase(it);
    }
  }
}

/// Qr(q, r) from q's host partition `v` (kInvalidId: q is not indoors)
/// under the entry point's query-log scope.
std::vector<ObjectId> RangeQueryFrom(const IndexFramework& index,
                                     PartitionId v, const Point& q, double r,
                                     RangeQueryOptions options,
                                     QueryScratch* scratch,
                                     qlog::QueryLogScope& qscope) {
  std::vector<ObjectId> result;
  if (v == kInvalidId || !(r >= 0)) return result;  // also a NaN radius
  const FloorPlan& plan = index.plan();
  const QueryCache* cache = index.query_cache();
  qscope.SetHost(v);
  const auto served = [&qscope](std::vector<ObjectId> ids) {
    INDOOR_HISTOGRAM_RECORD("query.range.results", ids.size());
    if (qscope.active()) {
      qscope.SetResult(static_cast<uint32_t>(ids.size()),
                       qdigest::RangeDigest(ids));
    }
    return ids;
  };
  // Result kinds keep cached entries of the door-expansion engines apart
  // (range even, kNN odd); the repair machinery is engine-independent
  // (gates + intra-partition geometry only).
  const auto engine = DoorBall::EngineOf(index, options.use_index_matrix);
  const uint8_t result_kind = 2 * static_cast<uint8_t>(engine);
  if (cache != nullptr) {
    StaleResult& stale = TlsStaleResult();
    switch (cache->ProbeRangeResult(q, r, result_kind, &result, &stale)) {
      case ResultProbe::kHit:
        return served(std::move(result));
      case ResultProbe::kStale: {
        // Patch the cached result instead of re-solving: only the moved
        // objects can change membership.
        QueryScratch& repair_scratch = ResolveQueryScratch(scratch);
        RepairRangeResult(index, q, r, v, &stale, &repair_scratch.geo);
        cache->CommitRepairedRange(q, r, result_kind, stale.ids);
        return served(std::move(stale.ids));
      }
      case ResultProbe::kMiss:
        break;
    }
  }
  scratch = &ResolveQueryScratch(scratch);
  const ScratchDecayGuard decay_guard(scratch);
  BucketScratch& bucket_scratch = scratch->bucket;
  std::vector<PartitionId>* deps = nullptr;
  if (cache != nullptr) {
    deps = &scratch->result_deps;
    deps->clear();
    deps->push_back(v);  // the host bucket is always examined
  }
  ResultBits bits(&scratch->result_bits, index.objects().size());

  // Lines 3-20: expand through every leaveable door of the host partition.
  // All q-to-door legs come from one batched geodesic solve rooted at q.
  const auto& src_doors = plan.LeaveDoors(v);
  auto& src_leg = scratch->src_leg;
  src_leg.resize(src_doors.size());
  CachedFieldLegs(cache, index.locator(), FieldKind::kLeaveFrom, v, q,
                  src_doors, &scratch->geo, src_leg.data());
  const DoorPartitionTable& dpt = index.dpt();
  DoorBall ball(index, options.use_index_matrix, &scratch->door);
  std::vector<ResultGate>& sides = scratch->sides;
  sides.clear();
  {
    INDOOR_TRACE_SPAN("door_expansion");
    // Every visited door contributes its two DPT sides to the side plan.
    // The result is a set, so only the plan's canonical form matters: the
    // unordered expansion suffices, and one gate per (part, door) at its
    // widest budget admits what all of that pair's budgets admit
    // (GridBucket::RangeSearch's cell prune, whole-cell admit and
    // per-object test are monotone in the budget).
    for (size_t i = 0; i < src_doors.size(); ++i) {
      const double r1 = r - src_leg[i];
      if (!(r1 >= 0)) continue;  // NaN: an unreachable leg under r = +inf
      ball.ExpandWithin(src_doors[i], r1, [&](DoorId dj, double d) {
        const double r2 = r1 - d;
        // NaN: a door unreachable from this source, visited at +inf under
        // r1 = +inf. Such a side admits nothing, and in the merge it could
        // displace the number another source grants the same pair.
        if (std::isnan(r2)) return;
        const DptRecord& rec = dpt[dj];
        if (rec.part1 != kInvalidId) {
          sides.push_back({rec.part1, dj, r2, rec.dist1});
        }
        if (rec.part2 != kInvalidId) {
          sides.push_back({rec.part2, dj, r2, rec.dist2});
        }
      });
    }
    CanonicalizeGates(/*widest=*/true, &sides);
  }

  // Line 2 and lines 11-20, once per reached partition, the host always
  // among them: whole-partition inclusion when any side has fdv <= budget,
  // else one RangeSearchGates pass over the partition's gates, each side
  // at its door midpoint and widest budget, and in the host the direct
  // search from q with r. Every reached partition is a dependency of the
  // cached result, an empty one included: reaching it means its population
  // matters. The plan depends only on geometry and r, so it also serves as
  // the cached result's repair gates.
  const auto search = [&](PartitionId part, size_t i, size_t end) {
    INDOOR_METRICS_ONLY(
        const uint64_t tested_before = bucket_scratch.objects_tested;)
    const GridBucket& bucket = index.objects().bucket(part);
    bool whole = false;
    for (size_t j = i; j < end; ++j) {
      whole |= sides[j].fdv <= sides[j].budget;
    }
    if (bucket.size() != 0 && whole) {
      INDOOR_COUNTER_INC("index.grid.collect_all");
      bucket.ForEachId([&bits](ObjectId id) { bits.Add(id); });
    } else if (bucket.size() != 0) {
      std::vector<RangeGate>& gates = bucket_scratch.gates;
      gates.clear();
      if (part == v) gates.push_back({q, r});
      for (size_t j = i; j < end; ++j) {
        const ResultGate& side = sides[j];
        gates.push_back({plan.door(side.door).Midpoint(), side.budget});
      }
      bucket.RangeSearchGates(plan.partition(part), gates, &bits,
                              &bucket_scratch);
    }
    // Hotness: one visit per reached partition.
    INDOOR_METRICS_ONLY(bucket_scratch.hot.emplace_back(
        part, static_cast<uint32_t>(bucket_scratch.objects_tested -
                                    tested_before));)
  };
  {
    INDOOR_TRACE_SPAN("bucket_search");
    bool host_searched = false;
    for (size_t i = 0, end = 0; i < sides.size(); i = end) {
      const PartitionId part = sides[i].part;
      for (end = i; end < sides.size() && sides[end].part == part; ++end) {
      }
      if (part == v) {
        host_searched = true;
      } else if (deps != nullptr) {
        deps->push_back(part);
      }
      search(part, i, end);
    }
    if (!host_searched) search(v, 0, 0);
  }
  INDOOR_METRICS_ONLY(ball.FlushStats(); FlushBucketStats(&bucket_scratch);
                      index.hotness().FlushVisits(&bucket_scratch.hot);)

  result = bits.Emit();
  if (cache != nullptr) {
    cache->InsertRangeResult(q, r, result_kind, *deps, sides, result);
  }
  return served(std::move(result));
}

}  // namespace

std::vector<ObjectId> RangeQuery(const IndexFramework& index, const Point& q,
                                 double r, RangeQueryOptions options,
                                 QueryScratch* scratch) {
  INDOOR_LATENCY_SPAN("range", "query.range.latency_ns");
  qlog::QueryLogScope qscope(qlog::RecordKind::kRange, q.x, q.y, 0.0, 0.0, r,
                             0, scratch != nullptr);
  const auto host = CachedHostPartition(index.query_cache(), index.locator(),
                                        q);
  return RangeQueryFrom(index, host.ok() ? host.value() : kInvalidId, q, r,
                        options, scratch, qscope);
}

std::vector<ObjectId> RangeQuery(const IndexFramework& index, PartitionId host,
                                 const Point& q, double r,
                                 RangeQueryOptions options,
                                 QueryScratch* scratch) {
  INDOOR_LATENCY_SPAN("range", "query.range.latency_ns");
  qlog::QueryLogScope qscope(qlog::RecordKind::kRange, q.x, q.y, 0.0, 0.0, r,
                             0, scratch != nullptr);
  return RangeQueryFrom(index, host, q, r, options, scratch, qscope);
}

}  // namespace indoor
