#include "core/query/range_query.h"

#include <algorithm>

#include "core/distance/query_scratch.h"
#include "core/query/door_ball.h"
#include "core/query/query_cache.h"
#include "core/query/result_digest.h"
#include "util/metrics.h"
#include "util/query_log.h"

namespace indoor {
namespace {

/// Lines 11-20 of Algorithm 5 for one DPT side (partition + fdv value):
/// whole-partition inclusion when fdv(dj, part) <= r2, else a grid-pruned
/// intra-partition range search anchored at door dj. `found` is a reusable
/// staging buffer for the bucket results. `deps`/`gates` (optional,
/// paired) accumulate the epoch dependency set and the repair budgets of
/// the query's cached result: every partition reached here is recorded,
/// including empty ones — reaching a partition means its population
/// matters, whether or not it currently holds objects. The reach set and
/// the budgets themselves are object-independent (pruning uses only Md2d
/// geometry and r), so a cached result is exactly as valid as the
/// recorded partitions' epochs, and a stale one can be repaired by
/// re-testing just the moved objects against the gates.
void SearchSide(const IndexFramework& index, PartitionId part, double fdv,
                DoorId dj, double r2, BucketScratch* scratch,
                std::vector<Neighbor>* found, std::vector<ObjectId>* result,
                std::vector<PartitionId>* deps,
                std::vector<ResultGate>* gates) {
  if (part == kInvalidId) return;
  if (deps != nullptr) {
    deps->push_back(part);
    gates->push_back({part, dj, r2, fdv});
  }
  // Hotness telemetry: every reached partition is a visit, even an empty
  // one — reaching it means its population matters to this query (the
  // same reasoning the dependency set uses). Settles attributed below.
  INDOOR_METRICS_ONLY(const uint64_t hot_before = scratch->objects_tested;
                      scratch->hot.emplace_back(part, 0);)
  const GridBucket& bucket = index.objects().bucket(part);
  if (bucket.size() == 0) return;
  if (fdv <= r2) {
    INDOOR_COUNTER_INC("index.grid.collect_all");
    bucket.CollectAll(result);
    return;
  }
  found->clear();
  bucket.RangeSearch(index.plan().partition(part),
                     index.plan().door(dj).Midpoint(), r2, found, scratch);
  for (const Neighbor& nb : *found) result->push_back(nb.id);
  INDOOR_METRICS_ONLY(scratch->hot.back().second =
                          static_cast<uint32_t>(scratch->objects_tested -
                                                hot_before);)
}

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

}  // namespace

std::vector<ObjectId> RangeQuery(const IndexFramework& index, const Point& q,
                                 double r, RangeQueryOptions options,
                                 QueryScratch* scratch) {
  INDOOR_LATENCY_SPAN("range", "query.range.latency_ns");
  qlog::QueryLogScope qscope(qlog::RecordKind::kRange, q.x, q.y, 0.0, 0.0, r,
                             0, scratch != nullptr);
  std::vector<ObjectId> result;
  const FloorPlan& plan = index.plan();
  const QueryCache* cache = index.query_cache();
  const auto host = CachedHostPartition(cache, index.locator(), q);
  if (!host.ok() || !(r >= 0)) return result;  // also rejects a NaN radius
  const PartitionId v = host.value();
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
  std::vector<Neighbor>& found = scratch->neighbors;
  std::vector<PartitionId>* deps = nullptr;
  std::vector<ResultGate>* gates = nullptr;
  if (cache != nullptr) {
    deps = &scratch->result_deps;
    deps->clear();
    deps->push_back(v);  // the host bucket is always examined
    gates = &TlsStaleResult().gates;
    gates->clear();
  }

  // Line 2: search the host partition directly.
  found.clear();
  INDOOR_METRICS_ONLY(
      const uint64_t hot_before = scratch->bucket.objects_tested;
      scratch->bucket.hot.emplace_back(v, 0);)
  {
    INDOOR_TRACE_SPAN("host_search");
    index.objects().bucket(v).RangeSearch(plan.partition(v), q, r, &found,
                                          &scratch->bucket);
  }
  INDOOR_METRICS_ONLY(scratch->bucket.hot.back().second =
                          static_cast<uint32_t>(
                              scratch->bucket.objects_tested - hot_before);)
  for (const Neighbor& nb : found) result.push_back(nb.id);

  // Lines 3-20: expand through every leaveable door of the host partition.
  // All q-to-door legs come from one batched geodesic solve rooted at q.
  const auto& src_doors = plan.LeaveDoors(v);
  auto& src_leg = scratch->src_leg;
  src_leg.resize(src_doors.size());
  CachedFieldLegs(cache, index.locator(), FieldKind::kLeaveFrom, v, q,
                  src_doors, &scratch->geo, src_leg.data());
  const DoorPartitionTable& dpt = index.dpt();
  DoorBall ball(index, options.use_index_matrix, &scratch->door);
  {
    INDOOR_TRACE_SPAN("door_expansion");
    for (size_t i = 0; i < src_doors.size(); ++i) {
      const double r1 = r - src_leg[i];
      if (!(r1 >= 0)) continue;  // NaN: an unreachable leg under r = +inf
      // The result is sorted and deduplicated below, so only the SET of
      // (door, r2) side searches matters: the unordered form suffices.
      ball.ExpandWithin(src_doors[i], r1, [&](DoorId dj, double d) {
        const double r2 = r1 - d;
        SearchSide(index, dpt[dj].part1, dpt[dj].dist1, dj, r2,
                   &scratch->bucket, &found, &result, deps, gates);
        SearchSide(index, dpt[dj].part2, dpt[dj].dist2, dj, r2,
                   &scratch->bucket, &found, &result, deps, gates);
      });
    }
  }
  INDOOR_METRICS_ONLY(ball.FlushStats();
                      FlushBucketStats(&scratch->bucket);
                      index.hotness().FlushVisits(&scratch->bucket.hot);)

  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  if (cache != nullptr) {
    cache->InsertRangeResult(q, r, result_kind, *deps, *gates, result);
  }
  return served(std::move(result));
}

}  // namespace indoor
