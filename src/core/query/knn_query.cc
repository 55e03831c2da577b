#include "core/query/knn_query.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "core/distance/query_scratch.h"
#include "core/query/door_ball.h"
#include "core/query/query_cache.h"
#include "core/query/result_digest.h"
#include "util/metrics.h"
#include "util/query_log.h"
#include "util/simd.h"

namespace indoor {
namespace {

/// Lines 12-19 of Algorithm 6 for one DPT side: nnSearch in the partition's
/// bucket anchored at door dj with the accumulated leg r2. `deps`
/// (optional) accumulates the epoch dependency set of the query's cached
/// result; partitions are recorded even when empty (reaching one means its
/// population matters). Partitions that are NOT reached cannot affect the
/// result even if their population changes: they are pruned because every
/// door path to them is strictly longer than the collector bound, which
/// never rises, so any object there sits strictly beyond the final k-th
/// distance — it can neither enter the top-k nor displace a tie.
void SearchSide(const IndexFramework& index, PartitionId part, DoorId dj,
                double r2, BucketScratch* scratch, KnnCollector* collector,
                std::vector<PartitionId>* deps,
                std::vector<ResultGate>* gates) {
  if (part == kInvalidId) return;
  if (deps != nullptr) {
    deps->push_back(part);
    gates->push_back({part, dj, r2, 0.0});  // fdv unused for kNN gates
  }
  // Hotness telemetry (see range_query.cc): every reached partition is a
  // visit; object distance evaluations settle as the pair's second half.
  INDOOR_METRICS_ONLY(const uint64_t hot_before = scratch->objects_tested;
                      scratch->hot.emplace_back(part, 0);)
  const GridBucket& bucket = index.objects().bucket(part);
  if (bucket.size() == 0) return;
  bucket.NnSearch(index.plan().partition(part),
                  index.plan().door(dj).Midpoint(), r2, collector, scratch);
  INDOOR_METRICS_ONLY(scratch->hot.back().second =
                          static_cast<uint32_t>(scratch->objects_tested -
                                                hot_before);)
}

/// Spare neighbors cached beyond the requested k. A fresh solve collects
/// the top-(k + spares) so that repair can absorb cached neighbors moving
/// AWAY without losing the ability to serve an exact top-k: the spares
/// are the fill-ins a plain k-sized list would have to re-solve for. The
/// served result is always the leading k entries.
constexpr size_t kKnnRepairSpares = 4;

/// k + kKnnRepairSpares, saturated: a k near SIZE_MAX already asks for
/// every object, and the plain sum would wrap to a tiny capacity.
size_t WithSpares(size_t k) {
  return k > SIZE_MAX - kKnnRepairSpares ? SIZE_MAX : k + kKnnRepairSpares;
}

enum class KnnRepair : uint8_t {
  kUnchanged,  ///< no moved object affects the result; refresh epochs only
  kPatched,    ///< stale->neighbors now holds the exact fresh answer
  kResolve,    ///< the patch cannot be proven exact; re-solve fully
};

/// Patches a stale cached kNN result against the moved objects, or proves
/// it unchanged, or gives up.
///
/// For a moved object o the best offer a fresh search could make is
///   min(intra(q, o)                 if o is in the host partition,
///       intra(door_g, o) + budget_g over gates g of o's partition)
/// -- the same float expressions NnSearch offers, with the collector
/// keeping the running min per object. Partitions without gates were
/// pruned with every path leg at or beyond the cached k-th distance
/// (`bound`), so objects moving there cannot beat it; symmetrically an
/// offer below `bound` can only come through a gate the original search
/// evaluated, which makes `best` the object's exact fresh distance
/// whenever best < bound. The patch therefore: drops moved objects from
/// the cached list, re-merges every moved object whose best is below
/// bound, and keeps the k closest. That is the fresh top-k as long as the
/// merged list still has k members whose ordering is unambiguous --
/// KnnCollector keeps entries (distance, id)-sorted but resolves an exact
/// distance TIE at the admission boundary by offer order, which a patch
/// cannot reproduce, so any equality involving a merged distance falls
/// back to kResolve. Lists cached with fewer than k members (bound
/// = infinity) are not patched: the fresh search may then admit
/// unreachable objects at infinite offers, which the gate test cannot
/// distinguish.
KnnRepair RepairKnnResult(const IndexFramework& index, const Point& q,
                          size_t k, PartitionId host, StaleResult* stale,
                          GeodesicScratch* geo) {
  std::vector<Neighbor>& nbrs = stale->neighbors;
  const size_t cap = WithSpares(k);
  // Invariant carried by every cached list of size >= k: entries are
  // (distance, id)-sorted with exact distances, and every object whose
  // current distance is below the last entry's distance is IN the list
  // (prefix-completeness). A fresh insert establishes it for the full
  // top-(k + spares); each patch below preserves it. Lists shorter than k
  // (tiny reachable populations) are re-solved instead.
  if (nbrs.size() < k) return KnnRepair::kResolve;
  const double bound = nbrs.back().distance;
  const FloorPlan& plan = index.plan();
  const ObjectStore& store = index.objects();

  // Exact fresh distances of the moved objects that can make the list.
  // An offer below `bound` can only come through a gate the original
  // search evaluated (a pruned door's whole path already exceeded its
  // bound, which never rises), so `best` is exact whenever best < bound;
  // movers at or beyond `bound` cannot crack the served top-k because the
  // list keeps at least k entries at or below `bound`.
  std::vector<Neighbor> merged;
  for (const ObjectId id : stale->changed) {
    const IndoorObject& o = store.object(id);
    double best = kInfDistance;
    if (o.partition == host) {
      const double d = plan.partition(host).IntraDistance(q, o.position, geo);
      if (d != kInfDistance) best = std::min(best, d);
    }
    for (const ResultGate& g : stale->gates) {
      if (g.part != o.partition) continue;
      const double d = plan.partition(g.part).IntraDistance(
          plan.door(g.door).Midpoint(), o.position, geo);
      if (d != kInfDistance) best = std::min(best, d + g.budget);
    }
    if (best < bound) merged.push_back({id, best});
  }

  // Retained cached neighbors: everyone who did not move. Their cached
  // distances stay exact -- a door the original search pruned offers at
  // or beyond the original bound, so it cannot improve anyone's min.
  bool removed = false;
  size_t w = 0;
  for (const Neighbor& nb : nbrs) {
    const bool moved =
        std::find(stale->changed.begin(), stale->changed.end(), nb.id) !=
        stale->changed.end();
    if (moved) {
      removed = true;  // its merged entry (if any) carries the new distance
    } else {
      nbrs[w++] = nb;
    }
  }
  nbrs.resize(w);
  if (!removed && merged.empty()) return KnnRepair::kUnchanged;

  // An exact distance TIE against a merged entry makes the order
  // offer-dependent (KnnCollector resolves boundary ties by offer order,
  // which a patch cannot reproduce) -- re-solve on any such collision.
  for (size_t i = 0; i < merged.size(); ++i) {
    for (const Neighbor& nb : nbrs) {
      if (merged[i].distance == nb.distance) return KnnRepair::kResolve;
    }
    for (size_t j = i + 1; j < merged.size(); ++j) {
      if (merged[j].distance == merged[i].distance) {
        return KnnRepair::kResolve;
      }
    }
  }

  // Merge preserving the collector's (distance, id) order; retained
  // entries already carry it and merged distances are tie-free.
  nbrs.insert(nbrs.end(), merged.begin(), merged.end());
  std::sort(nbrs.begin(), nbrs.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.distance != b.distance ? a.distance < b.distance
                                              : a.id < b.id;
            });
  if (nbrs.size() > cap) {
    // Spilling over capacity mirrors collector displacement; a distance
    // tie across the cut would again be offer-order ambiguous.
    if (nbrs[cap].distance == nbrs[cap - 1].distance) {
      return KnnRepair::kResolve;
    }
    nbrs.resize(cap);
  }
  if (nbrs.size() < k) return KnnRepair::kResolve;  // spares exhausted
  return KnnRepair::kPatched;
}


/// Serves one kNN query from the approximate tier (approx_knn.h): SIMD
/// landmark lower bounds over every object, exact re-rank of the `k *
/// factor` bound-sorted candidates, early exit once the k-th exact
/// distance is at or below the next candidate's bound (exact modulo
/// boundary ties when the exit fires; approximate when the prefix runs
/// dry first). Returns false when the tier cannot serve a full answer —
/// landmark mismatch or fewer than k reachable candidates — and the
/// caller falls back to the exact path. Never consults or fills the
/// result cache: cached entries must stay exact.
bool ApproxKnnServe(const IndexFramework& index, const ApproxKnnIndex& approx,
                    const Point& q, PartitionId v, size_t k, size_t factor,
                    QueryScratch* scratch, std::vector<Neighbor>* out) {
  const LandmarkIndex* const lm = index.landmarks();
  if (lm == nullptr || lm->count() != approx.landmark_count()) return false;
  const size_t n_obj = approx.object_count();
  if (n_obj < k) return false;  // exact path owns tiny populations
  const FloorPlan& plan = index.plan();
  const QueryCache* cache = index.query_cache();
  const size_t L = lm->count();

  // Query-side landmark aggregates over the host partition's door legs
  // (both fields are the canonical cached solves the exact paths share):
  //   fq[l] = d(landmark_l, q) = min_j (fwd_row(enter_j)[l] + leg(q, j))
  //   bq[l] = d(q, landmark_l) = min_i (leg(q, i) + bwd_row(leave_i)[l])
  const std::vector<DoorId>& leave = plan.LeaveDoors(v);
  auto& src_leg = scratch->src_leg;
  src_leg.resize(leave.size());
  CachedFieldLegs(cache, index.locator(), FieldKind::kLeaveFrom, v, q, leave,
                  &scratch->geo, src_leg.data());
  const std::vector<DoorId>& enter = plan.EnterDoors(v);
  auto& dst_leg = scratch->dst_leg;
  dst_leg.resize(enter.size());
  CachedFieldLegs(cache, index.locator(), FieldKind::kEnterTo, v, q, enter,
                  &scratch->geo, dst_leg.data());

  double fq[LandmarkIndex::kMaxCount];
  double bq[LandmarkIndex::kMaxCount];
  for (size_t l = 0; l < L; ++l) fq[l] = bq[l] = kInfDistance;
  for (size_t j = 0; j < enter.size(); ++j) {
    if (dst_leg[j] == kInfDistance) continue;
    const double* frow = lm->ForwardRow(enter[j]);
    for (size_t l = 0; l < L; ++l) {
      if (frow[l] == kInfDistance) continue;
      fq[l] = std::min(fq[l], frow[l] + dst_leg[j]);
    }
  }
  for (size_t i = 0; i < leave.size(); ++i) {
    if (src_leg[i] == kInfDistance) continue;
    const double* brow = lm->BackwardRow(leave[i]);
    for (size_t l = 0; l < L; ++l) {
      if (brow[l] == kInfDistance) continue;
      bq[l] = std::min(bq[l], src_leg[i] + brow[l]);
    }
  }

  // Triangle-inequality lower bound per object, one landmark-major batch
  // kernel call per landmark.
  auto& acc = scratch->approx_bound;
  acc.assign(n_obj, 0.0);
  {
    INDOOR_TRACE_SPAN("approx_bounds");
    for (size_t l = 0; l < L; ++l) {
      // A landmark unreachable from/to the query contributes no finite
      // term; skipping it saves a whole row scan.
      if (fq[l] == kInfDistance && bq[l] == kInfDistance) continue;
      simd::AltBatchBoundMax(approx.FwdRow(l), approx.BwdRow(l), fq[l], bq[l],
                             acc.data(), n_obj);
    }
  }

  // Candidate prefix: the `want` smallest bounds, ascending (ties by id).
  auto& order = scratch->approx_order;
  order.resize(n_obj);
  std::iota(order.begin(), order.end(), ObjectId{0});
  const size_t want = std::min(n_obj, k * std::max<size_t>(factor, 1));
  const auto by_bound = [&acc](ObjectId a, ObjectId b) {
    return acc[a] != acc[b] ? acc[a] < acc[b] : a < b;
  };
  if (want < n_obj) {
    std::nth_element(order.begin(), order.begin() + want, order.end(),
                     by_bound);
  }
  std::sort(order.begin(), order.begin() + want, by_bound);

  // Exact re-rank. The q -> enter-door budget min_i (src_leg[i] +
  // Md2d[leave_i][dj]) is the same float expression the exact scan offers
  // as r2 (min and + commute monotonically, so taking the min first is
  // bitwise identical); memoized per door across candidates.
  const DistanceMatrix& md2d = index.d2d_matrix();
  auto& dq = scratch->approx_dq;
  dq.assign(plan.door_count(), -1.0);
  const auto door_budget = [&](DoorId dj) {
    double b = dq[dj];
    if (b != -1.0) return b;
    b = kInfDistance;
    for (size_t i = 0; i < leave.size(); ++i) {
      if (src_leg[i] == kInfDistance) continue;
      const double r2 = src_leg[i] + md2d.Row(leave[i])[dj];
      if (r2 < b) b = r2;
    }
    dq[dj] = b;
    return b;
  };

  const ObjectStore& store = index.objects();
  KnnCollector& collector = scratch->collector;
  collector.Reset(k);
  INDOOR_METRICS_ONLY(uint64_t scanned = 0;)
  {
    INDOOR_TRACE_SPAN("approx_rerank");
    for (size_t c = 0; c < want; ++c) {
      const ObjectId o = order[c];
      // Bound() is the k-th exact distance once full (infinite before);
      // every remaining candidate's exact distance is at least acc[o]
      // (ascending prefix, nth_element partition), so nothing can improve
      // the collection: the answer is exact from here.
      if (collector.Bound() <= acc[o]) break;
      const IndoorObject& obj = store.object(o);
      double d = kInfDistance;
      if (obj.partition == v) {
        const double h =
            plan.partition(v).IntraDistance(q, obj.position, &scratch->geo);
        if (h < d) d = h;
      }
      const std::vector<DoorId>& doors = plan.EnterDoors(obj.partition);
      const std::span<const double> legs = approx.Legs(o);
      for (size_t j = 0; j < doors.size(); ++j) {
        if (legs[j] == kInfDistance) continue;
        const double b = door_budget(doors[j]);
        if (b == kInfDistance) continue;
        const double cand = legs[j] + b;
        if (cand < d) d = cand;
      }
      INDOOR_METRICS_ONLY(++scanned;)
      if (d == kInfDistance) continue;
      collector.Offer(o, d);
    }
  }
  INDOOR_METRICS_ONLY(INDOOR_COUNTER_ADD("knn.approx.candidates", scanned);)
  // Under-filled: fewer than k reachable candidates in the prefix. The
  // exact path's handling of sparse/unreachable populations (including
  // its infinite-distance admissions) is authoritative; fall back.
  if (collector.size() < k) return false;
  *out = collector.Sorted();
  return true;
}

/// Qnn(q, k) from q's host partition `v` (kInvalidId: q is not indoors)
/// under the entry point's query-log scope.
std::vector<Neighbor> KnnQueryFrom(const IndexFramework& index, PartitionId v,
                                   const Point& q, size_t k,
                                   KnnQueryOptions options,
                                   QueryScratch* scratch,
                                   qlog::QueryLogScope& qscope) {
  if (v == kInvalidId || k == 0) return {};
  const FloorPlan& plan = index.plan();
  const QueryCache* cache = index.query_cache();
  qscope.SetHost(v);
  const auto served = [&qscope](std::vector<Neighbor> nbrs) {
    INDOOR_HISTOGRAM_RECORD("query.knn.results", nbrs.size());
    if (qscope.active()) {
      qscope.SetResult(static_cast<uint32_t>(nbrs.size()),
                       qdigest::KnnDigest(nbrs));
    }
    return nbrs;
  };
  // Opt-in approximate tier: bypasses the result cache entirely (cached
  // entries must stay exact) and never runs for hierarchy frameworks,
  // stale embeddings, or when it cannot prove a full k-sized answer.
  if (options.use_approx && index.has_flat_matrix()) {
    if (const ApproxKnnIndex* const approx = index.approx_knn()) {
      QueryScratch& ascratch = ResolveQueryScratch(scratch);
      const ScratchDecayGuard approx_guard(&ascratch);
      const size_t factor = options.approx_candidate_factor != 0
                                ? options.approx_candidate_factor
                                : index.options().approx_candidate_factor;
      std::vector<Neighbor> result;
      if (approx->FreshFor(index.objects()) &&
          ApproxKnnServe(index, *approx, q, v, k, factor, &ascratch,
                         &result)) {
        INDOOR_COUNTER_INC("knn.approx.served");
        return served(std::move(result));
      }
      INDOOR_COUNTER_INC("knn.approx.exact_fallback");
    }
  }
  // Result kinds keep cached entries of the door-expansion engines apart
  // (range even, kNN odd); the repair machinery is engine-independent
  // (gates + intra-partition geometry only).
  const auto engine = DoorBall::EngineOf(index, options.use_index_matrix);
  const uint8_t result_kind = 2 * static_cast<uint8_t>(engine) + 1;
  if (cache != nullptr) {
    std::vector<Neighbor> cached;
    StaleResult& stale = TlsStaleResult();
    switch (cache->ProbeKnnResult(q, k, result_kind, &cached, &stale)) {
      case ResultProbe::kHit:
        // The stored list carries up to kKnnRepairSpares extras; serve k.
        if (cached.size() > k) cached.resize(k);
        return served(std::move(cached));
      case ResultProbe::kStale: {
        // Patch (or revalidate) instead of re-solving: only the moved
        // objects can enter or leave the cached top-k.
        QueryScratch& repair_scratch = ResolveQueryScratch(scratch);
        if (RepairKnnResult(index, q, k, v, &stale, &repair_scratch.geo) !=
            KnnRepair::kResolve) {
          // Persist the full (spare-carrying) patched list, serve k.
          cache->CommitRepairedKnn(q, k, result_kind, stale.neighbors);
          if (stale.neighbors.size() > k) stale.neighbors.resize(k);
          return served(std::move(stale.neighbors));
        }
        cache->CountEpochReject();
        break;  // fall through to the full search
      }
      case ResultProbe::kMiss:
        break;
    }
  }
  scratch = &ResolveQueryScratch(scratch);
  const ScratchDecayGuard decay_guard(scratch);
  std::vector<PartitionId>* deps = nullptr;
  std::vector<ResultGate>* gates = nullptr;
  if (cache != nullptr) {
    deps = &scratch->result_deps;
    deps->clear();
    deps->push_back(v);  // the host bucket is always examined
    gates = &TlsStaleResult().gates;
    gates->clear();
  }

  KnnCollector& collector = scratch->collector;
  // With caching on, solve for k + spares so the cached list can absorb
  // future removals in repair; the served answer is the leading k either
  // way (a wider collector only ever visits a superset of doors, and
  // pruned doors offer at or beyond the running bound, so the top-k
  // prefix is unaffected).
  collector.Reset(cache != nullptr ? WithSpares(k) : k);
  // Line 3: search the host partition directly.
  INDOOR_METRICS_ONLY(
      const uint64_t hot_before = scratch->bucket.objects_tested;
      scratch->bucket.hot.emplace_back(v, 0);)
  {
    INDOOR_TRACE_SPAN("host_search");
    index.objects().bucket(v).NnSearch(plan.partition(v), q, /*extra=*/0.0,
                                       &collector, &scratch->bucket);
  }
  INDOOR_METRICS_ONLY(scratch->bucket.hot.back().second =
                          static_cast<uint32_t>(
                              scratch->bucket.objects_tested - hot_before);)

  // Lines 4-19: expand through every leaveable door of the host partition.
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
      const double leg = src_leg[i];
      if (leg == kInfDistance) continue;
      // The collector breaks admission-boundary ties by offer order, so
      // kNN needs the ordered form (door_ball.h).
      ball.Expand(
          src_doors[i],
          [&](double d) { return !(leg + d > collector.Bound()); },
          [&](DoorId dj, double d) {
            const double r2 = leg + d;
            SearchSide(index, dpt[dj].part1, dj, r2, &scratch->bucket,
                       &collector, deps, gates);
            SearchSide(index, dpt[dj].part2, dj, r2, &scratch->bucket,
                       &collector, deps, gates);
          });
    }
  }
  INDOOR_METRICS_ONLY(ball.FlushStats();
                      FlushBucketStats(&scratch->bucket);
                      index.hotness().FlushVisits(&scratch->bucket.hot);)
  std::vector<Neighbor> sorted = collector.Sorted();
  if (cache != nullptr) {
    cache->InsertKnnResult(q, k, result_kind, *deps, *gates, sorted);
  }
  if (sorted.size() > k) sorted.resize(k);
  return served(std::move(sorted));
}

}  // namespace

std::vector<Neighbor> KnnQuery(const IndexFramework& index, const Point& q,
                               size_t k, KnnQueryOptions options,
                               QueryScratch* scratch) {
  INDOOR_LATENCY_SPAN("knn", "query.knn.latency_ns");
  qlog::QueryLogScope qscope(qlog::RecordKind::kKnn, q.x, q.y, 0.0, 0.0, 0.0,
                             qlog::LoggedK(k), scratch != nullptr);
  const auto host = CachedHostPartition(index.query_cache(), index.locator(),
                                        q);
  return KnnQueryFrom(index, host.ok() ? host.value() : kInvalidId, q, k,
                      options, scratch, qscope);
}

std::vector<Neighbor> KnnQuery(const IndexFramework& index, PartitionId host,
                               const Point& q, size_t k,
                               KnnQueryOptions options,
                               QueryScratch* scratch) {
  INDOOR_LATENCY_SPAN("knn", "query.knn.latency_ns");
  qlog::QueryLogScope qscope(qlog::RecordKind::kKnn, q.x, q.y, 0.0, 0.0, 0.0,
                             qlog::LoggedK(k), scratch != nullptr);
  return KnnQueryFrom(index, host, q, k, options, scratch, qscope);
}

}  // namespace indoor
