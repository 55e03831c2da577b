#include "core/query/query_cache.h"

#include <algorithm>
#include <bit>

#include "util/check.h"
#include "util/metrics.h"
#include "util/query_log.h"

namespace indoor {
namespace {

/// Per-thread staging for the canonical field: on a hit the cached legs
/// are copied here under the shard lock and mapped to the caller's door
/// subset outside it; on a miss the field is solved into it before being
/// copied into the cache. Capacity persists across queries, so the
/// steady-state hit path performs no allocations.
std::vector<double>& TlsFieldBuffer() {
  static thread_local std::vector<double> buffer;
  return buffer;
}

uint64_t Mix2(uint64_t a, uint64_t b) {
  return indoor::internal::MixHash(a ^ (b * 0x9e3779b97f4a7c15ull));
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// The uncached evaluation of one field over `doors`, run by both the
/// cache's miss path and the null-cache fallback, so cached and uncached
/// legs are bit-identical.
void SolveField(const PartitionLocator& locator, FieldKind kind,
                PartitionId v, const Point& p, std::span<const DoorId> doors,
                GeodesicScratch* scratch, double* out) {
  switch (kind) {
    case FieldKind::kLeaveFrom:
    case FieldKind::kEnterTo:
      locator.DistVMany(v, p, doors, scratch, out);
      break;
    case FieldKind::kEnterFrom: {
      // Matrix-path orientation: each leg is rooted at its door midpoint.
      if (scratch == nullptr) scratch = &TlsGeodesicScratch();
      const FloorPlan& plan = locator.plan();
      auto& mids = scratch->points;
      mids.clear();
      for (DoorId d : doors) mids.push_back(plan.door(d).Midpoint());
      plan.partition(v).IntraDistancesFromMany(mids, p, scratch, out);
      break;
    }
  }
}

}  // namespace

size_t QueryCache::FieldKeyHash::operator()(const FieldKey& k) const {
  const uint64_t tag =
      (static_cast<uint64_t>(k.part) << 8) | static_cast<uint64_t>(k.kind);
  return static_cast<size_t>(Mix2(Mix2(tag, k.x), k.y));
}

size_t QueryCache::HostKeyHash::operator()(const HostKey& k) const {
  return static_cast<size_t>(Mix2(k.x, k.y));
}

size_t QueryCache::ResultKeyHash::operator()(const ResultKey& k) const {
  return static_cast<size_t>(
      Mix2(Mix2(Mix2(static_cast<uint64_t>(k.kind), k.param), k.x), k.y));
}

QueryCache::QueryCache(const FloorPlan& plan, const PartitionLocator& locator,
                       const ObjectStore& objects, QueryCacheOptions options)
    : plan_(&plan),
      locator_(&locator),
      objects_(&objects),
      options_(options),
      field_cache_(options.field_capacity_bytes, options.shards,
                   "cache.field"),
      host_cache_(options.host_capacity_bytes, options.shards, "cache.host"),
      result_cache_(options.result_capacity_bytes, options.shards,
                    "cache.result") {}

Result<PartitionId> QueryCache::HostPartition(const Point& p) const {
  const HostKey key{Bits(p.x), Bits(p.y)};
  PartitionId cached = kInvalidId;
  const bool hit = host_cache_.Lookup(key, [&](PartitionId part) {
    cached = part;
    return true;
  });
  qlog::AddCacheLookup(hit);
  if (hit) return cached;
  Result<PartitionId> resolved = locator_->GetHostPartition(p);
  if (resolved.ok()) {
    host_cache_.Insert(key, resolved.value(), HostCache::SlotBytes());
  }
  return resolved;
}

const std::vector<DoorId>& QueryCache::CanonicalDoors(FieldKind kind,
                                                      PartitionId v) const {
  return kind == FieldKind::kLeaveFrom ? plan_->LeaveDoors(v)
                                       : plan_->EnterDoors(v);
}

void QueryCache::FieldLegs(FieldKind kind, PartitionId v, const Point& p,
                           std::span<const DoorId> doors,
                           GeodesicScratch* scratch, double* out) const {
  const std::vector<DoorId>& canonical = CanonicalDoors(kind, v);
  std::vector<double>& buffer = TlsFieldBuffer();
  const FieldKey key{v, static_cast<uint8_t>(kind), Bits(p.x), Bits(p.y)};
  const bool hit =
      field_cache_.Lookup(key, [&](const std::vector<double>& legs) {
        buffer.assign(legs.begin(), legs.end());
        return true;
      });
  qlog::AddCacheLookup(hit);
  if (!hit) {
    buffer.resize(canonical.size());
    SolveField(*locator_, kind, v, p, canonical, scratch, buffer.data());
    field_cache_.InsertWith(key, [&](std::vector<double>& legs) {
      legs.assign(buffer.begin(), buffer.end());
      return FieldCache::SlotBytes() + legs.capacity() * sizeof(double);
    });
  }
  if (doors.size() == canonical.size()) {
    // Callers pass either the canonical list itself or an ascending
    // subset; equal sizes means it is the canonical list.
    std::copy(buffer.begin(), buffer.end(), out);
    return;
  }
  for (size_t i = 0; i < doors.size(); ++i) {
    const auto it =
        std::lower_bound(canonical.begin(), canonical.end(), doors[i]);
    INDOOR_CHECK(it != canonical.end() && *it == doors[i])
        << "FieldLegs door " << doors[i]
        << " is not in the canonical list of partition " << v;
    out[i] = buffer[static_cast<size_t>(it - canonical.begin())];
  }
}

QueryCache::ResultKey QueryCache::MakeResultKey(uint8_t kind, const Point& p,
                                                uint64_t param) {
  return ResultKey{kind, Bits(p.x), Bits(p.y), param};
}

bool QueryCache::DepsCurrent(const ResultEntry& entry) const {
  for (const EpochDep& dep : entry.deps) {
    if (objects_->epoch(dep.part) != dep.epoch) return false;
  }
  return true;
}

bool QueryCache::FillStale(const ResultEntry& entry,
                           StaleResult* stale) const {
  stale->changed.clear();
  for (const EpochDep& dep : entry.deps) {
    if (objects_->epoch(dep.part) == dep.epoch) continue;
    if (!objects_->ChangedSince(dep.part, dep.epoch, &stale->changed)) {
      return false;  // journal window exceeded: full reject
    }
    if (stale->changed.size() > 4 * kMaxRepairObjects) return false;
  }
  std::sort(stale->changed.begin(), stale->changed.end());
  stale->changed.erase(
      std::unique(stale->changed.begin(), stale->changed.end()),
      stale->changed.end());
  if (stale->changed.size() > kMaxRepairObjects) return false;
  stale->ids.assign(entry.ids.begin(), entry.ids.end());
  stale->neighbors.assign(entry.neighbors.begin(), entry.neighbors.end());
  stale->gates.assign(entry.gates.begin(), entry.gates.end());
  return true;
}

ResultProbe QueryCache::ProbeResult(uint8_t kind, const Point& p,
                                    uint64_t param,
                                    std::vector<ObjectId>* out_ids,
                                    std::vector<Neighbor>* out_neighbors,
                                    StaleResult* stale) const {
  bool rejected = false;
  bool repairable = false;
  const bool hit = result_cache_.Lookup(
      MakeResultKey(kind, p, param), [&](const ResultEntry& entry) {
        if (!DepsCurrent(entry)) {
          if (stale != nullptr && FillStale(entry, stale)) {
            repairable = true;
          } else {
            rejected = true;
          }
          return false;
        }
        if (out_ids != nullptr) {
          out_ids->assign(entry.ids.begin(), entry.ids.end());
        }
        if (out_neighbors != nullptr) {
          out_neighbors->assign(entry.neighbors.begin(), entry.neighbors.end());
        }
        return true;
      });
  if (rejected) {
    epoch_rejects_.fetch_add(1, std::memory_order_relaxed);
    INDOOR_COUNTER_INC("cache.epoch_rejects");
  }
  qlog::AddCacheLookup(hit);
  if (hit) return ResultProbe::kHit;
  return repairable ? ResultProbe::kStale : ResultProbe::kMiss;
}

ResultProbe QueryCache::ProbeRangeResult(const Point& p, double r,
                                         uint8_t kind,
                                         std::vector<ObjectId>* out,
                                         StaleResult* stale) const {
  return ProbeResult(kind, p, std::bit_cast<uint64_t>(r), out, nullptr,
                     stale);
}

ResultProbe QueryCache::ProbeKnnResult(const Point& p, size_t k, uint8_t kind,
                                       std::vector<Neighbor>* out,
                                       StaleResult* stale) const {
  return ProbeResult(kind, p, static_cast<uint64_t>(k), nullptr, out, stale);
}

void QueryCache::CountEpochReject() const {
  epoch_rejects_.fetch_add(1, std::memory_order_relaxed);
  INDOOR_COUNTER_INC("cache.epoch_rejects");
}

void CanonicalizeGates(bool widest, std::vector<ResultGate>* gates) {
  std::sort(gates->begin(), gates->end(),
            [](const ResultGate& a, const ResultGate& b) {
              return a.part != b.part ? a.part < b.part : a.door < b.door;
            });
  size_t w = 0;
  for (size_t i = 0; i < gates->size(); ++i) {
    const ResultGate& next = (*gates)[i];
    if (w > 0 && (*gates)[w - 1].part == next.part &&
        (*gates)[w - 1].door == next.door) {
      ResultGate& kept = (*gates)[w - 1];
      kept.budget = widest ? std::max(kept.budget, next.budget)
                           : std::min(kept.budget, next.budget);
    } else {
      (*gates)[w++] = next;
    }
  }
  gates->resize(w);
}

void QueryCache::InsertResult(uint8_t kind, const Point& p, uint64_t param,
                              std::span<const PartitionId> deps,
                              std::span<const ResultGate> gates,
                              const std::vector<ObjectId>* ids,
                              const std::vector<Neighbor>* neighbors) const {
  // The dependency epochs are stamped and sorted outside the shard lock;
  // the fill below only copies into the slot's retained vectors.
  static thread_local std::vector<EpochDep> stamped;
  stamped.clear();
  for (const PartitionId part : deps) {
    stamped.push_back({part, objects_->epoch(part)});
  }
  std::sort(stamped.begin(), stamped.end(),
            [](const EpochDep& a, const EpochDep& b) {
              return a.part < b.part;
            });
  stamped.erase(std::unique(stamped.begin(), stamped.end(),
                            [](const EpochDep& a, const EpochDep& b) {
                              return a.part == b.part;
                            }),
                stamped.end());
  result_cache_.InsertWith(
      MakeResultKey(kind, p, param), [&](ResultEntry& entry) {
        entry.deps.assign(stamped.begin(), stamped.end());
        entry.gates.assign(gates.begin(), gates.end());
        entry.ids.clear();
        if (ids != nullptr) entry.ids.assign(ids->begin(), ids->end());
        entry.neighbors.clear();
        if (neighbors != nullptr) {
          entry.neighbors.assign(neighbors->begin(), neighbors->end());
        }
        return EntryBytes(entry);
      });
}

size_t QueryCache::EntryBytes(const ResultEntry& entry) {
  return ResultCache::SlotBytes() + entry.deps.capacity() * sizeof(EpochDep) +
         entry.gates.capacity() * sizeof(ResultGate) +
         entry.ids.capacity() * sizeof(ObjectId) +
         entry.neighbors.capacity() * sizeof(Neighbor);
}

void QueryCache::CommitRepaired(uint8_t kind, const Point& p, uint64_t param,
                                const std::vector<ObjectId>* ids,
                                const std::vector<Neighbor>* neighbors) const {
  repairs_.fetch_add(1, std::memory_order_relaxed);
  INDOOR_COUNTER_INC("cache.result.repairs");
  result_cache_.Mutate(
      MakeResultKey(kind, p, param), [&](ResultEntry& entry) {
        // Single-writer contract: no move interleaves with the repairing
        // query, so the epochs read here are the ones the patched payload
        // is exact under.
        for (EpochDep& dep : entry.deps) {
          dep.epoch = objects_->epoch(dep.part);
        }
        if (ids != nullptr) entry.ids = *ids;
        if (neighbors != nullptr) entry.neighbors = *neighbors;
        return EntryBytes(entry);
      });
}

void QueryCache::InsertRangeResult(const Point& p, double r, uint8_t kind,
                                   std::span<const PartitionId> deps,
                                   std::span<const ResultGate> gates,
                                   const std::vector<ObjectId>& result) const {
  InsertResult(kind, p, std::bit_cast<uint64_t>(r), deps, gates, &result,
               nullptr);
}

void QueryCache::CommitRepairedRange(
    const Point& p, double r, uint8_t kind,
    const std::vector<ObjectId>& result) const {
  CommitRepaired(kind, p, std::bit_cast<uint64_t>(r), &result, nullptr);
}

void QueryCache::InsertKnnResult(const Point& p, size_t k, uint8_t kind,
                                 std::span<const PartitionId> deps,
                                 std::span<const ResultGate> gates,
                                 const std::vector<Neighbor>& result) const {
  static thread_local std::vector<ResultGate> canonical;
  canonical.assign(gates.begin(), gates.end());
  CanonicalizeGates(/*widest=*/false, &canonical);
  InsertResult(kind, p, static_cast<uint64_t>(k), deps, canonical, nullptr,
               &result);
}

void QueryCache::CommitRepairedKnn(const Point& p, size_t k, uint8_t kind,
                                   const std::vector<Neighbor>& result) const {
  CommitRepaired(kind, p, static_cast<uint64_t>(k), nullptr, &result);
}

StaleResult& TlsStaleResult() {
  static thread_local StaleResult stale;
  return stale;
}

void QueryCache::Invalidate() const {
  field_cache_.Clear();
  host_cache_.Clear();
  result_cache_.Clear();
  INDOOR_COUNTER_INC("cache.invalidations");
}

CacheStats QueryCache::FieldStats() const { return field_cache_.GetStats(); }
CacheStats QueryCache::HostStats() const { return host_cache_.GetStats(); }
CacheStats QueryCache::ResultStats() const { return result_cache_.GetStats(); }

Result<PartitionId> CachedHostPartition(const QueryCache* cache,
                                        const PartitionLocator& locator,
                                        const Point& p) {
  if (cache != nullptr) return cache->HostPartition(p);
  return locator.GetHostPartition(p);
}

void CachedFieldLegs(const QueryCache* cache, const PartitionLocator& locator,
                     FieldKind kind, PartitionId v, const Point& p,
                     std::span<const DoorId> doors, GeodesicScratch* scratch,
                     double* out) {
  if (cache != nullptr) {
    cache->FieldLegs(kind, v, p, doors, scratch, out);
    return;
  }
  SolveField(locator, kind, v, p, doors, scratch, out);
}

}  // namespace indoor
