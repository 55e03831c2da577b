// Cross-query work sharing: a read-through cache over the two costliest
// per-query resolution steps of the serving hot path —
//
//   * host-partition resolution (Locator::GetHostPartition R-tree probe),
//   * source/destination door distance fields (Locator::DistVMany entry
//     and exit legs, plus the matrix path's door->point exit legs).
//
// Both caches key on the query position quantized to a configurable grid
// (IndexOptions::cache_quantum) but store the EXACT position alongside
// the cached value: a lookup only counts as a hit when the stored point
// matches the queried point bit-for-bit, so quantization governs only
// collision granularity, never the returned values. On a quantum-cell
// collision with a different exact point the entry is re-solved and
// replaced — exactness is preserved by construction, and every cached
// path stays bit-identical to the uncached one (field values come from
// the same DistVMany / IntraDistance evaluations, whose one-to-many
// batching guarantees per-target values independent of batch
// composition; see visibility_graph.h).
//
// Fields are cached over the partition's full canonical door list
// (LeaveDoors / EnterDoors); callers that need a pruned subset (Algorithm
// 3/4 source doors) extract their values from the canonical field by
// binary search, which is exact for the same reason.
//
// A third cache shares whole range/kNN results across queries. Unlike the
// field and host caches — which are pure geometry and never depend on the
// object population — result entries are object-dependent, so each one
// records the (partition, epoch) pairs it was derived from (the host
// partition plus every partition whose bucket the search examined; see
// range_query.cc / knn_query.cc for why that set is sufficient). Writes
// never sweep the cache: ObjectStore bumps the epochs of the partitions a
// move touches, and a lookup lazily notices an entry whose recorded
// epochs no longer match.
//
// A stale entry is not necessarily lost. Each result entry also stores
// its *gates* — the (partition, door, residual budget) triples the fresh
// search would evaluate, which are pure geometry and object-independent —
// and the store's per-partition change journal names exactly which
// objects account for a small epoch delta. The query layer uses the two
// to REPAIR a stale entry: re-test only the moved objects against the
// gates (bit-identical float expressions to the full search) and patch or
// revalidate the cached result (`cache.result.repairs`). Only when the
// journal window is exceeded, too many objects moved, or a moved object
// provably perturbs a kNN result does the lookup fall back to a full
// reject (counted as `cache.epoch_rejects`); the entry is then replaced
// when the query re-solves. Geometry entries survive every write.
//
// Threading: all methods are safe for any number of concurrent callers
// (sharded LRU with per-shard locking, see util/sharded_cache.h). Epoch
// snapshots rely on the store's single-writer contract: a query runs
// entirely between writes, so the epochs it records at insert time are
// the ones its result was computed under. Invalidate() remains as an
// operator-facing full reset; the write path no longer calls it.

#ifndef INDOOR_CORE_QUERY_QUERY_CACHE_H_
#define INDOOR_CORE_QUERY_QUERY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "core/index/object_store.h"
#include "core/model/locator.h"
#include "geometry/rect.h"
#include "util/sharded_cache.h"

namespace indoor {

/// Which distance field of a partition is being cached. The kinds differ
/// in canonical door list and in floating-point evaluation orientation,
/// both of which must match the uncached call site bit-for-bit.
enum class FieldKind : uint8_t {
  /// Entry legs distV(p, d) over LeaveDoors(v) (pt2pt source side, range
  /// and kNN door expansion). Computed by one DistVMany solve rooted at p.
  kLeaveFrom = 0,
  /// Exit legs distV(p, d) over EnterDoors(v) (pt2pt destination side).
  /// Also one DistVMany solve rooted at p.
  kEnterTo = 1,
  /// Matrix-path exit legs over EnterDoors(v) in the historical door->p
  /// orientation: one IntraDistance(door midpoint, p) solve per door.
  kEnterFrom = 2,
};

/// Tuning knobs; defaults are set from IndexOptions in index_framework.
struct QueryCacheOptions {
  /// Quantization grid edge (same unit as plan coordinates). Governs how
  /// many distinct positions can share a cache cell — not exactness.
  double quantum = 0.25;
  /// Byte budget of the distance-field cache.
  size_t field_capacity_bytes = 24u << 20;
  /// Byte budget of the host-partition cache.
  size_t host_capacity_bytes = 8u << 20;
  /// Byte budget of the range/kNN result cache.
  size_t result_capacity_bytes = 8u << 20;
  /// LRU shards per cache (rounded up to a power of two).
  size_t shards = 16;
};

/// One residual search budget of a cached range/kNN result — pure
/// geometry, recorded at the SearchSide call sites of the fresh
/// execution. For a range result the fresh search admits an object of
/// `part` reached via `door` iff fdv <= budget (whole-partition
/// inclusion) or its intra-partition distance from the door midpoint is
/// <= budget, with `budget` the largest residual radius r2 any door
/// expansion granted that (part, door) pair. For a kNN result `budget`
/// is the smallest accumulated q-to-door leg r2, and the fresh search
/// offers intra-distance + budget; `fdv` is unused. Because the reach
/// set and every budget depend only on geometry (and, for kNN, on the
/// cached k-th distance they are validated against), gates stay exact
/// across any object movement.
struct ResultGate {
  PartitionId part = kInvalidId;
  DoorId door = kInvalidId;
  double budget = 0.0;
  double fdv = kInfDistance;
};

/// Probe verdict for a cached range/kNN result.
enum class ResultProbe : uint8_t {
  kHit,    ///< current entry served into `out`
  kMiss,   ///< no usable entry (includes unrepairable stale = epoch reject)
  kStale,  ///< stale but repairable: StaleResult filled, caller repairs
};

/// Repair workspace handed back by a kStale probe: the cached payload,
/// its gates, and the deduplicated ids of every object that moved in or
/// out of the dependency partitions since the entry was cached.
struct StaleResult {
  std::vector<ObjectId> ids;          // range payload (sorted)
  std::vector<Neighbor> neighbors;    // kNN payload (nearest first)
  std::vector<ResultGate> gates;
  std::vector<ObjectId> changed;      // deduplicated journal ids
};

/// The calling thread's reusable StaleResult (and, during fresh
/// executions, gate-recording buffer) — same idiom as the field staging
/// buffer: one query at a time per thread, capacity persists.
StaleResult& TlsStaleResult();

/// The serving-layer caches over one index whose geometry is immutable
/// but whose object population moves. The plan, locator, and object store
/// must outlive the cache.
class QueryCache {
 public:
  QueryCache(const FloorPlan& plan, const PartitionLocator& locator,
             const ObjectStore& objects, QueryCacheOptions options);

  /// getHostPartition(p) through the cache: returns the cached partition
  /// on an exact-point hit, otherwise delegates to the locator and caches
  /// positive results. Error results (outdoor points) are never cached. A
  /// point outside every partition's bounding box (NaN, ±inf, far-off
  /// coordinates) goes straight to the locator without being quantized:
  /// it has no host, and its key could overflow int64.
  Result<PartitionId> HostPartition(const Point& p) const;

  /// Fills out[i] with the field value of doors[i], where `doors` must be
  /// a subset of the canonical door list of (kind, v) — LeaveDoors(v) for
  /// kLeaveFrom, EnterDoors(v) otherwise. Serves from the cached canonical
  /// field on an exact-point hit; re-solves and caches it otherwise. A
  /// steady-state hit performs no heap allocations.
  void FieldLegs(FieldKind kind, PartitionId v, const Point& p,
                 std::span<const DoorId> doors, GeodesicScratch* scratch,
                 double* out) const;

  /// Probes for a cached Qr(p, r) result on an exact-(point, radius,
  /// kind) match. kHit: every recorded partition epoch is current, `out`
  /// is filled. kStale (only when `stale` is non-null): epochs moved but
  /// the change journals cover the delta with at most kMaxRepairObjects
  /// distinct objects — `stale` is filled and the caller is expected to
  /// repair and CommitRepairedRange. kMiss otherwise; an unrepairable
  /// stale entry counts as an epoch reject. `kind` discriminates query
  /// flavors that may not be bit-identical (use_index_matrix modes); the
  /// query call sites own the encoding.
  ResultProbe ProbeRangeResult(const Point& p, double r, uint8_t kind,
                               std::vector<ObjectId>* out,
                               StaleResult* stale) const;

  /// Convenience wrapper: probe without repair; true on kHit.
  bool LookupRangeResult(const Point& p, double r, uint8_t kind,
                         std::vector<ObjectId>* out) const {
    return ProbeRangeResult(p, r, kind, out, nullptr) == ResultProbe::kHit;
  }

  /// Caches a Qr(p, r) result. `deps` is the set of partitions whose
  /// object population the result depends on and `gates` the residual
  /// budgets the search evaluated (duplicates allowed in both; the entry
  /// stores them canonicalized — deps with their current epochs, gates
  /// merged per (part, door) keeping the widest range budget / tightest
  /// kNN leg). Must be called before any subsequent write, i.e. from
  /// within the query that computed `result` (single-writer contract).
  void InsertRangeResult(const Point& p, double r, uint8_t kind,
                         std::span<const PartitionId> deps,
                         std::span<const ResultGate> gates,
                         const std::vector<ObjectId>& result) const;

  /// Persists a repaired range result by patching the stale entry IN
  /// PLACE under its shard lock: the repaired payload replaces the cached
  /// one and the dependency epochs are refreshed to the store's current
  /// values (exact under the single-writer contract — no move interleaves
  /// with the repairing query). Gates and dependency partitions are
  /// object-independent and stay as recorded; nothing is re-sorted or
  /// re-allocated beyond the payload assignment. Counts the repair. An
  /// entry evicted between probe and commit is simply skipped.
  void CommitRepairedRange(const Point& p, double r, uint8_t kind,
                           const std::vector<ObjectId>& result) const;

  /// Qnn(p, k) analogues of the range-result group above. A stale kNN
  /// entry is patched exactly by the query layer — moved objects are
  /// removed from / merged into the cached top-k against the cached k-th
  /// bound (see knn_query.cc) — and committed here; when the patch cannot
  /// be proven exact the caller records a reject via CountEpochReject and
  /// re-solves.
  ResultProbe ProbeKnnResult(const Point& p, size_t k, uint8_t kind,
                             std::vector<Neighbor>* out,
                             StaleResult* stale) const;
  bool LookupKnnResult(const Point& p, size_t k, uint8_t kind,
                       std::vector<Neighbor>* out) const {
    return ProbeKnnResult(p, k, kind, out, nullptr) == ResultProbe::kHit;
  }
  void InsertKnnResult(const Point& p, size_t k, uint8_t kind,
                       std::span<const PartitionId> deps,
                       std::span<const ResultGate> gates,
                       const std::vector<Neighbor>& result) const;
  void CommitRepairedKnn(const Point& p, size_t k, uint8_t kind,
                         const std::vector<Neighbor>& result) const;

  /// Records an epoch reject decided outside the probe (a kStale kNN
  /// entry whose repair test failed).
  void CountEpochReject() const;

  /// A stale entry whose journals name more than this many distinct
  /// moved objects is rejected rather than repaired (a full re-solve is
  /// cheaper than that many per-object gate tests).
  static constexpr size_t kMaxRepairObjects = 64;

  /// Drops every cached entry (operator-facing full reset; the write path
  /// relies on epoch rejection instead).
  void Invalidate() const;

  CacheStats FieldStats() const;
  CacheStats HostStats() const;
  CacheStats ResultStats() const;
  /// Result-cache lookups rejected because a dependency epoch moved and
  /// the entry could not be repaired. Counted even in metrics-OFF builds.
  uint64_t EpochRejects() const {
    return epoch_rejects_.load(std::memory_order_relaxed);
  }
  /// Stale result-cache entries salvaged by the repair path. Counted even
  /// in metrics-OFF builds.
  uint64_t Repairs() const {
    return repairs_.load(std::memory_order_relaxed);
  }
  const QueryCacheOptions& options() const { return options_; }

  // Quantized cell keys. 16 bits of partition+kind, then the two mixed
  // cell coordinates; collisions only cost a re-solve, never exactness.
  struct FieldKey {
    PartitionId part;
    uint8_t kind;
    int64_t qx, qy;
    bool operator==(const FieldKey&) const = default;
  };
  struct HostKey {
    int64_t qx, qy;
    bool operator==(const HostKey&) const = default;
  };
  struct ResultKey {
    uint8_t kind;  // caller-encoded query flavor (range/kNN x options)
    int64_t qx, qy;
    uint64_t param;  // bit pattern of r (range) or k (kNN)
    bool operator==(const ResultKey&) const = default;
  };
  struct FieldKeyHash {
    size_t operator()(const FieldKey& k) const;
  };
  struct HostKeyHash {
    size_t operator()(const HostKey& k) const;
  };
  struct ResultKeyHash {
    size_t operator()(const ResultKey& k) const;
  };

 private:
  struct FieldEntry {
    Point p;  // exact source position the field was solved from
    std::vector<double> legs;
  };
  struct HostEntry {
    Point p;
    PartitionId part;
  };
  struct EpochDep {
    PartitionId part;
    uint64_t epoch;
  };
  struct ResultEntry {
    Point p;          // exact query position
    uint64_t param;   // exact radius bits / k
    std::vector<EpochDep> deps;
    std::vector<ResultGate> gates;    // repair budgets (see ResultGate)
    std::vector<ObjectId> ids;        // range payload
    std::vector<Neighbor> neighbors;  // kNN payload
  };

  int64_t QuantizeCoord(double x) const;
  const std::vector<DoorId>& CanonicalDoors(FieldKind kind,
                                            PartitionId v) const;
  void SolveField(FieldKind kind, PartitionId v, const Point& p,
                  std::span<const DoorId> canonical, GeodesicScratch* scratch,
                  double* out) const;

  ResultKey MakeResultKey(uint8_t kind, const Point& p, uint64_t param) const;
  /// True when every recorded dependency epoch still matches the store.
  bool DepsCurrent(const ResultEntry& entry) const;
  /// Fills `stale` (payload, gates, deduplicated changed ids) from
  /// a stale entry; false when the journals cannot cover the delta or too
  /// many objects moved.
  bool FillStale(const ResultEntry& entry, StaleResult* stale) const;
  /// Shared probe body; `out_ids`/`out_neighbors` selects the payload.
  ResultProbe ProbeResult(uint8_t kind, const Point& p, uint64_t param,
                          std::vector<ObjectId>* out_ids,
                          std::vector<Neighbor>* out_neighbors,
                          StaleResult* stale) const;
  void InsertResult(uint8_t kind, const Point& p, uint64_t param,
                    std::span<const PartitionId> deps,
                    std::span<const ResultGate> gates,
                    ResultEntry entry) const;
  /// Shared body of the CommitRepaired* pair: in-place payload patch +
  /// epoch refresh via ShardedCache::Mutate. Exactly one of
  /// `ids`/`neighbors` is non-null.
  void CommitRepaired(uint8_t kind, const Point& p, uint64_t param,
                      const std::vector<ObjectId>* ids,
                      const std::vector<Neighbor>* neighbors) const;
  static size_t EntryBytes(const ResultEntry& entry);

  const FloorPlan* plan_;
  const PartitionLocator* locator_;
  const ObjectStore* objects_;
  QueryCacheOptions options_;
  double inv_quantum_;
  Rect plan_bounds_ = Rect::Empty();  // union of partition bounding boxes
  mutable ShardedCache<FieldKey, FieldEntry, FieldKeyHash> field_cache_;
  mutable ShardedCache<HostKey, HostEntry, HostKeyHash> host_cache_;
  mutable ShardedCache<ResultKey, ResultEntry, ResultKeyHash> result_cache_;
  mutable std::atomic<uint64_t> epoch_rejects_{0};
  mutable std::atomic<uint64_t> repairs_{0};
};

/// Read-through helpers used by the query algorithms: consult `cache`
/// when non-null, fall back to the direct locator evaluation otherwise
/// (reference implementations and cache-off indexes take the fallback, so
/// equivalence oracles stay pure).
Result<PartitionId> CachedHostPartition(const QueryCache* cache,
                                        const PartitionLocator& locator,
                                        const Point& p);

/// `doors` must be a subset of the canonical door list of (kind, v); see
/// QueryCache::FieldLegs. The null-cache fallback reproduces the
/// historical uncached evaluation exactly.
void CachedFieldLegs(const QueryCache* cache, const PartitionLocator& locator,
                     FieldKind kind, PartitionId v, const Point& p,
                     std::span<const DoorId> doors, GeodesicScratch* scratch,
                     double* out);

}  // namespace indoor

#endif  // INDOOR_CORE_QUERY_QUERY_CACHE_H_
