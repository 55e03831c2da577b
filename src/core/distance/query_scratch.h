// Per-thread query scratch arena.
//
// Every distance-aware query (pt2pt variants, range, kNN) runs a mix of
// geodesic solves (intra-partition legs), door-level Dijkstras, and bucket
// scans. QueryScratch bundles the reusable state of all three so the
// steady-state query hot path performs zero heap allocations: buffers are
// sized on first use and keep their capacity across queries.
//
// Ownership/threading contract (also see GeodesicScratch): a QueryScratch
// belongs to exactly one thread at a time and must not be shared between
// concurrently executing queries. The usual pattern is one scratch per
// worker thread, obtained implicitly — every query entry point accepts a
// null scratch and falls back to TlsQueryScratch(), the calling thread's
// own arena — or explicitly, by constructing a QueryScratch next to the
// worker loop and passing it down. Scratches hold no pointers into any
// index structure except the revalidated source-solve cache inside
// GeodesicScratch, so they may outlive, or be reused across, different
// QueryEngine instances.

#ifndef INDOOR_CORE_DISTANCE_QUERY_SCRATCH_H_
#define INDOOR_CORE_DISTANCE_QUERY_SCRATCH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/distance/d2d_distance.h"
#include "core/index/grid_index.h"
#include "util/metrics.h"

namespace indoor {

/// One DPT side of a range query's door expansion — a bucket search of
/// `part` anchored at `door` with residual budget r2 = r1 - d — and, once
/// cached, one repair gate of its result (query_cache.h). The fresh search
/// admits an object of `part` reached via `door` iff fdv <= budget
/// (whole-partition inclusion) or its intra-partition distance from the
/// door midpoint is <= budget, with `budget` the largest residual radius
/// any door expansion granted that (part, door) pair. A kNN gate instead
/// holds the smallest accumulated q-to-door leg, the fresh search offers
/// intra-distance + budget, and `fdv` is unused. The reach set and every
/// budget depend only on geometry (and, for kNN, on the cached k-th
/// distance they are validated against), so gates stay exact across any
/// object movement.
struct ResultGate {
  PartitionId part = kInvalidId;
  DoorId door = kInvalidId;
  double budget = 0.0;
  double fdv = kInfDistance;
};

/// Buffers of the hierarchy's per-query distance-to-destination potential
/// (HierarchyPotential, hierarchy_distance.h).
struct PotentialScratch {
  /// The finite-leg destinations: local index in the target cell, leg.
  std::vector<uint32_t> dest_locals;
  std::vector<double> dest_legs;
  /// The target cell's borders: border-clique slot, hT of that border.
  std::vector<uint32_t> target_slots;
  std::vector<double> target_h;
  /// g of every (cell, border) pair, laid out as the hierarchy's
  /// CellBorderLocals; cell c's entries hold this potential's values only
  /// while cell_stamp[c] equals `generation`, so a new potential resets
  /// nothing per cell.
  std::vector<double> cell_g;
  std::vector<uint32_t> cell_stamp;
  uint32_t generation = 0;
  /// A pt2pt query's source doors in search order: (leg + H, source index).
  std::vector<std::pair<double, uint32_t>> order;
};

/// Reusable state for one thread's distance-aware queries.
struct QueryScratch {
  /// Geodesic solver state for the entry/exit legs (Locator::DistVMany)
  /// and direct same-partition candidates.
  GeodesicScratch geo;
  /// Door-level Dijkstra state (Algorithms 1-4 expansions).
  DoorDijkstraScratch door;
  /// Grid-bucket search state (range/kNN object evaluation).
  BucketScratch bucket;

  /// Pruned source doors (Algorithm 3/4 lines 3-8).
  std::vector<DoorId> source_doors;
  /// Per-source candidate destination doors (Algorithm 3 lines 11-14).
  std::vector<DoorId> cand_doors;
  /// Entry legs ||ps, ds|| per source door / exit legs ||dt, pt|| per
  /// destination door.
  std::vector<double> src_leg;
  std::vector<double> dst_leg;
  /// Algorithm 4's dists[.][.] reuse matrix (rows x cols, row-major).
  std::vector<double> d2d_cache;
  /// Algorithm 4's prev[.] array for backward reuse.
  std::vector<PrevEntry> prev;
  /// The hierarchy pt2pt search's distance-to-destination potential.
  PotentialScratch potential;

  /// kNN candidate collector; Reset(k) per query.
  KnnCollector collector{1};
  /// Staging for range-search results forwarded into id lists.
  std::vector<Neighbor> neighbors;
  /// Partitions whose object population the running range/kNN query has
  /// examined — the epoch dependency set of its cached result.
  std::vector<PartitionId> result_deps;
  /// Range query's side plan: every DPT side its door expansion reached,
  /// then sorted and merged to one widest budget per (part, door).
  std::vector<ResultGate> sides;
  /// Range query's result, one bit per object id; all-zero between
  /// queries (range_query.cc sets and emits it).
  std::vector<uint64_t> result_bits;

  /// Approximate-kNN tier buffers (knn_query.cc): per-object SIMD lower
  /// bounds, the bound-sorted candidate order, and the per-door memo of
  /// q -> enter-door budgets used by the exact re-rank.
  std::vector<double> approx_bound;
  std::vector<ObjectId> approx_order;
  std::vector<double> approx_dq;

  // ---- high-water-mark decay ------------------------------------------
  // Long-lived serving threads (and the TLS fallback in particular) used
  // to pin the peak capacity of every buffer forever: one huge query left
  // megabytes parked in the arena. Query entry points now call
  // NoteQueryDone() once per query (via ScratchDecayGuard); every
  // kDecayInterval queries the arena compares its allocated capacity with
  // the recent peak usage and, when capacity exceeds 4x that peak (with a
  // floor of kDecayMinBytes so steady hot-path buffers are never churned),
  // shrinks every buffer back to its current size.

  /// Queries between decay checks.
  static constexpr int kDecayInterval = 64;
  /// Capacity below 4x this floor is never reclaimed.
  static constexpr size_t kDecayMinBytes = size_t{16} << 10;

  /// Records the end of one query; periodically decays over-sized buffers.
  void NoteQueryDone();
  /// Total allocated bytes across every buffer of the arena.
  size_t CapacityBytes() const;
  /// Total bytes currently in use (sizes, not capacities).
  size_t UsedBytes() const;
  /// Releases all capacity beyond current sizes (manual decay).
  void ShrinkToFit();

 private:
  size_t decay_peak_bytes_ = 0;
  int decay_countdown_ = kDecayInterval;
};

/// RAII helper placed at every query entry point: notifies the scratch at
/// scope exit no matter which return path the query takes.
class ScratchDecayGuard {
 public:
  explicit ScratchDecayGuard(QueryScratch* scratch) : scratch_(scratch) {}
  ~ScratchDecayGuard() { scratch_->NoteQueryDone(); }
  ScratchDecayGuard(const ScratchDecayGuard&) = delete;
  ScratchDecayGuard& operator=(const ScratchDecayGuard&) = delete;

 private:
  QueryScratch* scratch_;
};

/// The calling thread's fallback QueryScratch (used whenever a query entry
/// point is handed a null scratch).
QueryScratch& TlsQueryScratch();

/// Resolves a possibly-null scratch pointer to a usable arena: the pointer
/// itself when provided, the calling thread's TlsQueryScratch() otherwise.
/// Counts the resolution under `scratch.explicit` / `scratch.tls_fallback`
/// so operators can see whether callers reuse arenas or lean on the TLS
/// fallback (docs/METRICS.md).
inline QueryScratch& ResolveQueryScratch(QueryScratch* scratch) {
  if (scratch != nullptr) {
    INDOOR_COUNTER_INC("scratch.explicit");
    return *scratch;
  }
  INDOOR_COUNTER_INC("scratch.tls_fallback");
  return TlsQueryScratch();
}

}  // namespace indoor

#endif  // INDOOR_CORE_DISTANCE_QUERY_SCRATCH_H_
