// ALT landmark lower bounds over the door graph (goal-directed pruning à
// la Goldberg & Harrelson, adapted to the indoor distance core).
//
// At index build time a handful of far-apart landmark doors are chosen by
// farthest-point sampling, and for each landmark l both Dijkstra
// directions are precomputed over every door d:
//
//   fwd[d][l] = d(l -> d)   (forward rows, over DoorEdges)
//   bwd[d][l] = d(d -> l)   (backward rows, over ReverseDoorEdges)
//
// The triangle inequality then lower-bounds any door-to-door distance:
//   d(s, t) >= max_l max(fwd[t][l] - fwd[s][l], bwd[s][l] - bwd[t][l])
// Query paths use these bounds ONLY to skip work that provably cannot
// change the answer (pair-skips in Algorithm 2, push-pruning in the
// virtual-source Dijkstra), so results stay bitwise identical with
// landmarks on or off.
//
// Storage is transposed per door — the `count()` landmark values of one
// door are contiguous — so a bound evaluation reads two short dense rows
// per endpoint (SIMD-friendly, see simd::AltPairBound). Selection is
// sequential and deterministic: landmark 0 is door 0; each next landmark
// is the door maximizing the minimum forward distance from the chosen set
// (ties to the smallest id; unreachable doors, which score infinity, are
// picked first so disconnected components get covered).

#ifndef INDOOR_CORE_INDEX_LANDMARK_INDEX_H_
#define INDOOR_CORE_INDEX_LANDMARK_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/model/distance_graph.h"
#include "util/owned_span.h"
#include "util/simd.h"

namespace indoor {

/// Precomputed ALT landmark rows for one plan's door graph. Immutable
/// after construction; safe for any number of concurrent readers.
class LandmarkIndex {
 public:
  /// Hard cap on the landmark count (keeps per-query aggregate buffers on
  /// the stack; IndexOptions::landmark_count is clamped to this).
  static constexpr size_t kMaxCount = 32;

  /// An empty (invalid) index; LowerBound is unusable, valid() is false.
  LandmarkIndex() = default;

  /// Selects min(count, door count, kMaxCount) landmarks by farthest-point
  /// sampling and precomputes their forward/backward rows. Returns an
  /// invalid index when the plan has no doors.
  static LandmarkIndex Build(const DistanceGraph& graph, size_t count);

  /// Adopts precomputed payloads (Build, and the container's read path,
  /// LoadIndexContainer in index_io.h). `fwd` and `bwd` are the
  /// transposed per-door rows, doors * count entries each.
  static LandmarkIndex FromRaw(size_t door_count,
                               std::vector<DoorId> landmark_doors,
                               std::vector<double> fwd,
                               std::vector<double> bwd);

  /// Borrows precomputed payloads without copying (mmap-ed container);
  /// the caller keeps the backing storage alive. Layout as in FromRaw.
  static LandmarkIndex FromView(size_t door_count, size_t count,
                                const DoorId* landmark_doors,
                                const double* fwd, const double* bwd);

  bool valid() const { return count_ > 0; }
  /// Number of landmarks actually selected (selection stops early once
  /// every door is within distance 0 of a landmark).
  size_t count() const { return count_; }
  size_t door_count() const { return door_count_; }
  /// The selected landmark door ids, in selection order.
  std::span<const DoorId> doors() const { return landmark_doors_; }

  /// fwd row of door d: ForwardRow(d)[l] = d(landmark_l -> d).
  const double* ForwardRow(DoorId d) const {
    return fwd_.data() + static_cast<size_t>(d) * count_;
  }
  /// bwd row of door d: BackwardRow(d)[l] = d(d -> landmark_l).
  const double* BackwardRow(DoorId d) const {
    return bwd_.data() + static_cast<size_t>(d) * count_;
  }

  /// Triangle-inequality lower bound on d(s, t); >= 0, never above the
  /// exact door-to-door distance.
  double LowerBound(DoorId s, DoorId t) const {
    return simd::AltPairBound(ForwardRow(s), ForwardRow(t), BackwardRow(s),
                              BackwardRow(t), count_);
  }

  /// Serialized payload views (index_io.h).
  std::span<const double> ForwardPayload() const { return fwd_; }
  std::span<const double> BackwardPayload() const { return bwd_; }

  /// Bytes held by the precomputed rows.
  size_t MemoryBytes() const {
    return fwd_.PayloadBytes() + bwd_.PayloadBytes() +
           landmark_doors_.PayloadBytes();
  }

 private:
  size_t count_ = 0;
  size_t door_count_ = 0;
  OwnedSpan<DoorId> landmark_doors_;
  // Transposed per-door rows: index [d * count_ + l].
  OwnedSpan<double> fwd_;
  OwnedSpan<double> bwd_;
};

/// Landmark count for a plan with `door_count` doors, used when
/// IndexOptions::landmark_count is 0 (auto). A step curve: small plans get
/// few landmarks (bound arithmetic would outweigh the pruning), campus
/// plans get more (rows are cheap next to |D|^2 matrices and the tighter
/// bounds prune more solver work). Documented in docs/BENCHMARKS.md;
/// pruning is loss-free at any count, so this only moves build time and
/// bound tightness, never results.
inline size_t AutoLandmarkCount(size_t door_count) {
  if (door_count <= 32) return 4;
  if (door_count <= 128) return 8;
  if (door_count <= 512) return 12;
  if (door_count <= 2048) return 16;
  if (door_count <= 8192) return 24;
  return LandmarkIndex::kMaxCount;
}

}  // namespace indoor

#endif  // INDOOR_CORE_INDEX_LANDMARK_INDEX_H_
