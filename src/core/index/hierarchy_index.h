// Hierarchical distance index for campus-scale plans (ROADMAP item 3).
//
// Md2d is O(|D|^2) in both build time and memory — fine for the paper's
// single building, fatal for a campus/airport with 10^4..10^5 doors. This
// index contracts the PARTITION graph into cells (deterministic capped BFS
// clustering over partition adjacency, G-tree/contraction style, see
// PAPERS.md: TopCom and the road-network kNN experimentation paper) and
// precomputes, per cell, a dense block of FULL-GRAPH door-to-door
// distances among the cell's member doors, plus one global clique of
// full-graph distances between all BORDER doors (doors whose two
// partitions land in different cells). Memory drops from |D|^2 to
// sum_c |M_c|^2 + |B|^2 (docs/INDEXING.md derives the formulas).
//
// THE EXACTNESS CONTRACT — and how it can hold bitwise. IEEE-754 addition
// is not associative, so any scheme that COMPOSES stored sub-distances
// (block + border-to-border + block) cannot reproduce the flat Md2d
// left-fold bit for bit. This index never serves composed sums. Instead:
//
//  * Every stored entry (cell blocks, border clique) is produced by an
//    EARLY-TERMINATED run of the exact same single-source door Dijkstra
//    that builds Md2d rows (d2d_runner.h): the run stops once all doors of
//    the target set have settled, and Dijkstra's settle-prefix property
//    makes every settled distance bit-identical to the full run's — i.e.
//    bit-identical to the flat Md2d entry.
//  * Query paths (hierarchy_distance.cc, and door_ball.h for range/kNN)
//    serve intra-cell lookups straight from the blocks and answer
//    inter-cell queries by running BOUNDED flat Dijkstras whose stop and
//    push-prune conditions are provably loss-free; composed border sums
//    are used ONLY as upper-bound caps on those runs (scaled by a safety
//    margin that dominates the composition's rounding error), never as
//    answers.
//
// The flat Md2d path remains the default and the oracle: IndexOptions
// selects the hierarchy explicitly, and the randomized equality suite
// (tests/hierarchy_index_test.cc) asserts bitwise-identical pt2pt, range,
// and kNN results against the flat engine on generated multi-building
// plans.
//
// Geometry of cells: every partition belongs to exactly one cell; a door
// connects exactly two partitions, so a door is a MEMBER of one or two
// cells and a BORDER door iff its partitions' cells differ. Any path that
// leaves the member set of a cell c must first settle a border door of c
// (the edge that leaves enters a partition outside c; its source door
// touches that partition, hence is a member of both cells — a border).
// That yields the per-member ESCAPE RADIUS: the exact distance to the
// nearest border door of the cell; a search radius strictly below it
// proves all reachable doors are cell members, enabling block-only
// fast paths with no graph expansion at all.
//
// Storage is flat arrays behind OwnedSpan so the mmap container
// (index_io.h) can serve a zero-copy view; Build() and FromRaw() produce
// owning instances. Immutable after construction; safe for any number of
// concurrent readers.

#ifndef INDOOR_CORE_INDEX_HIERARCHY_INDEX_H_
#define INDOOR_CORE_INDEX_HIERARCHY_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/distance/bucket_queue.h"
#include "core/model/distance_graph.h"
#include "util/owned_span.h"

namespace indoor {

/// Partition-contraction hierarchy: per-cell exact distance blocks plus a
/// global border-door clique. See the file comment for the design and the
/// bitwise-exactness contract.
class HierarchyIndex {
 public:
  /// Sentinel for "no cell / no local index / no border slot".
  static constexpr uint32_t kNone = 0xFFFFFFFFu;

  /// An empty (invalid) index; valid() is false.
  HierarchyIndex() = default;

  /// Builds the hierarchy: capped-BFS partition cells of about
  /// `cell_target` partitions each, then one early-terminated full-graph
  /// Dijkstra per (cell, member) block row and per border-clique row.
  /// Rows are independent, so construction parallelizes across `threads`
  /// workers (0 = hardware concurrency, 1 = sequential) with bit-identical
  /// output; `kind` selects the Dijkstra frontier (values are identical
  /// either way).
  static HierarchyIndex Build(const DistanceGraph& graph, unsigned threads,
                              unsigned cell_target,
                              QueueKind kind = QueueKind::kBucket);

  /// Adoption payload for the binary loader (index_io.cc). Spans may own
  /// their storage (read-mode load) or borrow it from the mapped container
  /// (mmap-mode load); see the member accessors below for each array's
  /// meaning and length.
  struct Raw {
    uint64_t door_count = 0;
    uint64_t cell_count = 0;
    uint64_t border_count = 0;
    uint32_t cell_target = 0;
    OwnedSpan<uint32_t> partition_cells;
    OwnedSpan<uint32_t> door_cells;
    OwnedSpan<uint32_t> door_locals;
    OwnedSpan<uint64_t> member_offsets;
    OwnedSpan<DoorId> members;
    OwnedSpan<double> escape_radii;
    OwnedSpan<uint64_t> cell_border_offsets;
    OwnedSpan<uint32_t> cell_border_locals;
    OwnedSpan<uint64_t> block_offsets;
    OwnedSpan<double> blocks;
    OwnedSpan<DoorId> border_doors;
    OwnedSpan<uint32_t> border_of_door;
    OwnedSpan<double> border_matrix;
  };

  /// Adopts a deserialized payload after validating every array length and
  /// offset invariant (INDOOR_CHECK on violation — the container loader
  /// has already authenticated the payload by checksum and fingerprint).
  static HierarchyIndex FromRaw(Raw raw);

  bool valid() const { return door_count_ > 0; }
  size_t door_count() const { return door_count_; }
  size_t cell_count() const { return cell_count_; }
  size_t border_count() const { return border_count_; }
  /// The build-time cell-size knob (partitions per cell), recorded so
  /// persisted indexes can be checked against the requesting options.
  uint32_t cell_target() const { return cell_target_; }

  /// The cell owning partition `v`.
  uint32_t CellOfPartition(PartitionId v) const {
    INDOOR_CHECK(v < partition_cells_.size());
    return partition_cells_[v];
  }

  /// Member doors of cell `c`, ascending door id. Border doors appear in
  /// the member list of BOTH their cells.
  std::span<const DoorId> CellMembers(uint32_t c) const {
    INDOOR_CHECK(c < cell_count_);
    return {members_.data() + member_offsets_[c],
            static_cast<size_t>(member_offsets_[c + 1] - member_offsets_[c])};
  }

  /// The (at most two) cells door `d` belongs to; slot 1 is kNone for
  /// doors interior to one cell. Slot 0 is always the smaller cell id.
  std::span<const uint32_t, 2> CellsOfDoor(DoorId d) const {
    INDOOR_CHECK(d < door_count_);
    return std::span<const uint32_t, 2>(door_cells_.data() + 2 * d, 2);
  }

  /// Local member index of door `d` inside cell `c`, or kNone when `d` is
  /// not a member. O(1): a door's memberships are stored on the door.
  uint32_t LocalIndex(uint32_t c, DoorId d) const {
    INDOOR_CHECK(d < door_count_);
    if (door_cells_[2 * d] == c) return door_locals_[2 * d];
    if (door_cells_[2 * d + 1] == c) return door_locals_[2 * d + 1];
    return kNone;
  }

  /// Block row of member `local` in cell `c`: CellMembers(c).size() exact
  /// FULL-GRAPH distances d(member[local] -> member[j]), each bit-equal to
  /// the flat Md2d entry (see the exactness contract above).
  const double* BlockRow(uint32_t c, uint32_t local) const {
    const size_t m = CellMembers(c).size();
    INDOOR_CHECK(local < m);
    return blocks_.data() + block_offsets_[c] + static_cast<size_t>(local) * m;
  }

  /// Exact distance from member `local` of cell `c` to the nearest border
  /// door of `c` (0 for border doors themselves, +inf when `c` has no
  /// reachable border). A search radius STRICTLY below this proves every
  /// reachable door is a member of `c`.
  double EscapeRadius(uint32_t c, uint32_t local) const {
    INDOOR_CHECK(c < cell_count_ && local < CellMembers(c).size());
    return escape_radii_[member_offsets_[c] + local];
  }

  /// Local member indices of cell `c`'s border doors, ascending.
  std::span<const uint32_t> CellBorderLocals(uint32_t c) const {
    INDOOR_CHECK(c < cell_count_);
    return {cell_border_locals_.data() + cell_border_offsets_[c],
            static_cast<size_t>(cell_border_offsets_[c + 1] -
                                cell_border_offsets_[c])};
  }

  /// All border doors, ascending door id.
  std::span<const DoorId> border_doors() const {
    return {border_doors_.data(), border_doors_.size()};
  }

  /// Border-clique slot of door `d`, or kNone for non-border doors.
  uint32_t BorderIndexOf(DoorId d) const {
    INDOOR_CHECK(d < door_count_);
    return border_of_door_[d];
  }

  bool IsBorder(DoorId d) const { return BorderIndexOf(d) != kNone; }

  /// Border-clique row of border slot `b`: border_count() exact full-graph
  /// distances d(border[b] -> border[j]).
  const double* BorderRow(uint32_t b) const {
    INDOOR_CHECK(b < border_count_);
    return border_matrix_.data() + static_cast<size_t>(b) * border_count_;
  }

  /// When `s` and `t` share a cell, writes the exact (flat-Md2d-bit-equal)
  /// distance d(s -> t) from that cell's block and returns true.
  bool TryExact(DoorId s, DoorId t, double* out) const;

  /// Upper bound on d(s -> t): the shared-cell exact value, else the best
  /// block -> border-clique -> block composition. Composed sums carry
  /// floating-point rounding, so callers must scale by a safety margin
  /// (kUpperBoundSlack) before using the bound as a loss-free search cap;
  /// +inf when no border route exists.
  double UpperBound(DoorId s, DoorId t) const;

  /// Multiplicative slack that turns UpperBound() into a provably safe
  /// Dijkstra cap: the composition's relative rounding error is a few
  /// hundred ulps (~1e-13), so 1e-9 dominates it by orders of magnitude
  /// while costing nothing measurable in search volume.
  static constexpr double kUpperBoundSlack = 1.0 + 1e-9;

  /// Bytes across every array (identical for owned and mapped payloads).
  size_t MemoryBytes() const;

  // --- Serialization surface (index_io.cc) -------------------------------
  // Raw array views in the exact order/lengths FromRaw expects.
  std::span<const uint32_t> PartitionCells() const { return partition_cells_; }
  std::span<const uint32_t> DoorCells() const { return door_cells_; }
  std::span<const uint32_t> DoorLocals() const { return door_locals_; }
  std::span<const uint64_t> MemberOffsets() const { return member_offsets_; }
  std::span<const DoorId> Members() const { return members_; }
  std::span<const double> EscapeRadii() const { return escape_radii_; }
  std::span<const uint64_t> CellBorderOffsets() const {
    return cell_border_offsets_;
  }
  std::span<const uint32_t> CellBorderLocalsFlat() const {
    return cell_border_locals_;
  }
  std::span<const uint64_t> BlockOffsets() const { return block_offsets_; }
  std::span<const double> Blocks() const { return blocks_; }
  std::span<const uint32_t> BorderOfDoor() const { return border_of_door_; }
  std::span<const double> BorderMatrix() const { return border_matrix_; }

 private:
  uint64_t door_count_ = 0;
  uint64_t cell_count_ = 0;
  uint64_t border_count_ = 0;
  uint32_t cell_target_ = 0;

  // Per partition: owning cell id.
  OwnedSpan<uint32_t> partition_cells_;
  // Per door, 2 slots: the cells of the door's two partitions (slot 0 the
  // smaller id; slot 1 kNone when both partitions share a cell) and the
  // door's local member index within each.
  OwnedSpan<uint32_t> door_cells_;
  OwnedSpan<uint32_t> door_locals_;
  // CSR member lists: cell c's members are members_[member_offsets_[c]..).
  OwnedSpan<uint64_t> member_offsets_;  // cell_count_ + 1
  OwnedSpan<DoorId> members_;
  // Escape radius per (cell, member), parallel to members_.
  OwnedSpan<double> escape_radii_;
  // CSR border-local lists per cell.
  OwnedSpan<uint64_t> cell_border_offsets_;  // cell_count_ + 1
  OwnedSpan<uint32_t> cell_border_locals_;
  // Dense per-cell blocks: cell c's |M_c| x |M_c| row-major block starts
  // at blocks_[block_offsets_[c]].
  OwnedSpan<uint64_t> block_offsets_;  // cell_count_ + 1
  OwnedSpan<double> blocks_;
  // Border clique: slot <-> door mapping and the |B| x |B| matrix.
  OwnedSpan<DoorId> border_doors_;      // ascending door id
  OwnedSpan<uint32_t> border_of_door_;  // door_count_, kNone if interior
  OwnedSpan<double> border_matrix_;
};

}  // namespace indoor

#endif  // INDOOR_CORE_INDEX_HIERARCHY_INDEX_H_
