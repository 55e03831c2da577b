#include "core/index/hierarchy_index.h"

#include <algorithm>
#include <deque>
#include <numeric>
#include <utility>

#include "core/distance/d2d_runner.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace indoor {
namespace {

/// Partition clustering in two passes.
///
/// 1. Capped BFS over the partition-adjacency graph: scan seeds in id
///    order, claim partitions at enqueue time (so every cell is connected
///    and claims are unambiguous), stop growing a cell once it holds
///    `cell_target` partitions.
/// 2. Fold: the BFS leaves fragments behind, cells of at most 2
///    partitions (a room whose hallway a full cell already claimed). Each
///    fragment joins the adjacent cell of more than 2 partitions that
///    shares the most doors with it (on a tie, the smaller cell id), so
///    its doors stop being borders. A folded cell may exceed
///    `cell_target`. At targets 1 and 2 no cell has more than 2
///    partitions, so nothing folds. Cells are then renumbered densely in
///    the order of their lowest partition id.
///
/// Fully deterministic: adjacency lists follow door-id order, the queue
/// is FIFO and the fold reads only the BFS cells.
std::vector<uint32_t> ClusterPartitions(const FloorPlan& plan,
                                        unsigned cell_target,
                                        uint64_t* cell_count_out) {
  const size_t p = plan.partition_count();
  std::vector<std::vector<PartitionId>> adj(p);
  for (DoorId d = 0; d < plan.door_count(); ++d) {
    const auto [a, b] = plan.ConnectedPair(d);
    adj[a].push_back(b);
    adj[b].push_back(a);
  }

  std::vector<uint32_t> cell_of(p, HierarchyIndex::kNone);
  std::vector<unsigned> cell_size;
  std::deque<PartitionId> queue;
  for (PartitionId seed = 0; seed < p; ++seed) {
    if (cell_of[seed] != HierarchyIndex::kNone) continue;
    const uint32_t c = static_cast<uint32_t>(cell_size.size());
    cell_of[seed] = c;
    unsigned claimed = 1;
    queue.clear();
    queue.push_back(seed);
    while (!queue.empty() && claimed < cell_target) {
      const PartitionId v = queue.front();
      queue.pop_front();
      for (const PartitionId nb : adj[v]) {
        if (cell_of[nb] != HierarchyIndex::kNone) continue;
        cell_of[nb] = c;
        queue.push_back(nb);
        if (++claimed == cell_target) break;
      }
    }
    cell_size.push_back(claimed);
  }

  // One (fragment, larger cell) link per door between the two; sorted,
  // each fragment's links form runs of equal pairs in ascending order of
  // the larger cell, so the first longest run wins ties.
  constexpr unsigned kMaxFragment = 2;
  std::vector<std::pair<uint32_t, uint32_t>> links;
  for (DoorId d = 0; d < plan.door_count(); ++d) {
    const auto [a, b] = plan.ConnectedPair(d);
    const uint32_t ca = cell_of[a];
    const uint32_t cb = cell_of[b];
    if (cell_size[ca] <= kMaxFragment && cell_size[cb] > kMaxFragment) {
      links.emplace_back(ca, cb);
    } else if (cell_size[cb] <= kMaxFragment && cell_size[ca] > kMaxFragment) {
      links.emplace_back(cb, ca);
    }
  }
  std::sort(links.begin(), links.end());
  std::vector<uint32_t> folded_into(cell_size.size());
  std::iota(folded_into.begin(), folded_into.end(), 0u);
  std::vector<size_t> shared(cell_size.size(), 0);
  for (size_t i = 0; i < links.size();) {
    size_t j = i + 1;
    while (j < links.size() && links[j] == links[i]) ++j;
    const uint32_t fragment = links[i].first;
    if (j - i > shared[fragment]) {
      shared[fragment] = j - i;
      folded_into[fragment] = links[i].second;
    }
    i = j;
  }

  std::vector<uint32_t> renumbered(cell_size.size(), HierarchyIndex::kNone);
  uint32_t cells = 0;
  for (PartitionId v = 0; v < p; ++v) {
    uint32_t& c = renumbered[folded_into[cell_of[v]]];
    if (c == HierarchyIndex::kNone) c = cells++;
    cell_of[v] = c;
  }
  *cell_count_out = cells;
  return cell_of;
}

}  // namespace

HierarchyIndex HierarchyIndex::Build(const DistanceGraph& graph,
                                     unsigned threads, unsigned cell_target) {
  const FloorPlan& plan = graph.plan();
  const size_t n = plan.door_count();
  HierarchyIndex h;
  h.door_count_ = n;
  h.cell_target_ = std::max(1u, cell_target);
  if (n == 0) return h;

  std::vector<uint32_t> partition_cells =
      ClusterPartitions(plan, h.cell_target_, &h.cell_count_);
  const size_t nc = h.cell_count_;

  // Door memberships: a door joins the cell of each of its two partitions
  // (one membership when both share a cell; slot 0 = smaller cell id).
  std::vector<uint32_t> door_cells(2 * n, kNone);
  for (DoorId d = 0; d < n; ++d) {
    const auto [a, b] = plan.ConnectedPair(d);
    const uint32_t ca = partition_cells[a];
    const uint32_t cb = partition_cells[b];
    door_cells[2 * d] = std::min(ca, cb);
    if (ca != cb) door_cells[2 * d + 1] = std::max(ca, cb);
  }

  // CSR member lists (ascending door id per cell) + per-door local slots.
  std::vector<uint64_t> member_offsets(nc + 1, 0);
  for (DoorId d = 0; d < n; ++d) {
    ++member_offsets[door_cells[2 * d] + 1];
    if (door_cells[2 * d + 1] != kNone) ++member_offsets[door_cells[2 * d + 1] + 1];
  }
  for (size_t c = 0; c < nc; ++c) member_offsets[c + 1] += member_offsets[c];
  const size_t total_members = member_offsets[nc];
  std::vector<DoorId> members(total_members);
  std::vector<uint32_t> door_locals(2 * n, kNone);
  {
    std::vector<uint64_t> fill(member_offsets.begin(),
                               member_offsets.end() - 1);
    for (DoorId d = 0; d < n; ++d) {
      for (int slot = 0; slot < 2; ++slot) {
        const uint32_t c = door_cells[2 * d + slot];
        if (c == kNone) continue;
        door_locals[2 * d + slot] =
            static_cast<uint32_t>(fill[c] - member_offsets[c]);
        members[fill[c]++] = d;
      }
    }
  }
  // Stored now, so the row solves below map a settled door to its local
  // slot through LocalIndex.
  h.door_cells_ = OwnedSpan<uint32_t>::Own(std::move(door_cells));
  h.door_locals_ = OwnedSpan<uint32_t>::Own(std::move(door_locals));

  // Border doors (two distinct cells) in ascending id order.
  std::vector<DoorId> border_doors;
  std::vector<uint32_t> border_of_door(n, kNone);
  for (DoorId d = 0; d < n; ++d) {
    if (h.CellsOfDoor(d)[1] == kNone) continue;
    border_of_door[d] = static_cast<uint32_t>(border_doors.size());
    border_doors.push_back(d);
  }
  h.border_count_ = border_doors.size();
  const size_t nb = border_doors.size();

  // Per-cell border locals (ascending local index = ascending door id).
  std::vector<uint64_t> cell_border_offsets(nc + 1, 0);
  std::vector<uint32_t> cell_border_locals;
  for (size_t c = 0; c < nc; ++c) {
    const uint64_t begin = member_offsets[c];
    const uint64_t end = member_offsets[c + 1];
    for (uint64_t i = begin; i < end; ++i) {
      if (border_of_door[members[i]] != kNone) {
        cell_border_locals.push_back(static_cast<uint32_t>(i - begin));
      }
    }
    cell_border_offsets[c + 1] = cell_border_locals.size();
  }

  // Per-cell block offsets (|M_c|^2 doubles each).
  std::vector<uint64_t> block_offsets(nc + 1, 0);
  for (size_t c = 0; c < nc; ++c) {
    const uint64_t m = member_offsets[c + 1] - member_offsets[c];
    block_offsets[c + 1] = block_offsets[c] + m * m;
  }
  std::vector<double> blocks(block_offsets[nc], kInfDistance);

  // Block rows: one early-terminated FULL-GRAPH Dijkstra per (cell,
  // member). The run is the exact Md2d row solve stopped once every
  // member of the cell has settled, so each recorded distance is
  // bit-identical to the flat Md2d entry (settle-prefix property,
  // d2d_runner.h). Rows are independent -> parallel builds bit-identical.
  struct RowTask {
    uint32_t cell;
    uint32_t local;
  };
  std::vector<RowTask> tasks;
  tasks.reserve(total_members);
  for (size_t c = 0; c < nc; ++c) {
    const uint64_t m = member_offsets[c + 1] - member_offsets[c];
    for (uint64_t i = 0; i < m; ++i) {
      tasks.push_back({static_cast<uint32_t>(c), static_cast<uint32_t>(i)});
    }
  }
  ParallelFor(0, tasks.size(), threads, [&](size_t t) {
    const RowTask task = tasks[t];
    const uint32_t c = task.cell;
    const uint64_t begin = member_offsets[c];
    const size_t m = member_offsets[c + 1] - begin;
    const DoorId src = members[begin + task.local];
    double* const row = blocks.data() + block_offsets[c] +
                        static_cast<uint64_t>(task.local) * m;
    size_t remaining = m;
    DoorDijkstraScratch scratch;
    RunDoorDijkstra(graph, src, &scratch, nullptr,
                    [&](DoorId di, double d) {
                      const uint32_t local = h.LocalIndex(c, di);
                      if (local == kNone) return true;
                      row[local] = d;
                      return --remaining != 0;
                    });
  });

  // Escape radii: exact distance to the nearest border door of the cell,
  // read straight out of the finished blocks.
  std::vector<double> escape_radii(total_members, kInfDistance);
  for (size_t c = 0; c < nc; ++c) {
    const uint64_t begin = member_offsets[c];
    const size_t m = member_offsets[c + 1] - begin;
    const std::span<const uint32_t> borders(
        cell_border_locals.data() + cell_border_offsets[c],
        cell_border_offsets[c + 1] - cell_border_offsets[c]);
    for (size_t i = 0; i < m; ++i) {
      const double* row = blocks.data() + block_offsets[c] + i * m;
      double e = kInfDistance;
      for (const uint32_t bl : borders) e = std::min(e, row[bl]);
      escape_radii[begin + i] = e;
    }
  }

  // Border clique: one early-terminated full-graph Dijkstra per border
  // door, stopping when every border door has settled.
  std::vector<double> border_matrix(nb * nb, kInfDistance);
  ParallelFor(0, nb, threads, [&](size_t b) {
    const DoorId src = border_doors[b];
    double* const row = border_matrix.data() + b * nb;
    size_t remaining = nb;
    DoorDijkstraScratch scratch;
    RunDoorDijkstra(graph, src, &scratch, nullptr,
                    [&](DoorId di, double d) {
                      const uint32_t slot = border_of_door[di];
                      if (slot == kNone) return true;
                      row[slot] = d;
                      return --remaining != 0;
                    });
  });

  INDOOR_GAUGE_SET("index.hierarchy.cells", static_cast<double>(nc));
  INDOOR_GAUGE_SET("index.hierarchy.borders", static_cast<double>(nb));
  INDOOR_GAUGE_SET("index.hierarchy.block_entries",
                   static_cast<double>(block_offsets[nc]));

  h.partition_cells_ = OwnedSpan<uint32_t>::Own(std::move(partition_cells));
  h.member_offsets_ = OwnedSpan<uint64_t>::Own(std::move(member_offsets));
  h.members_ = OwnedSpan<DoorId>::Own(std::move(members));
  h.escape_radii_ = OwnedSpan<double>::Own(std::move(escape_radii));
  h.cell_border_offsets_ =
      OwnedSpan<uint64_t>::Own(std::move(cell_border_offsets));
  h.cell_border_locals_ =
      OwnedSpan<uint32_t>::Own(std::move(cell_border_locals));
  h.block_offsets_ = OwnedSpan<uint64_t>::Own(std::move(block_offsets));
  h.blocks_ = OwnedSpan<double>::Own(std::move(blocks));
  h.border_doors_ = OwnedSpan<DoorId>::Own(std::move(border_doors));
  h.border_of_door_ = OwnedSpan<uint32_t>::Own(std::move(border_of_door));
  h.border_matrix_ = OwnedSpan<double>::Own(std::move(border_matrix));
  return h;
}

HierarchyIndex HierarchyIndex::FromRaw(Raw raw) {
  HierarchyIndex h;
  h.door_count_ = raw.door_count;
  h.cell_count_ = raw.cell_count;
  h.border_count_ = raw.border_count;
  h.cell_target_ = raw.cell_target;
  const size_t n = raw.door_count;
  const size_t nc = raw.cell_count;
  const size_t nb = raw.border_count;
  INDOOR_CHECK(raw.door_cells.size() == 2 * n &&
               raw.door_locals.size() == 2 * n)
      << "hierarchy payload: door arrays mismatch";
  INDOOR_CHECK(raw.member_offsets.size() == nc + 1 &&
               raw.cell_border_offsets.size() == nc + 1 &&
               raw.block_offsets.size() == nc + 1)
      << "hierarchy payload: offset arrays mismatch";
  INDOOR_CHECK(raw.members.size() == raw.member_offsets[nc] &&
               raw.escape_radii.size() == raw.members.size())
      << "hierarchy payload: member arrays mismatch";
  INDOOR_CHECK(raw.cell_border_locals.size() == raw.cell_border_offsets[nc])
      << "hierarchy payload: border-local array mismatch";
  INDOOR_CHECK(raw.blocks.size() == raw.block_offsets[nc])
      << "hierarchy payload: block array mismatch";
  for (size_t c = 0; c < nc; ++c) {
    const uint64_t m = raw.member_offsets[c + 1] - raw.member_offsets[c];
    INDOOR_CHECK(raw.member_offsets[c + 1] >= raw.member_offsets[c] &&
                 raw.block_offsets[c + 1] ==
                     raw.block_offsets[c] + m * m &&
                 raw.cell_border_offsets[c + 1] >= raw.cell_border_offsets[c])
        << "hierarchy payload: cell " << c << " offsets corrupt";
  }
  INDOOR_CHECK(raw.border_doors.size() == nb &&
               raw.border_of_door.size() == n &&
               raw.border_matrix.size() == nb * nb)
      << "hierarchy payload: border arrays mismatch";
  h.partition_cells_ = std::move(raw.partition_cells);
  h.door_cells_ = std::move(raw.door_cells);
  h.door_locals_ = std::move(raw.door_locals);
  h.member_offsets_ = std::move(raw.member_offsets);
  h.members_ = std::move(raw.members);
  h.escape_radii_ = std::move(raw.escape_radii);
  h.cell_border_offsets_ = std::move(raw.cell_border_offsets);
  h.cell_border_locals_ = std::move(raw.cell_border_locals);
  h.block_offsets_ = std::move(raw.block_offsets);
  h.blocks_ = std::move(raw.blocks);
  h.border_doors_ = std::move(raw.border_doors);
  h.border_of_door_ = std::move(raw.border_of_door);
  h.border_matrix_ = std::move(raw.border_matrix);
  return h;
}

bool HierarchyIndex::TryExact(DoorId s, DoorId t, double* out) const {
  for (int slot = 0; slot < 2; ++slot) {
    const uint32_t c = door_cells_[2 * s + slot];
    if (c == kNone) continue;
    const uint32_t lt = LocalIndex(c, t);
    if (lt == kNone) continue;
    *out = BlockRow(c, door_locals_[2 * s + slot])[lt];
    return true;
  }
  return false;
}

size_t HierarchyIndex::MemoryBytes() const {
  return partition_cells_.PayloadBytes() + door_cells_.PayloadBytes() +
         door_locals_.PayloadBytes() + member_offsets_.PayloadBytes() +
         members_.PayloadBytes() + escape_radii_.PayloadBytes() +
         cell_border_offsets_.PayloadBytes() +
         cell_border_locals_.PayloadBytes() + block_offsets_.PayloadBytes() +
         blocks_.PayloadBytes() + border_doors_.PayloadBytes() +
         border_of_door_.PayloadBytes() + border_matrix_.PayloadBytes();
}

}  // namespace indoor
