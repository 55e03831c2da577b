// Door expansion for range and kNN (Algorithm 5 lines 3-20, Algorithm 6
// lines 4-19): from a source door, visit every door whose distance the
// caller accepts, with that exact distance. This module alone decides
// which engine expands doors; the queries supply the acceptance test and
// what to do with each door. Engines (EngineOf):
//  * kMidx: the Midx-ordered prefix of the source's Md2d row;
//  * kFullRow: the whole Md2d row (the paper's "without d2d index");
//  * kHierarchy: the source's cell block row or a bounded door Dijkstra.
//
// Contract (the callers rely on every point):
//  * Exact distances. Each visited d is bit-equal to the flat Md2d entry
//    (blocks and bounded runs are settle-prefix exact, hierarchy_index.h).
//  * Float expressions stay the caller's: the test sees the raw d and the
//    caller derives its side-search budget from d, so budgets keep their
//    bits. Range accepts !(d > r1) with r1 = r - leg (ExpandWithin's
//    test) and searches with r1 - d; kNN accepts
//    !(leg + d > collector.Bound()) and searches with leg + d. A test may
//    tighten as doors are visited, never loosen.
//  * Offer order. Midx and the hierarchy's ordered mode visit in
//    (distance, id) order and stop at the first rejected door; the full
//    row visits in ascending id and skips rejected doors. kNN depends on
//    it: KnnCollector breaks exact ties at its admission boundary by offer
//    order. Midx rows are sorted by (distance, id), the settle order of
//    RunDoorDijkstra (d2d_runner.h), so a run that tests before each
//    visit emits the Midx sequence; its push prune drops only doors the
//    scan would have stopped at or beyond, because the test never
//    loosens.
//  * Only ExpandWithin (range, whose result is a set: it merges the
//    visited doors into a side plan and emits its ids from a bitmap) may
//    take the unordered block-row path: with a static radius strictly
//    below the source's escape radius, every accepted door is a cell
//    member.
//  * Unreachable-door tail. Midx rows end with the unreachable doors at
//    +inf, ascending id. When an ordered run neither stopped nor pruned,
//    it visits the unvisited doors at +inf, ascending id, while the test
//    accepts +inf; a prune implies a test that rejects +inf.
//  * Static dispatch: templates and lambdas, no std::function, no virtual
//    call per door, no heap allocation (runs reuse the caller's scratch).
//  * Instruments: FlushStats adds index.md2d.row_fetches,
//    index.midx.row_fetches and index.scan.entries (flat engines),
//    index.hier.range.block_scans and index.hier.range.runs (ExpandWithin)
//    and index.hier.knn.runs (Expand). The serving benchmark's per-layer
//    metrics read these names and per-query counts, so both must hold. The
//    door_expansion span stays with the callers.
// A new engine is one more Engine value and one more branch here.

#ifndef INDOOR_CORE_QUERY_DOOR_BALL_H_
#define INDOOR_CORE_QUERY_DOOR_BALL_H_

#include <cstdint>
#include <vector>

#include "core/distance/d2d_runner.h"
#include "core/index/index_framework.h"
#include "util/metrics.h"

namespace indoor {

/// "The doors within a budget of a source door, with exact distance" over
/// one IndexFramework; one instance per query miss (file comment).
class DoorBall {
 public:
  /// Door-expansion engines; the values also key cached results apart
  /// (range uses kind 2 * engine, kNN 2 * engine + 1).
  enum class Engine : uint8_t { kMidx = 0, kFullRow = 1, kHierarchy = 2 };

  /// The engine a query over `index` expands doors with.
  static Engine EngineOf(const IndexFramework& index, bool use_index_matrix) {
    if (!index.has_flat_matrix()) return Engine::kHierarchy;
    return use_index_matrix ? Engine::kMidx : Engine::kFullRow;
  }

  /// `scratch` backs the hierarchy's bounded runs and must outlive *this.
  DoorBall(const IndexFramework& index, bool use_index_matrix,
           DoorDijkstraScratch* scratch)
      : graph_(&index.graph()),
        scratch_(scratch),
        n_(index.plan().door_count()),
        md2d_(index.has_flat_matrix() ? &index.d2d_matrix() : nullptr),
        midx_(EngineOf(index, use_index_matrix) == Engine::kMidx
                  ? &index.index_matrix()
                  : nullptr),
        hier_(md2d_ == nullptr ? &index.hierarchy_index() : nullptr) {}

  /// Ordered expansion: visit(dj, d) for every door with accept(d), in
  /// the engine's offer order, including the hierarchy's +inf tail.
  template <typename Accept, typename Visit>
  void Expand(DoorId src, const Accept& accept, const Visit& visit) {
    if (hier_ == nullptr) return Scan(src, accept, visit);
    INDOOR_METRICS_ONLY(++ordered_runs_;)
    Run(src, accept, visit);
  }

  /// Static-radius expansion: the doors with !(d > radius), in an
  /// engine-dependent order (the hierarchy may serve the block row).
  template <typename Visit>
  void ExpandWithin(DoorId src, double radius, const Visit& visit) {
    const auto accept = [radius](double d) { return !(d > radius); };
    if (hier_ == nullptr) return Scan(src, accept, visit);
    const auto cells = hier_->CellsOfDoor(src);
    const uint32_t local = hier_->LocalIndex(cells[0], src);
    if (cells[1] == HierarchyIndex::kNone &&
        radius < hier_->EscapeRadius(cells[0], local)) {
      INDOOR_METRICS_ONLY(++block_scans_;)
      const double* brow = hier_->BlockRow(cells[0], local);
      const auto members = hier_->CellMembers(cells[0]);
      for (size_t j = 0; j < members.size(); ++j) {
        if (accept(brow[j])) visit(members[j], brow[j]);
      }
      return;
    }
    INDOOR_METRICS_ONLY(++within_runs_;)
    Run(src, accept, visit);
  }

  /// Adds this query's expansion counts to the counters named above.
  void FlushStats() const {
    INDOOR_METRICS_ONLY(if (hier_ == nullptr) {
      INDOOR_COUNTER_ADD("index.md2d.row_fetches", md2d_rows_);
      INDOOR_COUNTER_ADD("index.midx.row_fetches", midx_rows_);
      INDOOR_COUNTER_ADD("index.scan.entries", entries_);
    } else {
      INDOOR_COUNTER_ADD("index.hier.range.block_scans", block_scans_);
      INDOOR_COUNTER_ADD("index.hier.range.runs", within_runs_);
      INDOOR_COUNTER_ADD("index.hier.knn.runs", ordered_runs_);
    })
  }

 private:
  /// The flat engines: the Midx-ordered row prefix, or the whole row.
  template <typename Accept, typename Visit>
  void Scan(DoorId src, const Accept& accept, const Visit& visit) {
    const double* row = md2d_->Row(src);
    INDOOR_METRICS_ONLY(++md2d_rows_;)
    if (midx_ == nullptr) {
      INDOOR_METRICS_ONLY(entries_ += n_;)
      for (DoorId dj = 0; dj < n_; ++dj) {
        if (accept(row[dj])) visit(dj, row[dj]);
      }
      return;
    }
    const DoorId* order = midx_->Row(src);
    INDOOR_METRICS_ONLY(++midx_rows_;)
    for (size_t j = 0; j < n_; ++j) {
      const DoorId dj = order[j];
      INDOOR_METRICS_ONLY(++entries_;)
      if (!accept(row[dj])) break;  // nearest-first: nothing further
      visit(dj, row[dj]);
    }
  }

  /// The hierarchy's ordered mode: a bounded door Dijkstra testing before
  /// each visit and pruning rejected pushes, then the +inf tail.
  template <typename Accept, typename Visit>
  void Run(DoorId src, const Accept& accept, const Visit& visit) {
    bool cut = false;  // stopped at a rejected door or pruned a push
    RunDoorDijkstra(
        *graph_, src, scratch_, nullptr,
        [&](DoorId dj, double d) {
          if (!accept(d)) {
            cut = true;
            return false;
          }
          visit(dj, d);
          return true;
        },
        [&](DoorId, double cand) {
          if (accept(cand)) return true;
          cut = true;
          return false;
        });
    if (cut) return;
    const std::vector<char>& visited = scratch_->visited;
    for (DoorId dj = 0; dj < n_; ++dj) {
      if (visited[dj]) continue;
      if (!accept(kInfDistance)) break;
      visit(dj, kInfDistance);
    }
  }

  const DistanceGraph* graph_;
  DoorDijkstraScratch* scratch_;
  size_t n_;
  const DistanceMatrix* md2d_;      // flat engines
  const DistanceIndexMatrix* midx_;  // kMidx
  const HierarchyIndex* hier_;      // kHierarchy
  INDOOR_METRICS_ONLY(uint64_t md2d_rows_ = 0; uint64_t midx_rows_ = 0;
                      uint64_t entries_ = 0; uint64_t block_scans_ = 0;
                      uint64_t within_runs_ = 0; uint64_t ordered_runs_ = 0;)
};

}  // namespace indoor

#endif  // INDOOR_CORE_QUERY_DOOR_BALL_H_
