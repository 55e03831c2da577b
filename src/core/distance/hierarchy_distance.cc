#include "core/distance/hierarchy_distance.h"

#include <algorithm>

#include "core/distance/d2d_runner.h"
#include "core/distance/matrix_distance.h"
#include "core/distance/query_scratch.h"
#include "core/query/query_cache.h"
#include "util/metrics.h"
#include "util/query_log.h"

namespace indoor {
namespace {

/// Sentinel marking a (src, dest) pair whose exact d2d is still pending a
/// graph run; walking distances are non-negative, so -1 cannot collide.
constexpr double kPending = -1.0;

/// The two float margins of the search (see the proof at the prune in
/// SearchPendingPairs): the cap is scaled up by kUpperBoundSlack and H is
/// scaled down by kPotentialScale wherever it decides a skip or a prune.
constexpr double kUpperBoundSlack = 1.0 + 1e-9;
constexpr double kPotentialScale = 1.0 - 1e-9;

/// Pass 2 of both entry points: settles every pair still kPending in
/// scratch->d2d_cache (row-major, src_doors x dest_doors) by one bounded
/// door Dijkstra per source door, goal-directed by the potential toward
/// dest_doors (all members of cell `ct`), and lowers *best with each
/// settled total (leg1 + d) + leg2. Returns the number of runs.
uint64_t SearchPendingPairs(const DistanceGraph& graph,
                            const HierarchyIndex& hier, uint32_t ct,
                            std::span<const DoorId> src_doors,
                            std::span<const double> src_leg,
                            std::span<const DoorId> dest_doors,
                            std::span<const double> dest_leg,
                            QueryScratch* scratch, double* best_io) {
  const size_t nd = dest_doors.size();
  auto& d2d = scratch->d2d_cache;
  const auto pending_in_row = [&](size_t i) {
    size_t pending = 0;
    for (size_t j = 0; j < nd; ++j) {
      if (d2d[i * nd + j] == kPending && dest_leg[j] != kInfDistance) {
        ++pending;
      }
    }
    return pending;
  };
  HierarchyPotential potential(hier, ct, dest_doors, dest_leg,
                               &scratch->potential);

  // route = min_i(leg1_i + H(s_i)) over the source doors with pending
  // pairs: within rounding of the best total those pairs can give, so
  // kUpperBoundSlack * min(best, route) is at or above the final answer.
  // A door whose H is +inf reaches no destination and never runs.
  auto& order = scratch->potential.order;
  order.clear();
  double route = kInfDistance;
  for (size_t i = 0; i < src_doors.size(); ++i) {
    if (src_leg[i] == kInfDistance || pending_in_row(i) == 0) continue;
    const double key = src_leg[i] + potential.At(src_doors[i]);
    if (key == kInfDistance) continue;
    route = std::min(route, key);
    order.emplace_back(key, static_cast<uint32_t>(i));
  }
  // The most promising source first, so `best` tightens early.
  std::sort(order.begin(), order.end());
  double& best = *best_io;
  const auto cap = [&] { return kUpperBoundSlack * std::min(best, route); };

  uint64_t runs = 0;
  for (const auto& [key, i] : order) {
    const double leg1 = src_leg[i];
    // Totals through this door are >= leg1, so a row at or above the
    // running best (the flat loop's own skip) cannot lower the final min.
    if (leg1 >= best ||
        leg1 + kPotentialScale * potential.At(src_doors[i]) > cap()) {
      continue;
    }
    size_t remaining = pending_in_row(i);
    ++runs;
    RunDoorDijkstra(
        graph, src_doors[i], &scratch->door, nullptr,
        [&](DoorId di, double d) {
          // Doors settle in label order, so once fl(leg1 + d) passes the
          // cap or the running best no later settle can lower the min.
          const double through = leg1 + d;
          if (through > cap() || through >= best) return false;
          for (size_t j = 0; j < nd; ++j) {
            if (dest_doors[j] != di || d2d[i * nd + j] != kPending ||
                dest_leg[j] == kInfDistance) {
              continue;
            }
            // Only the pending status of this entry is read again. Its
            // value can be above Md2d when the prune below cut the
            // door's shortest branch; then its total only sits above the
            // pair's flat total and cannot undercut the answer.
            d2d[i * nd + j] = d;
            best = std::min(best, through + dest_leg[j]);
            --remaining;
          }
          return remaining != 0;
        },
        [&](DoorId to, double cand) {
          // THE PRUNE, and why it loses nothing. Let T be the flat
          // answer, reached by source s* and destination d* along the
          // float shortest-path branch s* -> d*. While best > T, every
          // door u on that branch keeps its push, so d* settles at the
          // exact Md2d[s*][d*] and best reaches T:
          //  * u's candidate is the exact Md2d[s*][u] (its branch parent
          //    settled at its exact label, by induction from the seed),
          //    and fl(leg1 + cand) <= T < best;
          //  * fl(leg1 + cand) + H(u) is at most a left fold of K + 4
          //    non-negative doubles for the real walk leg1 -> u -> d* ->
          //    leg2 (H is a min over compositions, each stored piece a
          //    float Dijkstra min over walks; K, the walk's edge count,
          //    is below the door count). With g = (K + 4) * 2^-53 and R
          //    the walk's real length it is <= (1 + g) R, while
          //    T >= (1 - g) R and route >= (1 - g) / (1 + g) * T;
          //  * so the test below holds while (1 + g)^2 / (1 - g)^2 <=
          //    kUpperBoundSlack, i.e. for any plan under ~10^6 doors, and
          //    kPotentialScale takes another 1e-9 off the H term.
          // An infinite H fails the test: the cap is finite once a run
          // starts (route < inf). A door off that branch may be pruned and
          // settle later at a larger label (dist[] keeps the pruned
          // candidate; a later, no smaller candidate for the door is
          // pruned too, as H(to) is fixed and the cap only falls), which
          // only raises the totals through it. Once best == T, nothing
          // pruned can matter.
          const double through = leg1 + cand;
          return through < best &&
                 through + kPotentialScale * potential.At(to) <= cap();
        });
  }
  return runs;
}

}  // namespace

HierarchyPotential::HierarchyPotential(const HierarchyIndex& hier,
                                       uint32_t ct,
                                       std::span<const DoorId> dest_doors,
                                       std::span<const double> dest_leg,
                                       PotentialScratch* scratch)
    : hier_(hier), ct_(ct), s_(*scratch) {
  INDOOR_CHECK(dest_doors.size() == dest_leg.size());
  if (++s_.generation == 0) {  // wrapped: clear every stale stamp
    std::fill(s_.cell_stamp.begin(), s_.cell_stamp.end(), 0);
    s_.generation = 1;
  }
  s_.cell_g.resize(hier.CellBorderLocalsFlat().size());
  s_.cell_stamp.resize(hier.cell_count());
  s_.dest_locals.clear();
  s_.dest_legs.clear();
  for (size_t j = 0; j < dest_doors.size(); ++j) {
    if (dest_leg[j] == kInfDistance) continue;
    const uint32_t local = hier.LocalIndex(ct, dest_doors[j]);
    INDOOR_CHECK(local != HierarchyIndex::kNone)
        << "destination door " << dest_doors[j] << " is not in cell " << ct;
    s_.dest_locals.push_back(local);
    s_.dest_legs.push_back(dest_leg[j]);
  }
  s_.target_slots.clear();
  s_.target_h.clear();
  const std::span<const DoorId> members = hier.CellMembers(ct);
  for (const uint32_t bl : hier.CellBorderLocals(ct)) {
    s_.target_slots.push_back(hier.BorderIndexOf(members[bl]));
    s_.target_h.push_back(TargetH(bl));
  }
}

double HierarchyPotential::MinPlus(const double* row,
                                   std::span<const uint32_t> cols,
                                   const double* add) {
  double m[4] = {kInfDistance, kInfDistance, kInfDistance, kInfDistance};
  size_t k = 0;
  for (; k + 4 <= cols.size(); k += 4) {
    for (size_t u = 0; u < 4; ++u) {
      m[u] = std::min(m[u], row[cols[k + u]] + add[k + u]);
    }
  }
  for (; k < cols.size(); ++k) m[0] = std::min(m[0], row[cols[k]] + add[k]);
  return std::min(std::min(m[0], m[1]), std::min(m[2], m[3]));
}

double HierarchyPotential::TargetH(uint32_t local) const {
  return MinPlus(hier_.BlockRow(ct_, local), s_.dest_locals,
                 s_.dest_legs.data());
}

const double* HierarchyPotential::CellG(uint32_t c) {
  const std::span<const uint32_t> borders = hier_.CellBorderLocals(c);
  double* g = s_.cell_g.data() +
              (borders.data() - hier_.CellBorderLocalsFlat().data());
  if (s_.cell_stamp[c] == s_.generation) return g;
  const std::span<const DoorId> members = hier_.CellMembers(c);
  for (size_t k = 0; k < borders.size(); ++k) {
    const DoorId b = members[borders[k]];
    const uint32_t local = hier_.LocalIndex(ct_, b);
    g[k] = local != HierarchyIndex::kNone
               ? TargetH(local)
               : MinPlus(hier_.BorderRow(hier_.BorderIndexOf(b)),
                         s_.target_slots, s_.target_h.data());
  }
  s_.cell_stamp[c] = s_.generation;
  return g;
}

double HierarchyPotential::At(DoorId v) {
  double h = kInfDistance;
  for (const uint32_t c : hier_.CellsOfDoor(v)) {
    if (c == HierarchyIndex::kNone) continue;
    const uint32_t local = hier_.LocalIndex(c, v);
    h = std::min(h, c == ct_ ? TargetH(local)
                             : MinPlus(hier_.BlockRow(c, local),
                                       hier_.CellBorderLocals(c), CellG(c)));
  }
  return h;
}

double Pt2PtDistanceHierarchy(const FloorPlan& plan, const DistanceGraph& graph,
                              const HierarchyIndex& hier, PartitionId vs,
                              const Point& ps, PartitionId vt, const Point& pt,
                              QueryScratch* scratch, const QueryCache* cache) {
  INDOOR_LATENCY_SPAN("pt2pt_hier", "query.pt2pt_hier.latency_ns");
  qlog::QueryLogScope qscope(qlog::RecordKind::kDistance, ps.x, ps.y, pt.x,
                             pt.y, 0.0, 0, scratch != nullptr);
  qscope.SetHost(vs);
  INDOOR_CHECK(hier.door_count() == plan.door_count())
      << "hierarchy was built for a different plan";
  scratch = &ResolveQueryScratch(scratch);
  const ScratchDecayGuard decay_guard(scratch);
  double best = Pt2PtLegs(plan, vs, ps, vt, pt, scratch, cache);
  const auto& src_doors = plan.LeaveDoors(vs);
  const auto& dest_doors = plan.EnterDoors(vt);
  const auto& src_leg = scratch->src_leg;
  const auto& dest_leg = scratch->dst_leg;

  // Pass 1: shared-cell pairs straight from the blocks (each d bit-equal
  // to Md2d, each total the same (leg1 + d) + leg2 left-fold as the flat
  // loop, and the final min over the pair multiset is order-independent).
  // Cross-cell pairs stay pending for pass 2.
  const size_t ns = src_doors.size();
  const size_t nd = dest_doors.size();
  auto& d2d = scratch->d2d_cache;
  d2d.assign(ns * nd, kPending);
  size_t total_pending = 0;
  INDOOR_METRICS_ONLY(uint64_t block_pairs = 0;)
  for (size_t i = 0; i < ns; ++i) {
    const double leg1 = src_leg[i];
    if (leg1 == kInfDistance) continue;
    for (size_t j = 0; j < nd; ++j) {
      if (dest_leg[j] == kInfDistance) continue;
      double dex;
      if (!hier.TryExact(src_doors[i], dest_doors[j], &dex)) {
        ++total_pending;
        continue;
      }
      d2d[i * nd + j] = dex;
      INDOOR_METRICS_ONLY(++block_pairs;)
      if (dex != kInfDistance) best = std::min(best, leg1 + dex + dest_leg[j]);
    }
  }
  INDOOR_METRICS_ONLY(
      INDOOR_COUNTER_ADD("index.hier.pt2pt.block_pairs", block_pairs);)

  // Pass 2: the goal-directed bounded runs. Every destination door enters
  // vt, so all are members of vt's cell.
  if (total_pending > 0) {
    [[maybe_unused]] const uint64_t runs =
        SearchPendingPairs(graph, hier, hier.CellOfPartition(vt), src_doors,
                           src_leg, dest_doors, dest_leg, scratch, &best);
    INDOOR_COUNTER_ADD("index.hier.pt2pt.runs", runs);
  }
  qscope.SetResult(best < kInfDistance ? 1u : 0u, best);
  return best;
}

double Pt2PtDistanceHierarchy(const PartitionLocator& locator,
                              const DistanceGraph& graph,
                              const HierarchyIndex& hier, const Point& ps,
                              const Point& pt, QueryScratch* scratch,
                              const QueryCache* cache) {
  const auto vs = CachedHostPartition(cache, locator, ps);
  const auto vt = CachedHostPartition(cache, locator, pt);
  if (!vs.ok() || !vt.ok()) return kInfDistance;
  return Pt2PtDistanceHierarchy(locator.plan(), graph, hier, vs.value(), ps,
                                vt.value(), pt, scratch, cache);
}

double HierarchyDoorDistance(const DistanceGraph& graph,
                             const HierarchyIndex& hier, DoorId s, DoorId t,
                             QueryScratch* scratch) {
  INDOOR_CHECK(s < hier.door_count() && t < hier.door_count());
  double out;
  if (hier.TryExact(s, t, &out)) return out;
  scratch = &ResolveQueryScratch(scratch);
  // One pending pair at legs 0: its total (0 + d) + 0 is d itself.
  const double zero = 0.0;
  scratch->d2d_cache.assign(1, kPending);
  double best = kInfDistance;
  [[maybe_unused]] const uint64_t runs = SearchPendingPairs(
      graph, hier, hier.CellsOfDoor(t)[0], {&s, 1}, {&zero, 1}, {&t, 1},
      {&zero, 1}, scratch, &best);
  INDOOR_COUNTER_ADD("index.hier.d2d.runs", runs);
  return best;
}

}  // namespace indoor
