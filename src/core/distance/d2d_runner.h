// The door-graph Dijkstra of Algorithm 1 (paper §III-D1), the one forward
// settle loop of the distance core. It pops doors from the bounded-weight
// bucket frontier (bucket_queue.h) and relaxes each settled door's CSR
// edge span with the SIMD batch kernels (util/simd.h): AddBase forms every
// candidate d + w, FilterImprovements keeps the lanes that beat dist[],
// and a scalar re-check applies them in edge order, so duplicate targets
// in one span resolve exactly as a scalar loop would. Md2d rows, the
// landmark forward rows, the pt2pt variants, distance fields, shortest
// paths, the hierarchy's builds and bounded runs, and DoorBall all call
// RunDoorDijkstra with two policies instead of inlining a copy:
//
//   OnSettle  bool(DoorId di, double d) — invoked at the settle point of
//             every door (after it is marked visited, before its edges
//             relax). Returning false stops the run immediately; this is
//             the generalization of the historical `if (di == target)
//             return d` early exit. Because Dijkstra settles doors in
//             final-distance order and the loop performs the identical
//             operation sequence up to the stop, every distance reported
//             to OnSettle is bit-identical to the value the full
//             (un-stopped) run would produce — the settle-prefix property
//             that the hierarchy's bitwise-equality contract builds on.
//
//   PushOk    bool(DoorId to, double cand) — consulted after an improving
//             candidate for door `to` is recorded in dist[] (and prev[]),
//             before it is pushed. Returning false skips the push, so the
//             door cannot settle through that candidate. With a MONOTONE
//             NON-INCREASING bound (a fixed radius, or fl(base + cand) >
//             best where best only shrinks), pruning is loss-free for
//             every door the caller observes via OnSettle: a suppressed
//             candidate is over the bound at push time and therefore
//             still over it at its would-be pop, where the matching
//             OnSettle stop condition would have ended the run without
//             processing it. Recording a pruned candidate in dist[]
//             changes no later push either: a later candidate for the
//             same door that it filters out is no smaller, so the same
//             monotone bound would prune that one too. CAUTION: with a
//             non-trivial PushOk, dist[] may hold a pruned candidate, so
//             consume distances through OnSettle, never from dist[];
//             visited[] still tells which doors settled. A GOAL-DIRECTED
//             prune (one that also reads a per-door potential, such as
//             the hierarchy pt2pt's fl(base + cand) + H(to) > cap) has no
//             matching OnSettle stop: a door whose shortest branch was cut
//             can still settle later, through another branch, at a larger
//             label. OnSettle is then exact only for doors whose whole
//             shortest branch survived, and the caller must argue which
//             values can reach its answer (hierarchy_distance.cc does so
//             at its prune).
//
// Seeds are (leg, door) pairs given as two parallel spans: a door is
// seeded at its leg only if the leg beats its current dist[] (an infinite
// leg never seeds, and a repeated door keeps its smallest leg). A single
// source is one seed at 0.0. Seeds bypass PushOk and write no prev[]
// entry.

#ifndef INDOOR_CORE_DISTANCE_D2D_RUNNER_H_
#define INDOOR_CORE_DISTANCE_D2D_RUNNER_H_

#include <span>
#include <utility>
#include <vector>

#include "core/distance/d2d_distance.h"
#include "core/distance/dijkstra_stats.h"
#include "util/metrics.h"
#include "util/simd.h"

namespace indoor {

/// Default OnSettle: never stops (full single-source run).
struct SettleAll {
  bool operator()(DoorId, double) const { return true; }
};

/// Default PushOk: accepts every improving relaxation (exact Algorithm 1).
struct AlwaysPush {
  bool operator()(DoorId, double) const { return true; }
};

/// Door Dijkstra from the seeds (seed_legs[i], seed_doors[i]) into
/// scratch->dist / scratch->visited, both sized to the door count, +inf and
/// 0 wherever the run wrote nothing; `prev_out` may be null. See the file
/// comment for the policy contracts.
template <typename OnSettle = SettleAll, typename PushOk = AlwaysPush>
void RunDoorDijkstra(const DistanceGraph& graph,
                     std::span<const DoorId> seed_doors,
                     std::span<const double> seed_legs,
                     DoorDijkstraScratch* scratch,
                     std::vector<PrevEntry>* prev_out,
                     OnSettle&& on_settle = {}, PushOk&& push_ok = {}) {
  const size_t n = graph.plan().door_count();
  INDOOR_CHECK(seed_doors.size() == seed_legs.size());

  // Reset what the previous run wrote, or everything when the arrays are
  // not sized to this graph (first use, another plan, dist moved out).
  std::vector<double>& dist = scratch->dist;
  std::vector<char>& visited = scratch->visited;
  std::vector<DoorId>& touched = scratch->touched;
  if (dist.size() == n && visited.size() == n) {
    for (const DoorId door : touched) {
      dist[door] = kInfDistance;
      visited[door] = 0;
    }
  } else {
    dist.assign(n, kInfDistance);
    visited.assign(n, 0);
    touched.reserve(n);
  }
  touched.clear();
  if (prev_out != nullptr) prev_out->assign(n, PrevEntry{});
  scratch->relax_cand.resize(graph.max_door_out_degree());
  scratch->relax_idx.resize(graph.max_door_out_degree());
  double* const cand = scratch->relax_cand.data();
  uint32_t* const idx = scratch->relax_idx.data();

  BucketQueue& queue = scratch->bucket;
  queue.Prepare(graph.max_door_edge_weight());
  for (size_t i = 0; i < seed_doors.size(); ++i) {
    const DoorId door = seed_doors[i];
    INDOOR_CHECK(door < n);
    if (seed_legs[i] < dist[door]) {
      if (dist[door] == kInfDistance) touched.push_back(door);
      dist[door] = seed_legs[i];
      queue.push({seed_legs[i], door});
    }
  }

  INDOOR_METRICS_ONLY(internal::DijkstraRunStats stats;)
  while (!queue.empty()) {
    const auto [d, di] = queue.top();
    queue.pop();
    if (visited[di]) continue;
    visited[di] = 1;
    INDOOR_METRICS_ONLY(++stats.settles;)
    if (!on_settle(di, d)) return;
    const std::span<const DoorGraphEdge> edges = graph.DoorEdges(di);
    const size_t m = edges.size();
    if (m == 0) continue;
    simd::AddBase(d, graph.DoorEdgeWeights(di), cand, m);
    const size_t improved = simd::FilterImprovements(
        cand, graph.DoorEdgeTargets(di), dist.data(), m, idx);
    for (size_t k = 0; k < improved; ++k) {
      const size_t i = idx[k];
      const DoorId to = edges[i].to;
      if (cand[i] < dist[to]) {  // re-check: duplicate targets in one span
        if (dist[to] == kInfDistance) touched.push_back(to);
        dist[to] = cand[i];
        if (prev_out != nullptr) (*prev_out)[to] = {edges[i].via, di};
        if (!push_ok(to, cand[i])) continue;
        queue.push({cand[i], to});
        INDOOR_METRICS_ONLY(++stats.relaxations;)
      }
    }
  }
}

/// Single-source run: door `source` is the one seed, at 0.0.
template <typename OnSettle = SettleAll, typename PushOk = AlwaysPush>
void RunDoorDijkstra(const DistanceGraph& graph, DoorId source,
                     DoorDijkstraScratch* scratch,
                     std::vector<PrevEntry>* prev_out,
                     OnSettle&& on_settle = {}, PushOk&& push_ok = {}) {
  const double zero = 0.0;
  RunDoorDijkstra(graph, std::span<const DoorId>(&source, 1),
                  std::span<const double>(&zero, 1), scratch, prev_out,
                  std::forward<OnSettle>(on_settle),
                  std::forward<PushOk>(push_ok));
}

}  // namespace indoor

#endif  // INDOOR_CORE_DISTANCE_D2D_RUNNER_H_
