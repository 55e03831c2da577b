// Algorithm 1 (paper §III-D1): door-to-door minimum walking distance.
//
// A Dijkstra-style expansion over DOORS (not partitions): popping door di,
// the search enters each enterable partition v of di and relaxes every
// leaveable door dj of v with weight fd2d(v, di, dj). The paper's pseudocode
// enheaps all doors up front and uses decrease-key; we use the standard
// lazy-insertion equivalent (re-push on improvement, skip settled pops),
// which visits each door at most once, as the paper requires.
//
// The loop itself is RunDoorDijkstra (d2d_runner.h): a bounded-weight
// bucket frontier (bucket_queue.h) whose relaxations run through the SIMD
// span filter (util/simd.h). It settles doors in (distance, id) order, the
// order a binary heap would give, and every distance it reports is bitwise
// equal to the reference oracle's (core/query/reference_impls.h).

#ifndef INDOOR_CORE_DISTANCE_D2D_DISTANCE_H_
#define INDOOR_CORE_DISTANCE_D2D_DISTANCE_H_

#include <vector>

#include "core/distance/bucket_queue.h"
#include "core/model/distance_graph.h"

namespace indoor {

/// prev[dj] = (v, di): door dj was reached from door di through partition v
/// (paper's prev[.] array). Both fields are kInvalidId for the source and
/// for unreached doors.
struct PrevEntry {
  PartitionId partition = kInvalidId;
  DoorId door = kInvalidId;
};

/// Reusable door-level Dijkstra state (dist/visited arrays sized to the
/// door count, the frontier, and the SIMD relaxation staging buffers).
/// Owned by exactly one thread at a time; buffers keep their capacity
/// across queries, so steady-state door expansions perform no heap
/// allocations (see QueryScratch).
struct DoorDijkstraScratch {
  std::vector<double> dist;
  std::vector<char> visited;
  /// The doors whose dist[] the last run wrote (visited[] is set only at
  /// such doors); the next run resets just these when the arrays are
  /// already sized to its door count.
  std::vector<DoorId> touched;
  BucketQueue bucket;
  /// Per-span candidate distances / improved-lane indices for the SIMD
  /// batch relaxation (sized to the graph's max out-degree on first use).
  std::vector<double> relax_cand;
  std::vector<uint32_t> relax_idx;
};

/// d2dDistance(ds, dt): minimum indoor walking distance from door `ds` to
/// door `dt`; kInfDistance when unreachable. A null `scratch` uses the
/// calling thread's buffers.
double D2dDistance(const DistanceGraph& graph, DoorId ds, DoorId dt,
                   DoorDijkstraScratch* scratch = nullptr);

/// As above, also filling `prev` (size = door count) for path
/// reconstruction (D2dShortestPath, shortest_path.h).
double D2dDistance(const DistanceGraph& graph, DoorId ds, DoorId dt,
                   std::vector<PrevEntry>* prev);

/// Single-source variant: shortest distances from `ds` to every door
/// (kInfDistance where unreachable). Backs distance-matrix construction
/// (paper §IV-A). `prev` may be null.
void D2dDistancesFrom(const DistanceGraph& graph, DoorId ds,
                      std::vector<double>* dist, std::vector<PrevEntry>* prev);

/// The calling thread's fallback DoorDijkstraScratch.
DoorDijkstraScratch& TlsDoorDijkstraScratch();

}  // namespace indoor

#endif  // INDOOR_CORE_DISTANCE_D2D_DISTANCE_H_
