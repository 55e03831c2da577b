// Per-run observability accumulator for the door-graph Dijkstra loop.
//
// Every forward door-level expansion in the library runs RunDoorDijkstra
// (d2d_runner.h), which counts its settles and edge relaxations in plain
// local fields and flushes them into the global counters
//
//   distance.dijkstra.runs / .settles / .relaxations
//
// exactly once, in the destructor — one pair of relaxed atomic adds per
// run instead of one per pop, which keeps the instrumented hot loop
// within the documented <2% overhead budget (docs/METRICS.md). The
// transposed-edge builders (ReverseDistanceField, the landmark backward
// rows) and the snapshot Dijkstra of temporal.cc emit no run stats.
//
// Instantiate only inside INDOOR_METRICS_ONLY(...) so the OFF build's
// loop carries no accumulator at all.

#ifndef INDOOR_CORE_DISTANCE_DIJKSTRA_STATS_H_
#define INDOOR_CORE_DISTANCE_DIJKSTRA_STATS_H_

#include <cstdint>

#include "util/metrics.h"
#include "util/query_log.h"

namespace indoor {
namespace internal {

/// Counts one Dijkstra run; flushes into the registry on destruction.
struct DijkstraRunStats {
  /// Doors settled (popped and finalized) this run.
  uint64_t settles = 0;
  /// Frontier pushes (tentative-distance improvements the run's PushOk
  /// policy admitted).
  uint64_t relaxations = 0;

  ~DijkstraRunStats() {
    INDOOR_COUNTER_INC("distance.dijkstra.runs");
    INDOOR_COUNTER_ADD("distance.dijkstra.settles", settles);
    INDOOR_COUNTER_ADD("distance.dijkstra.relaxations", relaxations);
    // Attribute this run's settles to the in-flight query's log record.
    qlog::AddSettles(settles);
  }
};

}  // namespace internal
}  // namespace indoor

#endif  // INDOOR_CORE_DISTANCE_DIJKSTRA_STATS_H_
