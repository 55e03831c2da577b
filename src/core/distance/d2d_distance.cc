#include "core/distance/d2d_distance.h"

#include <utility>

#include "core/distance/d2d_runner.h"

namespace indoor {
namespace {

// Algorithm 1's entry semantics over the runner (d2d_runner.h): stop at
// `target`'s settle and report its settle distance.
double RunD2d(const DistanceGraph& graph, DoorId ds, DoorId target,
              DoorDijkstraScratch* scratch, std::vector<PrevEntry>* prev_out) {
  INDOOR_CHECK(target < graph.plan().door_count());
  double found = kInfDistance;
  RunDoorDijkstra(graph, ds, scratch, prev_out,
                  [target, &found](DoorId di, double d) {
                    if (di != target) return true;
                    found = d;
                    return false;
                  });
  return found;
}

}  // namespace

DoorDijkstraScratch& TlsDoorDijkstraScratch() {
  static thread_local DoorDijkstraScratch scratch;
  return scratch;
}

double D2dDistance(const DistanceGraph& graph, DoorId ds, DoorId dt,
                   DoorDijkstraScratch* scratch) {
  if (scratch == nullptr) scratch = &TlsDoorDijkstraScratch();
  return RunD2d(graph, ds, dt, scratch, nullptr);
}

double D2dDistance(const DistanceGraph& graph, DoorId ds, DoorId dt,
                   std::vector<PrevEntry>* prev) {
  return RunD2d(graph, ds, dt, &TlsDoorDijkstraScratch(), prev);
}

void D2dDistancesFrom(const DistanceGraph& graph, DoorId ds,
                      std::vector<double>* dist, std::vector<PrevEntry>* prev) {
  // Build-time callers (Md2d rows) run one call per worker; the Dijkstra
  // state is local so concurrent builds stay independent (and
  // bit-identical across thread counts).
  DoorDijkstraScratch scratch;
  RunDoorDijkstra(graph, ds, &scratch, prev);
  *dist = std::move(scratch.dist);
}

}  // namespace indoor
