// Proximity analytics: the composite queries built on top of the paper's
// foundation — an indoor distance join (which visitor pairs are within
// whispering distance?), a time-sliced reachability report, and an index
// container for instant warm starts.
//
//   $ ./build/examples/proximity_analytics

#include <cstdio>
#include <filesystem>
#include <iostream>

#include "core/index/index_io.h"
#include "core/query/distance_join.h"
#include "core/query/temporal_query.h"
#include "gen/building_generator.h"
#include "gen/object_generator.h"
#include "util/timer.h"

using namespace indoor;

int main() {
  BuildingConfig config;
  config.floors = 2;
  config.rooms_per_floor = 14;
  config.room_to_room_doors = 0.4;  // some rooms interconnect directly
  config.seed = 2024;
  const FloorPlan plan = GenerateBuilding(config);

  // --- Index persistence: build and save once, map instantly after. ---
  const std::filesystem::path container =
      std::filesystem::temp_directory_path() / "proximity_analytics.idx";
  {
    WallTimer timer;
    const IndexFramework built(plan);
    const double build_ms = timer.ElapsedMillis();
    const Status st = SaveIndexContainer(built, container.string());
    if (!st.ok()) {
      std::cerr << "error: " << st << "\n";
      return 1;
    }
    std::printf("Built the index in %.1f ms and saved it (%.2f MB)\n",
                build_ms,
                std::filesystem::file_size(container) / (1024.0 * 1024.0));
  }
  WallTimer map_timer;
  auto artifacts = MapIndexContainer(plan, container.string());
  if (!artifacts.ok()) {
    std::cerr << "error: " << artifacts.status() << "\n";
    std::filesystem::remove(container);
    return 1;
  }
  IndexFramework index(plan, std::move(artifacts).value());
  std::printf("Warm start: mapped it back in %.1f ms (%zu doors, "
              "fingerprint verified)\n\n",
              map_timer.ElapsedMillis(), plan.door_count());

  // --- 80 tracked visitors. ---
  Rng rng(31);
  PopulateStore(GenerateObjects(plan, 80, &rng), &index.objects());

  // --- Distance join: pairs within 5 m walking distance. ---
  WallTimer join_timer;
  const auto pairs = DistanceJoin(index, 5.0);
  std::printf("Distance join (r=5 m): %zu close pairs among 80 visitors "
              "(%.1f ms)\n",
              pairs.size(), join_timer.ElapsedMillis());
  size_t shown = 0;
  for (const JoinPair& pair : pairs) {
    const auto& a = index.objects().object(pair.a);
    const auto& b = index.objects().object(pair.b);
    std::printf("  #%u and #%u: %.2f m apart (%s / %s)\n", pair.a, pair.b,
                pair.distance, plan.partition(a.partition).name().c_str(),
                plan.partition(b.partition).name().c_str());
    if (++shown == 6) {
      std::printf("  ...\n");
      break;
    }
  }

  // --- Time-sliced reachability: rooms lock outside business hours. ---
  DoorSchedule schedule(plan.door_count());
  for (const Door& door : plan.doors()) {
    // Room doors open 8:00-18:00; hallways/staircases always open.
    const auto [a, b] = plan.ConnectedPair(door.id());
    const bool touches_room =
        plan.partition(a).kind() == PartitionKind::kRoom ||
        plan.partition(b).kind() == PartitionKind::kRoom;
    if (touches_room) {
      schedule.SetOpenIntervals(door.id(), {{8 * 3600.0, 18 * 3600.0}});
    }
  }
  const Point lobby = plan.door(plan.door_count() - 1).Midpoint();
  for (double hour : {12.0, 22.0}) {
    const auto reachable =
        RangeQueryAtTime(index, schedule, hour * 3600.0, lobby, 1e6);
    std::printf("\nAt %02.0f:00, %zu of 80 visitors are reachable from the "
                "entrance", hour, reachable.size());
    const auto nearest =
        KnnQueryAtTime(index, schedule, hour * 3600.0, lobby, 1);
    if (!nearest.empty()) {
      std::printf("; nearest is #%u at %.1f m", nearest[0].id,
                  nearest[0].distance);
    }
    std::printf(".\n");
  }
  std::filesystem::remove(container);
  return 0;
}
