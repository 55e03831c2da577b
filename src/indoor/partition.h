// Indoor partitions: "a smallest piece of independent space that is
// connected to other partitions by one or more doors" (paper §III) — a room,
// a hallway, a staircase, or the special outdoor partition.

#ifndef INDOOR_INDOOR_PARTITION_H_
#define INDOOR_INDOOR_PARTITION_H_

#include <string>
#include <utility>

#include "geometry/visibility_graph.h"
#include "indoor/types.h"

namespace indoor {

/// Semantic kind of a partition.
enum class PartitionKind {
  kRoom,
  kHallway,
  /// A staircase flight modeled as a virtual room with two doors whose
  /// intra-partition distances carry the actual stair walking length
  /// (paper §VI-A: multi-floor buildings are flattened this way).
  kStaircase,
  /// All of outdoor space, regarded as one special partition (paper fn. 1).
  kOutdoor,
};

const char* PartitionKindName(PartitionKind kind);

/// A partition: footprint (possibly with obstacles), semantic kind, floor
/// number, and a metric scale.
///
/// `metric_scale` multiplies every intra-partition geometric distance. It is
/// 1 for ordinary partitions; for a flattened staircase flight it is
/// (actual walking length) / (flat footprint length between its doors), so
/// fd2d/fdv/distV all report walking distances consistently.
class Partition {
 public:
  Partition(PartitionId id, std::string name, PartitionKind kind,
            int floor, ObstructedRegion footprint, double metric_scale = 1.0)
      : id_(id),
        name_(std::move(name)),
        kind_(kind),
        floor_(floor),
        footprint_(std::move(footprint)),
        metric_scale_(metric_scale) {
    INDOOR_CHECK(metric_scale_ > 0.0) << "metric scale must be positive";
  }

  PartitionId id() const { return id_; }
  const std::string& name() const { return name_; }
  PartitionKind kind() const { return kind_; }
  int floor() const { return floor_; }
  double metric_scale() const { return metric_scale_; }
  const ObstructedRegion& footprint() const { return footprint_; }

  bool IsOutdoor() const { return kind_ == PartitionKind::kOutdoor; }

  /// Closed containment in the free space of the footprint.
  bool Contains(const Point& p) const { return footprint_.Contains(p); }

  /// Intra-partition walking distance between two points (obstructed where
  /// the partition has obstacles), scaled by metric_scale. A null `scratch`
  /// falls back to the calling thread's scratch.
  double IntraDistance(const Point& a, const Point& b,
                       GeodesicScratch* scratch = nullptr) const {
    const double d = footprint_.Distance(a, b, scratch);
    return d == kInfDistance ? kInfDistance : d * metric_scale_;
  }

  /// One-to-many IntraDistance: out[i] is EXACTLY the value
  /// IntraDistance(p, targets[i]) would return, but all targets share a
  /// single geodesic solve (see ObstructedRegion::DistancesToMany).
  void IntraDistancesToMany(const Point& p, std::span<const Point> targets,
                            GeodesicScratch* scratch, double* out) const {
    footprint_.DistancesToMany(p, targets, scratch, out);
    for (size_t i = 0; i < targets.size(); ++i) {
      if (out[i] != kInfDistance) out[i] *= metric_scale_;
    }
  }

  /// Many-to-one IntraDistance: out[i] is EXACTLY the value
  /// IntraDistance(sources[i], t) would return. Each source keeps the
  /// sources[i] -> t orientation (a one-target DistancesToMany each), so
  /// only the kernel's rectangle fast path is shared, not the solve.
  void IntraDistancesFromMany(std::span<const Point> sources, const Point& t,
                              GeodesicScratch* scratch, double* out) const {
    for (size_t i = 0; i < sources.size(); ++i) {
      footprint_.DistancesToMany(sources[i], {&t, 1}, scratch, out + i);
      if (out[i] != kInfDistance) out[i] *= metric_scale_;
    }
  }

  /// Longest intra-partition walking distance from `p` to any point of the
  /// partition; backs fdv (paper §III-C1 item 4).
  double MaxDistanceFrom(const Point& p) const {
    return footprint_.MaxDistanceFrom(p) * metric_scale_;
  }

 private:
  PartitionId id_;
  std::string name_;
  PartitionKind kind_;
  int floor_;
  ObstructedRegion footprint_;
  double metric_scale_;
};

}  // namespace indoor

#endif  // INDOOR_INDOOR_PARTITION_H_
