// Obstructed intra-partition distances via a visibility graph.
//
// The paper's model accommodates obstacles inside partitions (paper §III-C1:
// "||di, dj||vk is not necessarily a Euclidean distance because there may be
// entities in the line of sight", Fig. 5) but defers the local computation to
// prior work [21]. This module supplies that substrate: a free-space region
// (partition footprint minus polygonal obstacles) with exact shortest
// obstructed paths computed on the visibility graph spanned by obstacle and
// reflex boundary vertices.
//
// The static graph is stored in CSR form (flat offsets[] + edges[] arrays)
// and every solver can run out of a caller-provided GeodesicScratch, so the
// query hot path (pt2pt legs, grid-bucket searches) performs no per-call
// heap allocations. DistancesToMany settles every target of one source in a
// single Dijkstra pass — the one-to-many primitive that replaces the
// per-door ObstructedRegion::Distance loops of Algorithm 2/3/4.
//
// DistancesToMany also has an exact rectangle fast path. When the footprint
// is an axis-aligned rectangle (every footprint the generators emit), the
// wall half of Visible() cannot fail for two points of its closed bounding
// box, so the batched kernel runs only the obstacle half there: no test at
// all in an obstacle-free room. It applies to the direct pass over the
// targets, the source seeding and the blocked-target scan; the proof is at
// the predicate in the .cc. Distance(), Solve() and Visible() keep the full
// test: the reference implementations run on them.

#ifndef INDOOR_GEOMETRY_VISIBILITY_GRAPH_H_
#define INDOOR_GEOMETRY_VISIBILITY_GRAPH_H_

#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "geometry/polygon.h"
#include "util/min_heap.h"
#include "util/result.h"

namespace indoor {

/// Distance value used for "unreachable".
inline constexpr double kInfDistance =
    std::numeric_limits<double>::infinity();

/// Reusable solver state for ObstructedRegion queries.
///
/// Ownership/threading contract: a GeodesicScratch belongs to exactly one
/// thread at a time — solvers write freely into its buffers and the buffers
/// survive (with their capacity) across calls, which is what makes the
/// steady-state query path allocation-free. It holds no pointers into any
/// region except the source-solve cache below, which is revalidated against
/// the region's address and the exact source coordinates on every use and
/// can always be dropped with InvalidateSource().
struct GeodesicScratch {
  std::vector<double> dist;
  std::vector<int> prev;
  std::vector<char> settled;
  MinHeap<std::pair<double, int>> heap;
  std::vector<size_t> pending;  // target indices not directly visible

  /// Staging buffers for batched callers (DistVMany, bucket searches):
  /// gather targets into `points`, receive results in `values`, remember
  /// output slots in `slots`. The solvers themselves never touch these,
  /// but a caller must not keep staged data across a nested call that
  /// also stages into the same scratch.
  std::vector<Point> points;
  std::vector<double> values;
  std::vector<size_t> slots;

  /// Single-source solve cache: when DistancesToMany is called repeatedly
  /// with the same region and source (e.g. once per grid cell during one
  /// bucket search), the Dijkstra pass runs once and is reused. The cache
  /// is only trusted while `source_ready` is set AND the region address and
  /// source coordinates match bit-for-bit.
  const void* source_region = nullptr;
  double source_x = 0.0, source_y = 0.0;
  bool source_ready = false;

  void InvalidateSource() {
    source_ready = false;
    source_region = nullptr;
  }
};

/// A partition footprint with zero or more polygonal obstacles, supporting
/// exact shortest obstructed paths between interior points.
class ObstructedRegion {
 public:
  /// Validates that every obstacle lies inside the outer footprint and that
  /// obstacles do not overlap each other.
  static Result<ObstructedRegion> Create(Polygon outer,
                                         std::vector<Polygon> obstacles);

  /// Obstacle-free region.
  static ObstructedRegion FromPolygon(Polygon outer);

  const Polygon& outer() const { return outer_; }
  const std::vector<Polygon>& obstacles() const { return obstacles_; }
  bool HasObstacles() const { return !obstacles_.empty(); }

  /// Free-space membership: inside the outer ring (closed) and not strictly
  /// inside any obstacle.
  bool Contains(const Point& p) const;

  /// True if the segment a-b stays within free space (may graze boundaries).
  bool Visible(const Point& a, const Point& b) const;

  /// Shortest obstructed distance between two free-space points;
  /// kInfDistance if disconnected. Without obstacles and with a convex
  /// footprint this is the Euclidean distance. A null `scratch` falls back
  /// to a per-thread scratch (still allocation-free in steady state).
  double Distance(const Point& a, const Point& b,
                  GeodesicScratch* scratch = nullptr) const;

  /// One-to-many: shortest obstructed distance from `p` to every target in
  /// one Dijkstra pass, written to out[0..targets.size()). Each out[i] is
  /// EXACTLY (bitwise) the value Distance(p, targets[i]) would return — the
  /// batched solver performs the same additions over the same edge weights,
  /// so callers may be migrated one at a time without numeric drift.
  void DistancesToMany(const Point& p, std::span<const Point> targets,
                       GeodesicScratch* scratch, double* out) const;

  /// Shortest obstructed path as a waypoint list (including endpoints);
  /// empty if disconnected.
  std::vector<Point> ShortestPath(const Point& a, const Point& b) const;

  /// Longest shortest-path distance from `p` to any point of the region.
  /// The geodesic distance field over a polygonal domain attains its maximum
  /// at a domain vertex, so this maximizes over outer + obstacle vertices.
  double MaxDistanceFrom(const Point& p) const;

  /// Static visibility-graph size (for diagnostics and tests).
  size_t node_count() const { return nodes_.size(); }

 private:
  ObstructedRegion() = default;

  /// The obstacle half of Visible(): no obstacle edge is properly crossed
  /// or grazed without free space beside it, and no probe point of a-b
  /// lies strictly inside an obstacle.
  bool ObstaclesClear(const Point& a, const Point& b) const;

  /// True if `p` lies in the closed bounding box of a fast-path rectangle
  /// (exact comparisons; NaN and infinities fail).
  bool InFastBox(const Point& p) const;

  /// Visible(a, b), running only the obstacle half when both endpoints lie
  /// in the fast-path box (the same verdict, see the predicate's proof).
  bool VisibleFrom(const Point& a, bool a_in_box, const Point& b,
                   bool b_in_box) const {
    return a_in_box && b_in_box ? ObstaclesClear(a, b) : Visible(a, b);
  }

  /// One CSR slot: static node `to` visible from the row's node at
  /// Euclidean distance `weight`.
  struct VisEdge {
    int to;
    double weight;
  };

  /// Builds node list (obstacle vertices + reflex outer vertices) and the
  /// static pairwise visibility adjacency in CSR form. Called once at
  /// Create time.
  void BuildStaticGraph();

  /// Runs Dijkstra from `a` to `b` over static nodes + the two endpoints.
  /// Fills `out_path` when non-null. Clobbers `scratch` (including the
  /// source-solve cache).
  double Solve(const Point& a, const Point& b, std::vector<Point>* out_path,
               GeodesicScratch* scratch) const;

  /// Ensures `scratch` holds the settled single-source Dijkstra solution
  /// from `p` over the static nodes (reusing a cached one when valid).
  void EnsureSourceSolve(const Point& p, GeodesicScratch* scratch) const;

  Polygon outer_;
  std::vector<Polygon> obstacles_;
  std::vector<Point> nodes_;  // static visibility-graph nodes
  // Static adjacency in CSR: neighbors of node i are
  // adj_edges_[adj_offsets_[i] .. adj_offsets_[i+1]), sorted by node index.
  std::vector<int> adj_offsets_;
  std::vector<VisEdge> adj_edges_;
  // The footprint is a fast-path rectangle and every static node lies in
  // its closed box (set once, in Create).
  bool fast_box_ = false;
};

/// The calling thread's fallback GeodesicScratch (used when a solver is
/// handed a null scratch).
GeodesicScratch& TlsGeodesicScratch();

}  // namespace indoor

#endif  // INDOOR_GEOMETRY_VISIBILITY_GRAPH_H_
