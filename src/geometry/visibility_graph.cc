#include "geometry/visibility_graph.h"

#include <algorithm>

namespace indoor {
namespace {

/// A point strictly inside any obstacle blocks free space.
bool StrictlyInsideAnyObstacle(const std::vector<Polygon>& obstacles,
                               const Point& p) {
  for (const Polygon& obs : obstacles) {
    if (obs.ContainsStrict(p)) return true;
  }
  return false;
}

/// Largest coordinate magnitude of a fast-path rectangle (2^19 m).
constexpr double kFastBoxLimit = 524288.0;

/// Closed-box membership by exact comparisons; NaN and infinities fail.
bool InClosedBox(const Rect& box, const Point& p) {
  return p.x >= box.lo.x && p.x <= box.hi.x && p.y >= box.lo.y &&
         p.y <= box.hi.y;
}

/// The rectangle fast path's predicate: the ring is the boundary of its own
/// bounding box, counter-clockwise from box.lo, and the box lies within
/// [-2^19, 2^19]^2 (so each side is at most 2^20 m). For such a ring the
/// wall half of Visible(a, b) (no proper crossing of an outer edge, and
/// every probe point Lerp(a, b, t) inside outer) holds whenever a and b lie
/// in the closed box, compared exactly against BoundingBox():
///  - No wall is properly crossed. Each wall runs along its side of the box
///    with the box on its left. In the wall's Orient(), one product is
///    exactly zero (its zero edge component times a finite difference);
///    the other is the wall's length times a coordinate difference toward
///    the box, which is >= 0 for a point in the box. So both endpoints get
///    Sign >= 0, while SegmentsProperlyIntersect needs opposite signs. An
///    FMA contraction rounds the same one product, once.
///  - The probe points stay in the closed box. For t <= 0.75,
///    a + t * fl(b - a) lies between a and b even with every factor rounded
///    up by (1 + 2^-53), and rounding to nearest cannot leave an interval
///    whose ends are doubles.
///  - Polygon::Contains accepts every point of the closed box. Interior,
///    bottom and left points pass its ray cast: the vertical walls' x_at is
///    exact. Points on the top or right wall pass OnBoundary: there
///    DistancePointToSegment's projection misses the point by at most
///    5u * side + u * |coordinate| (u = 2^-53), about 6.4e-10 under the
///    magnitude bound, which is inside kGeomEps = 1e-9.
/// NaN, infinite and out-of-box endpoints fail the comparisons and take the
/// full Visible().
bool IsFastBoxRing(const Polygon& outer) {
  const Rect& box = outer.BoundingBox();
  if (!(box.lo.x >= -kFastBoxLimit && box.lo.y >= -kFastBoxLimit &&
        box.hi.x <= kFastBoxLimit && box.hi.y <= kFastBoxLimit &&
        box.lo.x < box.hi.x && box.lo.y < box.hi.y)) {
    return false;
  }
  const std::vector<Point>& ring = outer.vertices();
  if (ring.size() != 4) return false;
  const Point corners[4] = {box.lo, Point(box.hi.x, box.lo.y), box.hi,
                            Point(box.lo.x, box.hi.y)};
  const size_t start = static_cast<size_t>(
      std::find(ring.begin(), ring.end(), box.lo) - ring.begin());
  if (start == ring.size()) return false;
  for (size_t i = 0; i < 4; ++i) {
    if (ring[(start + i) % 4] != corners[i]) return false;
  }
  return true;
}

}  // namespace

GeodesicScratch& TlsGeodesicScratch() {
  static thread_local GeodesicScratch scratch;
  return scratch;
}

Result<ObstructedRegion> ObstructedRegion::Create(
    Polygon outer, std::vector<Polygon> obstacles) {
  for (size_t i = 0; i < obstacles.size(); ++i) {
    for (const Point& v : obstacles[i].vertices()) {
      if (!outer.Contains(v)) {
        return Status::InvalidArgument(
            "obstacle vertex lies outside the partition footprint");
      }
    }
    for (size_t j = i + 1; j < obstacles.size(); ++j) {
      // Overlap check: any vertex of one strictly inside the other, or any
      // proper edge crossing.
      for (const Point& v : obstacles[i].vertices()) {
        if (obstacles[j].ContainsStrict(v)) {
          return Status::InvalidArgument("obstacles overlap");
        }
      }
      for (const Point& v : obstacles[j].vertices()) {
        if (obstacles[i].ContainsStrict(v)) {
          return Status::InvalidArgument("obstacles overlap");
        }
      }
      for (size_t ei = 0; ei < obstacles[i].size(); ++ei) {
        for (size_t ej = 0; ej < obstacles[j].size(); ++ej) {
          if (SegmentsProperlyIntersect(obstacles[i].Edge(ei),
                                        obstacles[j].Edge(ej))) {
            return Status::InvalidArgument("obstacles overlap");
          }
        }
      }
    }
  }
  ObstructedRegion region;
  region.outer_ = std::move(outer);
  region.obstacles_ = std::move(obstacles);
  region.BuildStaticGraph();
  // The static nodes are seeding targets and scan sources, so the fast path
  // also needs them in the box (Create admits obstacle vertices up to
  // kGeomEps outside the footprint).
  const Rect& box = region.outer_.BoundingBox();
  region.fast_box_ =
      IsFastBoxRing(region.outer_) &&
      std::all_of(region.nodes_.begin(), region.nodes_.end(),
                  [&](const Point& node) { return InClosedBox(box, node); });
  return region;
}

ObstructedRegion ObstructedRegion::FromPolygon(Polygon outer) {
  auto result = Create(std::move(outer), {});
  INDOOR_CHECK(result.ok());
  return std::move(result).value();
}

bool ObstructedRegion::Contains(const Point& p) const {
  if (!outer_.Contains(p)) return false;
  return !StrictlyInsideAnyObstacle(obstacles_, p);
}

bool ObstructedRegion::ObstaclesClear(const Point& a, const Point& b) const {
  if (obstacles_.empty()) return true;
  const Segment seg(a, b);
  // Blocked by a proper crossing of any obstacle edge. Grazing along an
  // obstacle edge (collinear overlap) is allowed only when free space
  // remains on at least one side of the grazed stretch; an obstacle flush
  // against a wall leaves no walkable corridor.
  for (const Polygon& obs : obstacles_) {
    if (!obs.BoundingBox().Intersects(
            Rect(Point(std::min(a.x, b.x), std::min(a.y, b.y)),
                 Point(std::max(a.x, b.x), std::max(a.y, b.y))))) {
      continue;
    }
    for (size_t i = 0; i < obs.size(); ++i) {
      const Segment edge = obs.Edge(i);
      if (SegmentsProperlyIntersect(seg, edge)) return false;
      if (SegmentsCollinearOverlap(seg, edge)) {
        // Midpoint of the overlapped stretch, offset to both sides.
        const Point dir = edge.b - edge.a;
        const double len2 = Dot(dir, dir);
        auto t_of = [&](const Point& p) {
          return std::clamp(Dot(p - edge.a, dir) / len2, 0.0, 1.0);
        };
        const double t0 = t_of(a);
        const double t1 = t_of(b);
        const Point m = Lerp(edge.a, edge.b, (t0 + t1) * 0.5);
        const double len = std::sqrt(len2);
        const Point normal(-dir.y / len * 1e-6, dir.x / len * 1e-6);
        if (!Contains(m + normal) && !Contains(m - normal)) return false;
      }
    }
  }
  // Proper crossings absorbed; reject segments whose interior dips into an
  // obstacle via its vertices (no proper crossing).
  for (double t : {0.25, 0.5, 0.75}) {
    if (StrictlyInsideAnyObstacle(obstacles_, Lerp(a, b, t))) return false;
  }
  return true;
}

bool ObstructedRegion::InFastBox(const Point& p) const {
  return fast_box_ && InClosedBox(outer_.BoundingBox(), p);
}

bool ObstructedRegion::Visible(const Point& a, const Point& b) const {
  if (!ObstaclesClear(a, b)) return false;
  // Blocked if it leaves the outer footprint.
  const Segment seg(a, b);
  for (size_t i = 0; i < outer_.size(); ++i) {
    if (SegmentsProperlyIntersect(seg, outer_.Edge(i))) return false;
  }
  // Or if its interior leaves the footprint via vertices.
  for (double t : {0.25, 0.5, 0.75}) {
    if (!outer_.Contains(Lerp(a, b, t))) return false;
  }
  return true;
}

void ObstructedRegion::BuildStaticGraph() {
  nodes_.clear();
  // Obstacle corners are the canonical visibility-graph nodes.
  for (const Polygon& obs : obstacles_) {
    for (const Point& v : obs.vertices()) nodes_.push_back(v);
  }
  // Reflex vertices of a non-convex footprint also shape shortest paths.
  if (!outer_.IsConvex()) {
    const auto& ring = outer_.vertices();
    const size_t n = ring.size();
    for (size_t i = 0; i < n; ++i) {
      const Point& prev = ring[(i + n - 1) % n];
      const Point& cur = ring[i];
      const Point& next = ring[(i + 1) % n];
      if (Orient(prev, cur, next) < -kGeomEps) {
        nodes_.push_back(cur);  // reflex corner in a CCW ring
      }
    }
  }
  // Pairwise visibility, flattened to CSR. Adjacency rows come out sorted
  // by neighbor index (i < j pairs are discovered in ascending order).
  const size_t n = nodes_.size();
  std::vector<std::vector<VisEdge>> rows(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (Visible(nodes_[i], nodes_[j])) {
        const double d = indoor::Distance(nodes_[i], nodes_[j]);
        rows[i].push_back({static_cast<int>(j), d});
        rows[j].push_back({static_cast<int>(i), d});
      }
    }
  }
  adj_offsets_.assign(n + 1, 0);
  adj_edges_.clear();
  for (size_t i = 0; i < n; ++i) {
    adj_offsets_[i] = static_cast<int>(adj_edges_.size());
    adj_edges_.insert(adj_edges_.end(), rows[i].begin(), rows[i].end());
  }
  adj_offsets_[n] = static_cast<int>(adj_edges_.size());
}

double ObstructedRegion::Distance(const Point& a, const Point& b,
                                  GeodesicScratch* scratch) const {
  if (Visible(a, b)) return indoor::Distance(a, b);
  if (scratch == nullptr) scratch = &TlsGeodesicScratch();
  return Solve(a, b, nullptr, scratch);
}

std::vector<Point> ObstructedRegion::ShortestPath(const Point& a,
                                                  const Point& b) const {
  if (Visible(a, b)) return {a, b};
  std::vector<Point> path;
  const double d = Solve(a, b, &path, &TlsGeodesicScratch());
  if (d == kInfDistance) return {};
  return path;
}

double ObstructedRegion::Solve(const Point& a, const Point& b,
                               std::vector<Point>* out_path,
                               GeodesicScratch* scratch) const {
  // Node layout: [0, n) static nodes, n = a, n+1 = b.
  const int n = static_cast<int>(nodes_.size());
  const int src = n;
  const int dst = n + 1;
  // The pairwise solve clobbers dist/settled, so any cached single-source
  // state in this scratch no longer matches its buffers.
  scratch->InvalidateSource();
  std::vector<double>& dist = scratch->dist;
  std::vector<int>& prev = scratch->prev;
  std::vector<char>& settled = scratch->settled;
  auto& heap = scratch->heap;
  dist.assign(n + 2, kInfDistance);
  prev.assign(n + 2, -1);
  settled.assign(n + 2, 0);
  heap.clear();

  auto relax = [&](int from, int to, double w) {
    if (dist[from] + w < dist[to]) {
      dist[to] = dist[from] + w;
      prev[to] = from;
      heap.push({dist[to], to});
    }
  };

  dist[src] = 0.0;
  heap.push({0.0, src});
  // Dynamic edges from the endpoints to every visible static node, plus the
  // direct edge if visible (caller already handled it, but keep it correct).
  while (!heap.empty()) {
    auto [d, u] = heap.top();
    heap.pop();
    if (settled[u]) continue;
    settled[u] = 1;
    if (u == dst) break;
    const Point& pu = (u == src) ? a : (u == dst ? b : nodes_[u]);
    if (u == src) {
      for (int v = 0; v < n; ++v) {
        if (Visible(a, nodes_[v])) {
          relax(src, v, indoor::Distance(a, nodes_[v]));
        }
      }
      if (Visible(a, b)) relax(src, dst, indoor::Distance(a, b));
    } else {
      for (int e = adj_offsets_[u]; e < adj_offsets_[u + 1]; ++e) {
        relax(u, adj_edges_[e].to, adj_edges_[e].weight);
      }
      if (Visible(pu, b)) relax(u, dst, indoor::Distance(pu, b));
    }
  }
  if (dist[dst] == kInfDistance) return kInfDistance;
  if (out_path != nullptr) {
    std::vector<int> chain;
    for (int v = dst; v != -1; v = prev[v]) chain.push_back(v);
    std::reverse(chain.begin(), chain.end());
    out_path->clear();
    for (int v : chain) {
      out_path->push_back(v == src ? a : (v == dst ? b : nodes_[v]));
    }
  }
  return dist[dst];
}

void ObstructedRegion::EnsureSourceSolve(const Point& p,
                                         GeodesicScratch* scratch) const {
  if (scratch->source_ready && scratch->source_region == this &&
      scratch->source_x == p.x && scratch->source_y == p.y) {
    return;
  }
  const int n = static_cast<int>(nodes_.size());
  std::vector<double>& dist = scratch->dist;
  std::vector<char>& settled = scratch->settled;
  auto& heap = scratch->heap;
  dist.assign(n, kInfDistance);
  settled.assign(n, 0);
  heap.clear();
  // Seed every static node visible from p, exactly as Solve does when the
  // source settles first.
  const bool p_in_box = InFastBox(p);
  for (int v = 0; v < n; ++v) {
    if (VisibleFrom(p, p_in_box, nodes_[v], fast_box_)) {
      const double d = indoor::Distance(p, nodes_[v]);
      if (d < dist[v]) {
        dist[v] = d;
        heap.push({d, v});
      }
    }
  }
  while (!heap.empty()) {
    auto [d, u] = heap.top();
    heap.pop();
    if (settled[u]) continue;
    settled[u] = 1;
    for (int e = adj_offsets_[u]; e < adj_offsets_[u + 1]; ++e) {
      const int to = adj_edges_[e].to;
      if (d + adj_edges_[e].weight < dist[to]) {
        dist[to] = d + adj_edges_[e].weight;
        heap.push({dist[to], to});
      }
    }
  }
  scratch->source_region = this;
  scratch->source_x = p.x;
  scratch->source_y = p.y;
  scratch->source_ready = true;
}

void ObstructedRegion::DistancesToMany(const Point& p,
                                       std::span<const Point> targets,
                                       GeodesicScratch* scratch,
                                       double* out) const {
  if (scratch == nullptr) scratch = &TlsGeodesicScratch();
  std::vector<size_t>& pending = scratch->pending;
  pending.clear();
  const bool p_in_box = InFastBox(p);
  for (size_t i = 0; i < targets.size(); ++i) {
    if (VisibleFrom(p, p_in_box, targets[i], InFastBox(targets[i]))) {
      out[i] = indoor::Distance(p, targets[i]);
    } else {
      out[i] = kInfDistance;
      pending.push_back(i);
    }
  }
  if (pending.empty() || nodes_.empty()) return;

  // One single-source pass from p over the static graph (cached across
  // calls with the same source), then resolve each blocked target against
  // the settled nodes. This reproduces Solve's value exactly: Solve's
  // dist[dst] is min over settled nodes u of dist[u] + |u, t|, and nodes
  // Solve leaves unsettled satisfy dist[u] >= dist[dst], so scanning the
  // full settled set cannot change the minimum.
  EnsureSourceSolve(p, scratch);
  const int n = static_cast<int>(nodes_.size());
  for (size_t idx : pending) {
    const Point& t = targets[idx];
    const bool t_in_box = InFastBox(t);
    double best = kInfDistance;
    for (int u = 0; u < n; ++u) {
      if (!scratch->settled[u]) continue;
      if (scratch->dist[u] >= best) continue;  // |u, t| >= 0 cannot improve
      if (!VisibleFrom(nodes_[u], fast_box_, t, t_in_box)) continue;
      const double cand = scratch->dist[u] + indoor::Distance(nodes_[u], t);
      if (cand < best) best = cand;
    }
    out[idx] = best;
  }
}

double ObstructedRegion::MaxDistanceFrom(const Point& p) const {
  if (obstacles_.empty() && outer_.IsConvex()) {
    return outer_.MaxVertexDistance(p);
  }
  // Batch all domain vertices through one one-to-many solve.
  std::vector<Point> targets;
  targets.reserve(outer_.vertices().size());
  for (const Point& v : outer_.vertices()) targets.push_back(v);
  for (const Polygon& obs : obstacles_) {
    for (const Point& v : obs.vertices()) targets.push_back(v);
  }
  std::vector<double> dists(targets.size());
  DistancesToMany(p, targets, nullptr, dists.data());
  double best = 0.0;
  for (double d : dists) {
    if (d != kInfDistance) best = std::max(best, d);
  }
  return best;
}

}  // namespace indoor
