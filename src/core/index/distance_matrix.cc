#include "core/index/distance_matrix.h"

#include "core/distance/d2d_distance.h"
#include "util/thread_pool.h"

namespace indoor {

DistanceMatrix::DistanceMatrix(const DistanceGraph& graph, unsigned threads)
    : n_(graph.plan().door_count()) {
  std::vector<double> data(n_ * n_, kInfDistance);
  // One single-source Dijkstra per row; rows are disjoint slots, so the
  // parallel build is bit-identical to the serial one (thread_pool.h).
  ParallelFor(0, n_, threads, [&](size_t d) {
    std::vector<double> dist;
    D2dDistancesFrom(graph, static_cast<DoorId>(d), &dist, nullptr);
    std::copy(dist.begin(), dist.end(), data.begin() + d * n_);
  });
  data_ = OwnedSpan<double>::Own(std::move(data));
}

DistanceMatrix DistanceMatrix::FromRaw(size_t n, std::vector<double> data) {
  INDOOR_CHECK(data.size() == n * n) << "payload size mismatch";
  DistanceMatrix matrix;
  matrix.n_ = n;
  matrix.data_ = OwnedSpan<double>::Own(std::move(data));
  return matrix;
}

DistanceMatrix DistanceMatrix::FromView(size_t n, const double* data) {
  DistanceMatrix matrix;
  matrix.n_ = n;
  matrix.data_ = OwnedSpan<double>::Borrow(data, n * n);
  return matrix;
}

}  // namespace indoor
