// Md2d: the Door-to-Door Distance Matrix (paper §IV-A). An N x N matrix of
// pre-computed d2dDistance values. Not symmetric in general: directional
// doors make shortest paths direction-dependent (paper Fig. 3 discussion).

#ifndef INDOOR_CORE_INDEX_DISTANCE_MATRIX_H_
#define INDOOR_CORE_INDEX_DISTANCE_MATRIX_H_

#include <vector>

#include "core/model/distance_graph.h"
#include "util/owned_span.h"

namespace indoor {

/// Dense row-major N x N matrix of door-to-door minimum walking distances;
/// Md2d[d][d] = 0, unreachable pairs hold kInfDistance.
class DistanceMatrix {
 public:
  /// An empty matrix (door_count() == 0); the placeholder the framework
  /// holds when the hierarchy index replaces the flat Md2d.
  DistanceMatrix() = default;

  /// Builds via one single-source Algorithm-1 run per door. Rows are
  /// independent, so construction parallelizes across `threads` workers
  /// (0 = use the hardware concurrency; 1 = sequential).
  explicit DistanceMatrix(const DistanceGraph& graph, unsigned threads = 1);

  /// Adopts a pre-computed payload (the container's read path,
  /// LoadIndexContainer in index_io.h). `data` must hold n*n row-major
  /// entries.
  static DistanceMatrix FromRaw(size_t n, std::vector<double> data);

  /// Borrows a pre-computed payload of n*n row-major entries without
  /// copying (the mmap-ed container path, index_io.h). The caller keeps
  /// the backing storage alive for the matrix's lifetime.
  static DistanceMatrix FromView(size_t n, const double* data);

  size_t door_count() const { return n_; }

  /// Md2d[from, to].
  double At(DoorId from, DoorId to) const {
    INDOOR_CHECK(from < n_ && to < n_);
    return data_[static_cast<size_t>(from) * n_ + to];
  }

  /// Md2d[from, *] as a contiguous row of n doubles.
  const double* Row(DoorId from) const {
    INDOOR_CHECK(from < n_);
    return data_.data() + static_cast<size_t>(from) * n_;
  }

  /// Bytes held by the matrix payload (the paper reports 6.25 MB for 1280
  /// doors with 4-byte elements; we store 8-byte doubles). Identical for
  /// owned and mmap-backed payloads.
  size_t MemoryBytes() const { return data_.PayloadBytes(); }

 private:
  size_t n_ = 0;
  OwnedSpan<double> data_;
};

}  // namespace indoor

#endif  // INDOOR_CORE_INDEX_DISTANCE_MATRIX_H_
