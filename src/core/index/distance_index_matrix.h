// Midx: the Distance Index Matrix (paper §IV-A). Row di lists all door ids
// ordered by non-descending Md2d[di, *], so query processing can scan doors
// nearest-first and stop early.

#ifndef INDOOR_CORE_INDEX_DISTANCE_INDEX_MATRIX_H_
#define INDOOR_CORE_INDEX_DISTANCE_INDEX_MATRIX_H_

#include <vector>

#include "core/index/distance_matrix.h"
#include "indoor/types.h"
#include "util/owned_span.h"

namespace indoor {

/// Row-major N x N matrix of door ids; row di is a permutation of all doors
/// sorted by distance from di (ties broken by id for determinism — exactly
/// the lexicographic (distance, id) settle order of the door Dijkstra,
/// which the hierarchy query paths rely on for bitwise kNN equality).
class DistanceIndexMatrix {
 public:
  /// An empty matrix (door_count() == 0); the placeholder the framework
  /// holds when the hierarchy index replaces the flat Midx.
  DistanceIndexMatrix() = default;

  /// Sorts each row independently; rows are disjoint, so construction
  /// parallelizes across `threads` workers (0 = hardware concurrency,
  /// 1 = sequential) with bit-identical output.
  explicit DistanceIndexMatrix(const DistanceMatrix& matrix,
                               unsigned threads = 1);

  /// Adopts a pre-computed payload of n*n row-major door ids (the
  /// container's read path, LoadIndexContainer in index_io.h).
  static DistanceIndexMatrix FromRaw(size_t n, std::vector<DoorId> data);

  /// Borrows a pre-computed payload without copying (mmap-ed container);
  /// the caller keeps the backing storage alive.
  static DistanceIndexMatrix FromView(size_t n, const DoorId* data);

  /// Matrix dimension == the plan's door count.
  size_t door_count() const { return n_; }

  /// The j-th closest door from `di` (j in [0, door_count()); j = 0 is `di`
  /// itself at distance 0).
  DoorId At(DoorId di, size_t j) const {
    INDOOR_CHECK(di < n_ && j < n_);
    return data_[static_cast<size_t>(di) * n_ + j];
  }

  /// Row di as a contiguous array of n door ids.
  const DoorId* Row(DoorId di) const {
    INDOOR_CHECK(di < n_);
    return data_.data() + static_cast<size_t>(di) * n_;
  }

  /// Logical bytes of the id payload (owned or borrowed alike).
  size_t MemoryBytes() const { return data_.PayloadBytes(); }

 private:
  size_t n_ = 0;
  OwnedSpan<DoorId> data_;
};

}  // namespace indoor

#endif  // INDOOR_CORE_INDEX_DISTANCE_INDEX_MATRIX_H_
