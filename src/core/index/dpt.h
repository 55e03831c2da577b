// DPT: the Door-to-Partition Table (paper §IV-B). One record per door
// linking it to the object bucket(s) of the partition(s) it can ENTER,
// together with the fdv value of each (the longest distance reachable
// inside that partition from the door) used for whole-partition inclusion
// during query processing.

#ifndef INDOOR_CORE_INDEX_DPT_H_
#define INDOOR_CORE_INDEX_DPT_H_

#include <vector>

#include "core/model/distance_graph.h"
#include "util/owned_span.h"

namespace indoor {

/// The paper's 5-tuple (di, vPtr1, dist1, vPtr2, dist2). Partition ids
/// stand in for the bucket pointers; kInvalidId encodes a null pointer.
/// For a unidirectional door vj -> vk: part1 = kInvalidId, dist1 = inf,
/// part2 = vk, dist2 = fdv(di, vk). For a bidirectional door with vj < vk:
/// part1 = vj, dist1 = fdv(di, vj), part2 = vk, dist2 = fdv(di, vk).
struct DptRecord {
  DoorId door = kInvalidId;
  PartitionId part1 = kInvalidId;
  double dist1 = kInfDistance;
  PartitionId part2 = kInvalidId;
  double dist2 = kInfDistance;
};

/// The table, sorted (indexed) by door id — the paper sorts DPT on the di
/// field; dense door ids make that a direct index.
class DoorPartitionTable {
 public:
  /// An empty table (size() == 0).
  DoorPartitionTable() = default;

  /// One record per door, each independent of the others, so construction
  /// parallelizes across `threads` workers (0 = hardware concurrency,
  /// 1 = sequential) with identical output.
  explicit DoorPartitionTable(const DistanceGraph& graph,
                              unsigned threads = 1);

  /// Adopts pre-computed records (the container's read path,
  /// LoadIndexContainer in index_io.h).
  static DoorPartitionTable FromRaw(std::vector<DptRecord> records);

  /// Borrows `count` pre-computed records without copying (mmap-ed
  /// container); the caller keeps the backing storage alive.
  static DoorPartitionTable FromView(const DptRecord* records, size_t count);

  /// The record of door `d` (dense ids make the sorted table a direct
  /// index).
  const DptRecord& operator[](DoorId d) const {
    INDOOR_CHECK(d < records_.size());
    return records_[d];
  }

  /// Number of records == the plan's door count.
  size_t size() const { return records_.size(); }

  /// Logical bytes of the record array (owned or borrowed alike).
  size_t MemoryBytes() const { return records_.PayloadBytes(); }

  /// Serialized payload view (index_io.h).
  std::span<const DptRecord> Records() const { return records_; }

 private:
  OwnedSpan<DptRecord> records_;
};

}  // namespace indoor

#endif  // INDOOR_CORE_INDEX_DPT_H_
