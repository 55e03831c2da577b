#include "core/distance/query_scratch.h"

#include <algorithm>

namespace indoor {
namespace {

/// Calls visit(buffer) on every buffer of `s` (a QueryScratch, const or
/// not): the one list CapacityBytes, UsedBytes and ShrinkToFit share.
template <typename S, typename Visit>
void ForEachBuffer(S& s, Visit&& visit) {
  const auto each = [&](auto&... buffers) { (visit(buffers), ...); };
  for (auto* g : {&s.geo, &s.bucket.geo}) {
    each(g->dist, g->prev, g->settled, g->heap, g->pending, g->points,
         g->values, g->slots);
  }
  each(s.bucket.cell_order, s.bucket.filter_mask, s.bucket.gates,
       s.bucket.cell_done, s.bucket.slots, s.bucket.hot);
  each(s.door.dist, s.door.visited, s.door.touched, s.door.bucket,
       s.door.relax_cand, s.door.relax_idx);
  each(s.source_doors, s.cand_doors, s.src_leg, s.dst_leg, s.d2d_cache,
       s.prev);
  each(s.potential.dest_locals, s.potential.dest_legs,
       s.potential.target_slots, s.potential.target_h, s.potential.cell_g,
       s.potential.cell_stamp, s.potential.order);
  each(s.collector, s.neighbors, s.result_deps, s.sides, s.result_bits,
       s.approx_bound, s.approx_order, s.approx_dq);
}

// A buffer is a std::vector, a MinHeap, a BucketQueue or a KnnCollector;
// the last two count and release their own capacity.
template <typename B>
size_t BufferCapacityBytes(const B& b) {
  if constexpr (requires { b.CapacityBytes(); }) {
    return b.CapacityBytes();
  } else {
    return b.capacity() * sizeof(typename B::value_type);
  }
}

template <typename B>
size_t BufferUsedBytes(const B& b) {
  return b.size() * sizeof(typename B::value_type);
}

template <typename B>
void ShrinkBuffer(B& b) {
  if constexpr (requires { b.ShrinkToFit(); }) {
    b.ShrinkToFit();
  } else {
    b.shrink_to_fit();
  }
}

}  // namespace

QueryScratch& TlsQueryScratch() {
  static thread_local QueryScratch scratch;
  return scratch;
}

size_t QueryScratch::CapacityBytes() const {
  size_t bytes = 0;
  ForEachBuffer(*this, [&](const auto& b) { bytes += BufferCapacityBytes(b); });
  return bytes;
}

size_t QueryScratch::UsedBytes() const {
  size_t bytes = 0;
  ForEachBuffer(*this, [&](const auto& b) { bytes += BufferUsedBytes(b); });
  return bytes;
}

void QueryScratch::ShrinkToFit() {
  ForEachBuffer(*this, [](auto& b) { ShrinkBuffer(b); });
}

void QueryScratch::NoteQueryDone() {
  decay_peak_bytes_ = std::max(decay_peak_bytes_, UsedBytes());
  if (--decay_countdown_ > 0) return;
  decay_countdown_ = kDecayInterval;
  const size_t watermark = std::max(decay_peak_bytes_, kDecayMinBytes);
  decay_peak_bytes_ = 0;
  if (CapacityBytes() > 4 * watermark) {
    ShrinkToFit();
    INDOOR_COUNTER_INC("scratch.decays");
  }
}

}  // namespace indoor
