#include "core/distance/query_scratch.h"

#include <algorithm>

namespace indoor {
namespace {

template <typename T>
size_t VecCapacityBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

template <typename T>
size_t VecUsedBytes(const std::vector<T>& v) {
  return v.size() * sizeof(T);
}

size_t GeoCapacityBytes(const GeodesicScratch& g) {
  return VecCapacityBytes(g.dist) + VecCapacityBytes(g.prev) +
         VecCapacityBytes(g.settled) +
         g.heap.capacity() * sizeof(std::pair<double, int>) +
         VecCapacityBytes(g.pending) + VecCapacityBytes(g.points) +
         VecCapacityBytes(g.values) + VecCapacityBytes(g.slots);
}

size_t GeoUsedBytes(const GeodesicScratch& g) {
  return VecUsedBytes(g.dist) + VecUsedBytes(g.prev) +
         VecUsedBytes(g.settled) +
         g.heap.size() * sizeof(std::pair<double, int>) +
         VecUsedBytes(g.pending) + VecUsedBytes(g.points) +
         VecUsedBytes(g.values) + VecUsedBytes(g.slots);
}

void GeoShrink(GeodesicScratch* g) {
  g->dist.shrink_to_fit();
  g->prev.shrink_to_fit();
  g->settled.shrink_to_fit();
  g->heap.shrink_to_fit();
  g->pending.shrink_to_fit();
  g->points.shrink_to_fit();
  g->values.shrink_to_fit();
  g->slots.shrink_to_fit();
}

size_t PotentialCapacityBytes(const PotentialScratch& p) {
  return VecCapacityBytes(p.dest_locals) + VecCapacityBytes(p.dest_legs) +
         VecCapacityBytes(p.target_slots) + VecCapacityBytes(p.target_h) +
         VecCapacityBytes(p.cell_g) + VecCapacityBytes(p.cell_stamp) +
         VecCapacityBytes(p.order);
}

size_t PotentialUsedBytes(const PotentialScratch& p) {
  return VecUsedBytes(p.dest_locals) + VecUsedBytes(p.dest_legs) +
         VecUsedBytes(p.target_slots) + VecUsedBytes(p.target_h) +
         VecUsedBytes(p.cell_g) + VecUsedBytes(p.cell_stamp) +
         VecUsedBytes(p.order);
}

}  // namespace

QueryScratch& TlsQueryScratch() {
  static thread_local QueryScratch scratch;
  return scratch;
}

size_t QueryScratch::CapacityBytes() const {
  return GeoCapacityBytes(geo) + GeoCapacityBytes(bucket.geo) +
         VecCapacityBytes(bucket.cell_order) +
         VecCapacityBytes(bucket.filter_mask) + VecCapacityBytes(bucket.gates) +
         VecCapacityBytes(bucket.cell_done) + VecCapacityBytes(bucket.slots) +
         VecCapacityBytes(door.dist) + VecCapacityBytes(door.visited) +
         VecCapacityBytes(door.touched) + door.bucket.CapacityBytes() +
         VecCapacityBytes(door.relax_cand) + VecCapacityBytes(door.relax_idx) +
         VecCapacityBytes(source_doors) + VecCapacityBytes(cand_doors) +
         VecCapacityBytes(src_leg) + VecCapacityBytes(dst_leg) +
         VecCapacityBytes(d2d_cache) + VecCapacityBytes(prev) +
         PotentialCapacityBytes(potential) + collector.CapacityBytes() +
         VecCapacityBytes(neighbors) + VecCapacityBytes(result_deps) +
         VecCapacityBytes(sides) + VecCapacityBytes(result_bits) +
         VecCapacityBytes(approx_bound) + VecCapacityBytes(approx_order) +
         VecCapacityBytes(approx_dq);
}

size_t QueryScratch::UsedBytes() const {
  return GeoUsedBytes(geo) + GeoUsedBytes(bucket.geo) +
         VecUsedBytes(bucket.cell_order) + VecUsedBytes(bucket.filter_mask) +
         VecUsedBytes(bucket.gates) + VecUsedBytes(bucket.cell_done) +
         VecUsedBytes(bucket.slots) + VecUsedBytes(door.dist) +
         VecUsedBytes(door.visited) + VecUsedBytes(door.touched) +
         door.bucket.size() * sizeof(std::pair<double, DoorId>) +
         VecUsedBytes(door.relax_cand) + VecUsedBytes(door.relax_idx) +
         VecUsedBytes(source_doors) + VecUsedBytes(cand_doors) +
         VecUsedBytes(src_leg) + VecUsedBytes(dst_leg) +
         VecUsedBytes(d2d_cache) + VecUsedBytes(prev) +
         PotentialUsedBytes(potential) +
         collector.size() * sizeof(std::pair<double, ObjectId>) +
         VecUsedBytes(neighbors) + VecUsedBytes(result_deps) +
         VecUsedBytes(sides) + VecUsedBytes(result_bits) +
         VecUsedBytes(approx_bound) + VecUsedBytes(approx_order) +
         VecUsedBytes(approx_dq);
}

void QueryScratch::ShrinkToFit() {
  GeoShrink(&geo);
  GeoShrink(&bucket.geo);
  bucket.cell_order.shrink_to_fit();
  bucket.filter_mask.shrink_to_fit();
  bucket.gates.shrink_to_fit();
  bucket.cell_done.shrink_to_fit();
  bucket.slots.shrink_to_fit();
  door.dist.shrink_to_fit();
  door.visited.shrink_to_fit();
  door.touched.shrink_to_fit();
  door.bucket.ShrinkToFit();
  door.relax_cand.shrink_to_fit();
  door.relax_idx.shrink_to_fit();
  source_doors.shrink_to_fit();
  cand_doors.shrink_to_fit();
  src_leg.shrink_to_fit();
  dst_leg.shrink_to_fit();
  d2d_cache.shrink_to_fit();
  prev.shrink_to_fit();
  potential.dest_locals.shrink_to_fit();
  potential.dest_legs.shrink_to_fit();
  potential.target_slots.shrink_to_fit();
  potential.target_h.shrink_to_fit();
  potential.cell_g.shrink_to_fit();
  potential.cell_stamp.shrink_to_fit();
  potential.order.shrink_to_fit();
  collector.ShrinkToFit();
  neighbors.shrink_to_fit();
  result_deps.shrink_to_fit();
  sides.shrink_to_fit();
  result_bits.shrink_to_fit();
  approx_bound.shrink_to_fit();
  approx_order.shrink_to_fit();
  approx_dq.shrink_to_fit();
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
