// Bounded-weight bucket (dial) frontier for the door-graph Dijkstras.
//
// Door-graph edge weights are non-negative intra-partition walking
// distances with a known per-plan maximum W (DistanceGraph::
// max_door_edge_weight), so the keys live in Dijkstra's classic monotone
// window: after the minimum key k is extracted, every subsequent push is
// in [k, k + W]. BucketQueue exploits this with a two-level structure —
// a window of kBucketCount uniform buckets of width ~W/kSpanBuckets
// anchored at a moving base, plus an overflow list for keys beyond the
// window (multi-source seeds, long edges near the window edge). Pops scan
// from the lowest possibly-non-empty bucket; when the window drains, the
// overflow is re-based and redistributed.
//
// EXACTNESS INVARIANT (the whole point): top()/pop() return exactly the
// lexicographic minimum (distance, door) entry currently queued — the same
// entry MinHeap<pair<double, DoorId>> would return — because
//   1. bucket assignment is monotone in the key, so the global minimum
//      always lives in the first non-empty bucket at or after cur_
//      (overflow keys are >= every window key by construction, and seeds
//      queue in the overflow until the first pop anchors the window);
//   2. within that bucket the minimum is found by an exact lexicographic
//      scan, which also breaks equal-distance ties by the smaller door id,
//      precisely the heap's pair<> ordering. Duplicate (distance, id)
//      entries cannot exist: the solvers push only on strict improvement.
// Quantization therefore orders EXTRACTION only; dist[] keeps exact
// doubles and every settle order, distance, and prev[] tree is the one a
// binary-heap Dijkstra would produce. Bucket width affects performance,
// never results. BucketQueue is the only door-graph frontier
// (d2d_runner.h); bucket_queue_test drains it in lockstep with MinHeap.

#ifndef INDOOR_CORE_DISTANCE_BUCKET_QUEUE_H_
#define INDOOR_CORE_DISTANCE_BUCKET_QUEUE_H_

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "indoor/types.h"
#include "util/check.h"

namespace indoor {

/// Monotone bucket frontier with the MinHeap interface (empty/push/top/
/// pop), so MinHeap can serve as its order oracle in tests. Prepare() must
/// be called before each run with the graph's maximum edge weight.
class BucketQueue {
 public:
  /// Queue entry: (tentative distance, door), ordered lexicographically.
  using Entry = std::pair<double, DoorId>;
  using value_type = Entry;

  /// Re-arms the queue for one Dijkstra run over a graph whose edge
  /// weights are at most `max_edge_weight`. Keeps bucket capacity across
  /// runs (allocation-free in steady state).
  void Prepare(double max_edge_weight) {
    if (buckets_.size() != kBucketCount) buckets_.resize(kBucketCount);
    for (const uint32_t b : touched_) buckets_[b].clear();
    touched_.clear();
    overflow_.clear();
    width_ = max_edge_weight > 0.0 ? max_edge_weight / kSpanBuckets : 1.0;
    base_ = 0.0;
    cur_ = 0;
    size_ = 0;
    anchored_ = false;
    located_ = false;
  }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  /// Inserts an entry. Until the first top()/pop() anchors the window,
  /// entries (the run's seeds, in any key order) collect in the overflow.
  void push(Entry e) {
    ++size_;
    located_ = false;
    if (!anchored_) {
      overflow_.push_back(e);
      return;
    }
    const double off = (e.first - base_) / width_;
    if (!(off < static_cast<double>(kBucketCount))) {
      overflow_.push_back(e);
      return;
    }
    size_t idx = off <= 0.0 ? 0 : static_cast<size_t>(off);
    // Monotonicity guard: keys pushed after a pop are >= the popped
    // minimum, which lives in bucket cur_; a floating-point hair below
    // cur_'s lower edge is parked in cur_ itself, where the exact
    // in-bucket scan still finds it first.
    if (idx < cur_) idx = cur_;
    if (buckets_[idx].empty()) touched_.push_back(static_cast<uint32_t>(idx));
    buckets_[idx].push_back(e);
  }

  /// The lexicographic minimum entry. Queue must be non-empty.
  const Entry& top() {
    Locate();
    return buckets_[top_bucket_][top_slot_];
  }

  /// Removes the minimum entry.
  void pop() {
    Locate();
    std::vector<Entry>& bucket = buckets_[top_bucket_];
    bucket[top_slot_] = bucket.back();
    bucket.pop_back();
    --size_;
    located_ = false;
  }

  /// Allocated bytes across all buckets (scratch-arena decay accounting).
  size_t CapacityBytes() const {
    size_t bytes = buckets_.capacity() * sizeof(buckets_[0]) +
                   overflow_.capacity() * sizeof(Entry) +
                   touched_.capacity() * sizeof(uint32_t);
    for (const std::vector<Entry>& b : buckets_) {
      bytes += b.capacity() * sizeof(Entry);
    }
    return bytes;
  }

  /// Releases capacity beyond current sizes (scratch-arena decay).
  void ShrinkToFit() {
    for (std::vector<Entry>& b : buckets_) b.shrink_to_fit();
    overflow_.shrink_to_fit();
    touched_.shrink_to_fit();
  }

 private:
  // Window geometry: the window spans kBucketCount buckets but the width
  // is sized so ~kSpanBuckets of them cover one maximum edge weight; the
  // slack absorbs pushes near the window edge without overflowing.
  static constexpr size_t kBucketCount = 128;
  static constexpr double kSpanBuckets = 96.0;

  /// Finds the minimum entry: first non-empty bucket at or after cur_
  /// (re-basing the overflow when the window is empty), then an exact
  /// lexicographic scan of that bucket.
  void Locate() {
    if (located_) return;
    INDOOR_CHECK(size_ > 0) << "top/pop on an empty BucketQueue";
    for (;;) {
      size_t b = cur_;
      while (b < kBucketCount && buckets_[b].empty()) ++b;
      if (b < kBucketCount) {
        cur_ = b;
        break;
      }
      Rebase();
    }
    const std::vector<Entry>& bucket = buckets_[cur_];
    size_t best = 0;
    for (size_t i = 1; i < bucket.size(); ++i) {
      if (bucket[i] < bucket[best]) best = i;
    }
    top_bucket_ = cur_;
    top_slot_ = best;
    located_ = true;
  }

  /// Re-anchors the window at the minimum overflow key and redistributes
  /// every overflow entry that now fits. Called with the window empty and
  /// the overflow non-empty; afterwards the minimum entry is in bucket 0
  /// or 1, so Locate terminates.
  void Rebase() {
    INDOOR_CHECK(!overflow_.empty());
    double min_key = overflow_[0].first;
    for (const Entry& e : overflow_) {
      if (e.first < min_key) min_key = e.first;
    }
    base_ = std::floor(min_key / width_) * width_;
    if (base_ > min_key) base_ -= width_;  // floating-point guard
    cur_ = 0;
    anchored_ = true;
    size_t keep = 0;
    for (const Entry& e : overflow_) {
      const double off = (e.first - base_) / width_;
      if (off < static_cast<double>(kBucketCount)) {
        size_t idx = off <= 0.0 ? 0 : static_cast<size_t>(off);
        if (idx >= kBucketCount) idx = kBucketCount - 1;
        if (buckets_[idx].empty()) {
          touched_.push_back(static_cast<uint32_t>(idx));
        }
        buckets_[idx].push_back(e);
      } else {
        overflow_[keep++] = e;
      }
    }
    overflow_.resize(keep);
  }

  std::vector<std::vector<Entry>> buckets_;
  std::vector<Entry> overflow_;
  // Buckets made non-empty since the last Prepare (cheap O(touched) clear).
  std::vector<uint32_t> touched_;
  double width_ = 1.0;
  double base_ = 0.0;
  size_t cur_ = 0;
  size_t size_ = 0;
  bool anchored_ = false;
  bool located_ = false;
  size_t top_bucket_ = 0;
  size_t top_slot_ = 0;
};

}  // namespace indoor

#endif  // INDOOR_CORE_DISTANCE_BUCKET_QUEUE_H_
