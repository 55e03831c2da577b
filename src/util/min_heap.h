// A reusable vector-backed binary min-heap for the query hot paths.
//
// std::priority_queue owns its container and offers no way to clear it
// while keeping the allocation, so every Dijkstra that builds one pays a
// fresh heap allocation. MinHeap exposes clear()/reserve() so per-thread
// scratch state (query_scratch.h) can recycle the buffer across queries:
// steady-state pushes perform no allocations.
//
// Ordering is bit-identical to
//   std::priority_queue<T, std::vector<T>, std::greater<T>>
// because push/pop are implemented with the same std::push_heap /
// std::pop_heap calls the adaptor uses — replacing one with the other
// cannot change pop order, which keeps Dijkstra prev[] trees (and thus
// reconstructed paths) exactly reproducible.

#ifndef INDOOR_UTIL_MIN_HEAP_H_
#define INDOOR_UTIL_MIN_HEAP_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

namespace indoor {

/// Min-heap on operator< of T (smallest element at top()).
template <typename T>
class MinHeap {
 public:
  using value_type = T;

  bool empty() const { return data_.empty(); }
  size_t size() const { return data_.size(); }

  /// Drops all elements but keeps the allocated capacity.
  void clear() { data_.clear(); }
  void reserve(size_t n) { data_.reserve(n); }

  /// Allocated capacity in elements (scratch-arena decay accounting).
  size_t capacity() const { return data_.capacity(); }
  /// Releases capacity beyond the current size (scratch-arena decay).
  void shrink_to_fit() { data_.shrink_to_fit(); }

  void push(T value) {
    data_.push_back(std::move(value));
    std::push_heap(data_.begin(), data_.end(), std::greater<T>());
  }

  const T& top() const { return data_.front(); }

  void pop() {
    std::pop_heap(data_.begin(), data_.end(), std::greater<T>());
    data_.pop_back();
  }

 private:
  std::vector<T> data_;
};

}  // namespace indoor

#endif  // INDOOR_UTIL_MIN_HEAP_H_
