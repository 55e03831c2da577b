// A generic N-way sharded read-through cache for cross-query work sharing
// (docs/ARCHITECTURE.md "serving layer").
//
// Design: the key space is split across `shards` independent tables by
// mixed key hash; each shard is guarded by its own mutex, so concurrent
// readers on different shards never contend and readers on the same shard
// only serialize for the duration of a probe + copy-out. A shard is one
// flat table:
//
//   * a slot array: each slot holds a key, its mixed 64-bit hash, the
//     value, the value's byte charge and a CLOCK reference bit;
//   * an open-addressed index of slot numbers, linear probing, kept at
//     most half full; a removal shifts the rest of its probe chain back
//     (no tombstones);
//   * a free-slot list and a CLOCK hand over the slot array.
//
// A hit compares the stored hash, then the key, and sets the slot's
// reference bit; it writes nothing else. Eviction is CLOCK (second
// chance): the hand sweeps the slots, clears each set bit it passes and
// takes the first live slot whose bit is clear. A new key takes a free
// slot, or appends one, while the shard has room for another entry of its
// mean charge; otherwise it recycles the CLOCK victim's slot. InsertWith
// hands the caller that slot's value to overwrite in place, so a recycled
// value keeps the heap capacity its vectors grew to and a warm miss
// allocates nothing. The byte charge a fill returns must count that
// retained capacity (plus SlotBytes() for the slot itself), so the budget
// bounds real memory: each shard evicts CLOCK victims once its slice of
// the budget is exceeded, and a slot freed that way drops its value's
// memory. An entry larger than the whole slice is admitted and then
// evicted (the shard ends empty), so pathological values cannot wedge the
// budget.
//
// The hit path performs no heap allocations (a probe, a bit write, and
// whatever the caller's accept functor does — typically a copy into a
// pre-sized buffer), which keeps the zero-alloc steady-state contract of
// the query hot path (BENCH_baseline.json pins pt2pt at 0 allocs/query
// with the cache enabled).
//
// Observability: hits / misses / evictions / insertions are counted in
// relaxed atomics and, when the library is built with INDOOR_METRICS=ON,
// mirrored into the global MetricsRegistry under
// `<prefix>.hits|misses|evictions|insertions` (docs/METRICS.md).

#ifndef INDOOR_UTIL_SHARDED_CACHE_H_
#define INDOOR_UTIL_SHARDED_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string_view>
#include <utility>
#include <vector>

#include "util/metrics.h"

namespace indoor {

namespace internal {

/// Registry counters of one cache instance; all null when the library is
/// built without metrics (the cache then only keeps its local atomics).
struct CacheCounters {
  metrics::Counter* hits = nullptr;
  metrics::Counter* misses = nullptr;
  metrics::Counter* evictions = nullptr;
  metrics::Counter* insertions = nullptr;
};

/// Registers (or re-finds) the four `<prefix>.*` counters. Defined in
/// sharded_cache.cc so the template below stays header-only.
CacheCounters RegisterCacheCounters(std::string_view prefix);

/// Final avalanche mix (splitmix64) applied to the caller's hash before
/// shard selection and bucket placement, so weak hashes still spread.
inline uint64_t MixHash(uint64_t h) {
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

/// Smallest power of two >= n (n clamped to [1, 256]).
size_t NormalizeShardCount(size_t n);

}  // namespace internal

/// Point-in-time usage/traffic summary of one ShardedCache (GetStats).
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t insertions = 0;
  size_t entries = 0;
  size_t bytes = 0;
};

/// N-way sharded byte-bounded CLOCK map. `Hash` must be stateless.
///
/// Thread-safety: Lookup / Insert / InsertWith / Mutate / Clear / GetStats
/// may be called from any number of threads concurrently. Values are only
/// ever observed under the owning shard's lock (via the caller's functor),
/// so Value needs no synchronization of its own; it must be default-
/// constructible and movable.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ShardedCache {
 public:
  using Stats = CacheStats;

  /// `capacity_bytes` is the total budget across all shards;
  /// `metric_prefix` names the registry counters (e.g. "cache.field").
  ShardedCache(size_t capacity_bytes, size_t shards,
               std::string_view metric_prefix)
      : counters_(internal::RegisterCacheCounters(metric_prefix)),
        capacity_bytes_(capacity_bytes),
        shards_(internal::NormalizeShardCount(shards)) {
    shard_bits_ = 0;
    for (size_t s = shards_.size(); s > 1; s >>= 1) ++shard_bits_;
  }

  /// What one entry costs its shard before any heap memory its value
  /// holds: the slot itself and its two buckets of the index (which
  /// stays at most half full). A caller's charge starts from this.
  static constexpr size_t SlotBytes() {
    return sizeof(Slot) + 2 * sizeof(uint32_t);
  }

  /// Looks up `key`; on a hit calls `accept(value)` under the shard lock.
  /// `accept` returns whether the entry is truly usable (e.g. a cached
  /// result whose recorded epochs are still current); only then is the
  /// entry's reference bit set and the lookup counted as a hit. Returns the accept
  /// verdict (false on absent key). Allocation-free.
  template <typename Fn>
  bool Lookup(const Key& key, Fn&& accept) {
    const uint64_t h = HashOf(key);
    Shard& shard = ShardFor(h);
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      const uint32_t s = shard.index[Probe(shard, key, h)];
      if (s != kNoSlot && accept(std::as_const(shard.slots[s].value))) {
        shard.slots[s].referenced = true;
        hits_.fetch_add(1, std::memory_order_relaxed);
        if (counters_.hits != nullptr) counters_.hits->Increment();
        return true;
      }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (counters_.misses != nullptr) counters_.misses->Increment();
    return false;
  }

  /// Inserts (or replaces) `key` with `value` and a `bytes`-byte charge;
  /// see InsertWith.
  void Insert(const Key& key, Value value, size_t bytes) {
    InsertWith(key, [&](Value& slot_value) {
      slot_value = std::move(value);
      return bytes;
    });
  }

  /// Inserts (or replaces) `key`, calling `fill(value)` under the shard
  /// lock to write the entry's value in place; `fill` returns the entry's
  /// byte charge. `value` is the replaced entry's, a recycled victim's
  /// (with whatever capacity its members kept), or default-constructed;
  /// `fill` must overwrite every field. A replaced entry's reference bit
  /// is set; a new one starts clear. Then evicts CLOCK victims other than
  /// this entry until the shard is back under its slice of the budget,
  /// and this entry last if it alone exceeds the slice (the shard then
  /// ends empty).
  template <typename Fn>
  void InsertWith(const Key& key, Fn&& fill) {
    const uint64_t h = HashOf(key);
    Shard& shard = ShardFor(h);
    uint64_t evicted = 0;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      uint32_t s = shard.index[Probe(shard, key, h)];
      if (s != kNoSlot) {
        Slot& slot = shard.slots[s];
        shard.bytes -= slot.bytes;
        slot.bytes = fill(slot.value);
        slot.referenced = true;
        shard.bytes += slot.bytes;
      } else {
        s = TakeSlot(shard, &evicted);
        Slot& slot = shard.slots[s];
        slot.bytes = fill(slot.value);
        slot.key = key;
        slot.hash = h;
        slot.referenced = false;
        slot.live = true;
        ++shard.live;
        shard.bytes += slot.bytes;
        Place(shard, s);
      }
      evicted += EvictOverBudget(shard, s);
    }
    insertions_.fetch_add(1, std::memory_order_relaxed);
    if (counters_.insertions != nullptr) counters_.insertions->Increment();
    CountEvictions(evicted);
  }

  /// Finds `key` and calls `mutate(value)` under the shard lock (in-place
  /// repair of a stale entry), setting the entry's reference bit.
  /// `mutate` returns the entry's new byte charge; if the entry grew past
  /// the shard's budget slice, other entries are evicted (and this one
  /// last, as in InsertWith). Returns false when the key is absent (e.g.
  /// concurrently evicted) — the caller's repair then simply isn't
  /// persisted. Counted as neither hit nor miss: the probe that found the
  /// entry stale already counted.
  template <typename Fn>
  bool Mutate(const Key& key, Fn&& mutate) {
    const uint64_t h = HashOf(key);
    Shard& shard = ShardFor(h);
    uint64_t evicted = 0;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      const uint32_t s = shard.index[Probe(shard, key, h)];
      if (s == kNoSlot) return false;
      Slot& slot = shard.slots[s];
      shard.bytes -= slot.bytes;
      slot.bytes = mutate(slot.value);
      slot.referenced = true;
      shard.bytes += slot.bytes;
      evicted = EvictOverBudget(shard, s);
    }
    CountEvictions(evicted);
    return true;
  }

  /// Drops every entry and releases the shards' memory (write-path
  /// invalidation). Traffic counters keep their values; entries/bytes drop
  /// to zero.
  void Clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.slots = {};
      shard.index = EmptyIndex();
      shard.free = {};
      shard.hand = 0;
      shard.live = 0;
      shard.bytes = 0;
    }
  }

  Stats GetStats() const {
    Stats stats;
    stats.hits = hits_.load(std::memory_order_relaxed);
    stats.misses = misses_.load(std::memory_order_relaxed);
    stats.evictions = evictions_.load(std::memory_order_relaxed);
    stats.insertions = insertions_.load(std::memory_order_relaxed);
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      stats.entries += shard.live;
      stats.bytes += shard.bytes;
    }
    return stats;
  }

  size_t capacity_bytes() const { return capacity_bytes_; }
  size_t shard_count() const { return shards_.size(); }

 private:
  static constexpr uint32_t kNoSlot = UINT32_MAX;  // empty index bucket
  static constexpr size_t kMinIndex = 8;

  struct Slot {
    uint64_t hash = 0;  // mixed; its low bits pick the home bucket
    Key key{};
    Value value{};
    size_t bytes = 0;
    bool referenced = false;  // CLOCK bit: set by a hit, cleared by the hand
    bool live = false;        // false while on the free list
  };
  struct Shard {
    mutable std::mutex mu;
    std::vector<Slot> slots;
    std::vector<uint32_t> index = EmptyIndex();  // slot numbers or kNoSlot
    std::vector<uint32_t> free;                  // dead slot numbers
    uint32_t hand = 0;                           // CLOCK hand into slots
    size_t live = 0;
    size_t bytes = 0;
  };

  static std::vector<uint32_t> EmptyIndex() {
    return std::vector<uint32_t>(kMinIndex, kNoSlot);
  }

  static uint64_t HashOf(const Key& key) {
    return internal::MixHash(Hash{}(key));
  }

  Shard& ShardFor(uint64_t h) {
    if (shard_bits_ == 0) return shards_[0];
    return shards_[h >> (64 - shard_bits_)];
  }

  /// Index position holding `key`, or the empty bucket that ends its probe
  /// chain. Terminates because the index is at most half full.
  static size_t Probe(const Shard& shard, const Key& key, uint64_t h) {
    const size_t mask = shard.index.size() - 1;
    for (size_t pos = h & mask;; pos = (pos + 1) & mask) {
      const uint32_t s = shard.index[pos];
      if (s == kNoSlot) return pos;
      const Slot& slot = shard.slots[s];
      if (slot.hash == h && slot.key == key) return pos;
    }
  }

  /// Stores slot `s` in the first empty bucket of its probe chain.
  static void Place(Shard& shard, uint32_t s) {
    const size_t mask = shard.index.size() - 1;
    size_t pos = shard.slots[s].hash & mask;
    while (shard.index[pos] != kNoSlot) pos = (pos + 1) & mask;
    shard.index[pos] = s;
  }

  /// Removes slot `s` from the index, shifting each later entry of the
  /// probe chain back into the hole unless that would move it before its
  /// home bucket.
  static void Unlink(Shard& shard, uint32_t s) {
    const size_t mask = shard.index.size() - 1;
    size_t hole = shard.slots[s].hash & mask;
    while (shard.index[hole] != s) hole = (hole + 1) & mask;
    for (size_t pos = (hole + 1) & mask;; pos = (pos + 1) & mask) {
      const uint32_t next = shard.index[pos];
      if (next == kNoSlot) break;
      const size_t home = shard.slots[next].hash & mask;
      if (((pos - home) & mask) >= ((pos - hole) & mask)) {
        shard.index[hole] = next;
        hole = pos;
      }
    }
    shard.index[hole] = kNoSlot;
  }

  /// Advances the CLOCK hand to the first live slot other than `keep`
  /// whose reference bit is clear, clearing every set bit it passes. The
  /// shard must hold such a slot; one full turn clears every bit, so the
  /// sweep ends within two.
  static uint32_t ClockVictim(Shard& shard, uint32_t keep) {
    for (;;) {
      const uint32_t s = shard.hand;
      shard.hand = s + 1 == shard.slots.size() ? 0 : s + 1;
      Slot& slot = shard.slots[s];
      if (!slot.live || s == keep) continue;
      if (slot.referenced) {
        slot.referenced = false;
        continue;
      }
      return s;
    }
  }

  /// Takes live slot `s` out of the index and the shard's totals; its
  /// value stays in place for the caller to recycle or release.
  static void Detach(Shard& shard, uint32_t s) {
    Unlink(shard, s);
    Slot& slot = shard.slots[s];
    slot.live = false;
    --shard.live;
    shard.bytes -= slot.bytes;
  }

  /// A dead slot for a new key: a free one, or a new one, while the shard
  /// has room for another entry of its mean charge; otherwise the CLOCK
  /// victim's, value and all (counted in `*evicted`).
  uint32_t TakeSlot(Shard& shard, uint64_t* evicted) {
    const size_t capacity = capacity_bytes_ / shards_.size();
    if (shard.live > 0 && shard.bytes + shard.bytes / shard.live > capacity) {
      const uint32_t s = ClockVictim(shard, kNoSlot);
      Detach(shard, s);
      ++*evicted;
      return s;
    }
    if (!shard.free.empty()) {
      const uint32_t s = shard.free.back();
      shard.free.pop_back();
      return s;
    }
    shard.slots.emplace_back();
    if (shard.slots.size() > shard.index.size() / 2) {
      shard.index.assign(2 * shard.index.size(), kNoSlot);
      for (uint32_t s = 0; s < shard.slots.size(); ++s) {
        if (shard.slots[s].live) Place(shard, s);
      }
    }
    return static_cast<uint32_t>(shard.slots.size() - 1);
  }

  /// Evicts CLOCK victims other than `keep` while the shard is over its
  /// slice and holds another entry, then `keep` itself if it alone
  /// exceeds the slice. Each victim's slot goes on the free list with its
  /// value's memory released. Returns the number evicted.
  uint64_t EvictOverBudget(Shard& shard, uint32_t keep) {
    const size_t capacity = capacity_bytes_ / shards_.size();
    uint64_t evicted = 0;
    while (shard.bytes > capacity && shard.live > 0) {
      const uint32_t s = shard.live > 1 ? ClockVictim(shard, keep) : keep;
      Detach(shard, s);
      shard.slots[s].value = Value{};
      shard.free.push_back(s);
      ++evicted;
    }
    return evicted;
  }

  void CountEvictions(uint64_t evicted) {
    if (evicted == 0) return;
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    if (counters_.evictions != nullptr) counters_.evictions->Add(evicted);
  }

  internal::CacheCounters counters_;
  size_t capacity_bytes_;
  unsigned shard_bits_ = 0;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> insertions_{0};
  std::vector<Shard> shards_;
};

}  // namespace indoor

#endif  // INDOOR_UTIL_SHARDED_CACHE_H_
