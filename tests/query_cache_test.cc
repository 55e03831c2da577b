// Correctness suite for the cross-query work-sharing layer: the sharded
// source-field / host-partition cache (query_cache.h) and the batched
// parallel executor (batch_executor.h).
//
// The load-bearing property is EXACTNESS: a cached engine must return
// bitwise-identical results to an uncached engine over the same plan, for
// every query kind, on randomized buildings with and without obstructed
// rooms — the cache is a pure work-sharing layer, never an approximation.
// The suite also covers the generic ShardedCache (CLOCK eviction under a
// tiny budget, slot recycling, and a differential test of one shard
// against a model), write invalidation, QueryScratch capacity decay, and
// a concurrent hit/miss stress that CI runs under TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/distance/pt2pt_distance.h"
#include "core/distance/query_scratch.h"
#include "core/query/batch_executor.h"
#include "core/query/query_cache.h"
#include "core/query/query_engine.h"
#include "core/query/reference_impls.h"
#include "gen/building_generator.h"
#include "gen/object_generator.h"
#include "gen/query_generator.h"
#include "indoor/floor_plan_builder.h"
#include "indoor/sample_plans.h"
#include "util/sharded_cache.h"

namespace indoor {
namespace {

BuildingConfig SmallBuilding(uint64_t seed, double obstacle_probability) {
  BuildingConfig config;
  config.floors = 3;
  config.rooms_per_floor = 10;
  config.room_to_room_doors = 0.3;
  config.obstacle_probability = obstacle_probability;
  config.seed = seed;
  return config;
}

IndexOptions CacheOptions(bool enabled) {
  IndexOptions options;
  options.enable_query_cache = enabled;
  return options;
}

// ------------------------------------------------------- generic ShardedCache

TEST(ShardedCacheTest, LookupMissThenHit) {
  ShardedCache<int, int> cache(1 << 20, 4, "");
  int got = 0;
  EXPECT_FALSE(cache.Lookup(7, [&](const int& v) {
    got = v;
    return true;
  }));
  cache.Insert(7, 42, 64);
  EXPECT_TRUE(cache.Lookup(7, [&](const int& v) {
    got = v;
    return true;
  }));
  EXPECT_EQ(got, 42);
  const CacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 64u);
}

TEST(ShardedCacheTest, AcceptRejectionCountsAsMiss) {
  ShardedCache<int, int> cache(1 << 20, 1, "");
  cache.Insert(1, 10, 32);
  // The accept functor refusing the entry (e.g. a stale result) must
  // register as a miss, not a hit.
  EXPECT_FALSE(cache.Lookup(1, [](const int&) { return false; }));
  const CacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ShardedCacheTest, EvictsLeastRecentlyUsedUnderTinyCapacity) {
  // One shard, room for exactly two 64-byte entries.
  ShardedCache<int, int> cache(128, 1, "");
  cache.Insert(1, 100, 64);
  cache.Insert(2, 200, 64);
  // Touch 1 so 2 becomes the victim: CLOCK spares the referenced entry.
  EXPECT_TRUE(cache.Lookup(1, [](const int&) { return true; }));
  cache.Insert(3, 300, 64);
  EXPECT_TRUE(cache.Lookup(1, [](const int&) { return true; }));
  EXPECT_FALSE(cache.Lookup(2, [](const int&) { return true; }));
  EXPECT_TRUE(cache.Lookup(3, [](const int&) { return true; }));
  const CacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.bytes, 128u);
}

TEST(ShardedCacheTest, ReplacingAnEntryUpdatesBytes) {
  ShardedCache<int, int> cache(1 << 20, 1, "");
  cache.Insert(5, 1, 100);
  cache.Insert(5, 2, 40);  // same key: replace, not duplicate
  const CacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 40u);
  int got = 0;
  EXPECT_TRUE(cache.Lookup(5, [&](const int& v) {
    got = v;
    return true;
  }));
  EXPECT_EQ(got, 2);
}

TEST(ShardedCacheTest, ClearEmptiesEveryShard) {
  ShardedCache<int, int> cache(1 << 20, 8, "");
  for (int i = 0; i < 64; ++i) cache.Insert(i, i, 16);
  cache.Clear();
  const CacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_FALSE(cache.Lookup(i, [](const int&) { return true; }));
  }
}

// A referenced entry gets one second chance per turn of the CLOCK hand,
// not immunity: with no further hits, the hand clears its bit on one pass
// and evicts it on the next.
TEST(ShardedCacheTest, ReferencedEntryGetsOneSecondChance) {
  // One shard, room for exactly three 64-byte entries.
  ShardedCache<int, int> cache(192, 1, "");
  for (int key = 1; key <= 3; ++key) cache.Insert(key, key, 64);
  EXPECT_TRUE(cache.Lookup(1, [](const int&) { return true; }));
  // Reads without setting a reference bit: a refusing accept is a miss.
  const auto live = [&cache](int key) {
    bool seen = false;
    cache.Lookup(key, [&seen](const int&) {
      seen = true;
      return false;
    });
    return seen;
  };
  cache.Insert(4, 4, 64);
  EXPECT_TRUE(live(1)) << "the referenced entry was not spared";
  EXPECT_FALSE(live(2)) << "the first unreferenced entry was not the victim";
  // Two more turns' worth of unreferenced inserts: key 1 must go.
  for (int key = 5; key <= 10; ++key) cache.Insert(key, key, 64);
  EXPECT_FALSE(live(1)) << "a referenced bit was never cleared";
  EXPECT_EQ(cache.GetStats().entries, 3u);
}

// Keys that share one raw hash share one mixed hash and so one home
// bucket. MixHash is a bijection, so searching raw values finds ones
// whose home is the index's last bucket (probe chains wrap to bucket 0),
// its first, or elsewhere, for every index of up to 2^16 buckets.
uint64_t RawHashWithLowBits(uint64_t low16, uint64_t skip) {
  for (uint64_t raw = 0;; ++raw) {
    if ((internal::MixHash(raw) & 0xffff) == low16 && skip-- == 0) {
      return raw;
    }
  }
}

struct FewHomesHash {
  size_t operator()(int key) const {
    static const uint64_t homes[4] = {
        RawHashWithLowBits(0xffff, 0), RawHashWithLowBits(0xffff, 1),
        RawHashWithLowBits(0x0000, 0), RawHashWithLowBits(0x5555, 0)};
    return static_cast<size_t>(homes[key % 4]);
  }
};

// Differential test of one shard against a model of its live entries.
// Every key hashes to one of four home buckets, so probe chains are long,
// wrap the index, and interleave, and each eviction or replacement
// exercises the backward shift. After every call the live set, the values
// read, and GetStats' entries, bytes, hits and evictions must agree with
// the model, and the byte budget must hold.
TEST(ShardedCacheTest, DifferentialAgainstModelWithCollidingHashes) {
  using Cache = ShardedCache<int, std::vector<int>, FewHomesHash>;
  constexpr size_t kCapacity = 1024;
  constexpr int kKeys = 48;
  struct Live {
    std::vector<int> value;
    size_t bytes;
  };
  Cache cache(kCapacity, 1, "");
  std::map<int, Live> model;
  uint64_t hits = 0;
  uint64_t evictions = 0;
  Rng rng(2024);
  for (int step = 0; step < 4000; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const int key = static_cast<int>(rng.NextU64(kKeys));
    std::vector<int> value(rng.NextU64(9), step);
    const uint64_t op = rng.NextU64(200);
    int written = -1;  // key an insert or mutate wrote, if any
    size_t written_bytes = 0;
    if (op < 60) {
      // Now and then an entry larger than the whole slice.
      written_bytes = op == 0 ? kCapacity + 1 : 8 + rng.NextU64(113);
      cache.Insert(key, value, written_bytes);
      written = key;
      model[key] = {value, written_bytes};
    } else if (op < 120) {
      cache.InsertWith(key, [&](std::vector<int>& slot) {
        slot.assign(value.begin(), value.end());
        written_bytes = 16 + slot.capacity() * sizeof(int);
        return written_bytes;
      });
      written = key;
      model[key] = {value, written_bytes};
    } else if (op < 160) {
      const bool take = rng.NextBool();
      bool called = false;
      const bool hit = cache.Lookup(key, [&](const std::vector<int>& got) {
        called = true;
        EXPECT_TRUE(model.count(key) != 0 && got == model[key].value);
        return take;
      });
      EXPECT_EQ(called, model.count(key) != 0);
      EXPECT_EQ(hit, called && take);
      if (hit) ++hits;
    } else if (op < 199) {
      const bool found = cache.Mutate(key, [&](std::vector<int>& slot) {
        slot.push_back(step);
        written_bytes = 16 + slot.capacity() * sizeof(int);
        return written_bytes;
      });
      EXPECT_EQ(found, model.count(key) != 0);
      if (found) {
        written = key;
        model[key].value.push_back(step);
        model[key].bytes = written_bytes;
      }
    } else {
      cache.Clear();
      model.clear();
    }

    // Read every key back without setting reference bits: an accept
    // functor that refuses counts a miss and leaves CLOCK state alone.
    size_t live = 0;
    size_t bytes = 0;
    for (int k = 0; k < kKeys; ++k) {
      bool seen = false;
      cache.Lookup(k, [&](const std::vector<int>& got) {
        seen = true;
        EXPECT_TRUE(model.count(k) != 0 && got == model[k].value)
            << "key " << k << " is live with a value the model lacks";
        return false;
      });
      if (seen) {
        ++live;
        bytes += model[k].bytes;
      } else if (model.erase(k) != 0) {
        ++evictions;  // evicted by this step
        EXPECT_NE(written, -1) << "a lookup evicted key " << k;
      }
    }
    const CacheStats stats = cache.GetStats();
    ASSERT_EQ(stats.entries, live);
    ASSERT_EQ(stats.entries, model.size());
    ASSERT_EQ(stats.bytes, bytes);
    ASSERT_EQ(stats.hits, hits);
    ASSERT_EQ(stats.evictions, evictions);
    ASSERT_LE(stats.bytes, kCapacity);
    if (written != -1) {
      // The written entry survives unless it alone exceeds the slice,
      // which leaves the shard empty.
      if (written_bytes > kCapacity) {
        ASSERT_EQ(stats.entries, 0u);
      } else {
        ASSERT_EQ(model.count(written), 1u);
      }
    }
  }
  EXPECT_GT(evictions, 500u);
}

// InsertWith recycles the CLOCK victim's slot in place: the new value
// starts from the victim's, with its vector capacity.
TEST(ShardedCacheTest, RecycledSlotKeepsItsValueCapacity) {
  ShardedCache<int, std::vector<double>> cache(1024, 1, "");
  const auto fill = [](size_t n, size_t* capacity_seen) {
    return [n, capacity_seen](std::vector<double>& slot) {
      *capacity_seen = slot.capacity();
      slot.assign(n, 1.0);
      return 800 + slot.capacity() * sizeof(double);
    };
  };
  size_t seen = 0;
  cache.InsertWith(1, fill(20, &seen));
  EXPECT_EQ(seen, 0u);
  cache.InsertWith(2, fill(3, &seen));  // no room for a second entry
  EXPECT_GE(seen, 20u) << "the new key did not get the victim's slot";
  const CacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.bytes, 800 + seen * sizeof(double));
}

// A recycled field slot keeps the legs' capacity, and QueryCache charges
// that capacity, not the legs' size: after a small field takes a larger
// field's slot, the shard's bytes stay where the larger field put them.
TEST(QueryCacheEvictionTest, RecycledFieldSlotIsChargedItsCapacity) {
  const FloorPlan plan = GenerateBuilding(SmallBuilding(141, 0.5));
  const IndexFramework index(plan, CacheOptions(false));
  Rng rng(142);
  Point big_p, small_p;
  PartitionId big = kInvalidId, small = kInvalidId;
  for (const Point& p : GenerateQueryPositions(plan, 400, &rng)) {
    const PartitionId v = index.locator().GetHostPartition(p).value();
    const size_t n = plan.LeaveDoors(v).size();
    if (big == kInvalidId || n > plan.LeaveDoors(big).size()) {
      big = v;
      big_p = p;
    }
    if (n > 0 && (small == kInvalidId || n < plan.LeaveDoors(small).size())) {
      small = v;
      small_p = p;
    }
  }
  ASSERT_LT(plan.LeaveDoors(small).size(), plan.LeaveDoors(big).size());

  const auto legs = [&](const QueryCache* cache, PartitionId v,
                        const Point& p) {
    std::vector<double> out(plan.LeaveDoors(v).size());
    GeodesicScratch geo;
    CachedFieldLegs(cache, index.locator(), FieldKind::kLeaveFrom, v, p,
                    plan.LeaveDoors(v), &geo, out.data());
    return out;
  };
  QueryCacheOptions options;
  options.shards = 1;
  size_t big_bytes = 0;
  {
    const QueryCache roomy(plan, index.locator(), index.objects(), options);
    legs(&roomy, big, big_p);
    big_bytes = roomy.FieldStats().bytes;
  }
  // Room for the big field's entry alone.
  options.field_capacity_bytes = big_bytes;
  const QueryCache tight(plan, index.locator(), index.objects(), options);
  legs(&tight, big, big_p);
  EXPECT_EQ(tight.FieldStats().bytes, big_bytes);
  EXPECT_EQ(legs(&tight, small, small_p), legs(nullptr, small, small_p));
  const CacheStats stats = tight.FieldStats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.bytes, big_bytes)
      << "the recycled slot's charge dropped its retained capacity";
}

// The same for a result slot: a smaller range result that takes a larger
// one's slot is charged the ids' retained capacity.
TEST(QueryCacheEvictionTest, RecycledResultSlotIsChargedItsCapacity) {
  const FloorPlan plan = MakeRunningExamplePlan();
  const IndexFramework index(plan, CacheOptions(false));
  std::vector<ObjectId> many(100);
  std::iota(many.begin(), many.end(), 0);
  const std::vector<ObjectId> few(many.begin(), many.begin() + 10);
  const PartitionId deps[] = {0};
  const Point q(1, 1);
  QueryCacheOptions options;
  options.shards = 1;
  size_t many_bytes = 0;
  {
    const QueryCache roomy(plan, index.locator(), index.objects(), options);
    roomy.InsertRangeResult(q, 1.0, /*kind=*/0, deps, {}, many);
    many_bytes = roomy.ResultStats().bytes;
  }
  options.result_capacity_bytes = many_bytes;  // room for one such entry
  const QueryCache tight(plan, index.locator(), index.objects(), options);
  tight.InsertRangeResult(q, 1.0, /*kind=*/0, deps, {}, many);
  tight.InsertRangeResult(q, 2.0, /*kind=*/0, deps, {}, few);
  std::vector<ObjectId> out;
  EXPECT_TRUE(tight.LookupRangeResult(q, 2.0, /*kind=*/0, &out));
  EXPECT_EQ(out, few);
  const CacheStats stats = tight.ResultStats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.bytes, many_bytes)
      << "the recycled slot's charge dropped its retained capacity";
}

// ------------------------------------------- cached vs uncached exactness

// Every query kind, on randomized buildings with and without obstacles:
// the cached engine must reproduce the uncached engine bit for bit. Two
// passes over the same workload make the second pass all-hits, so both
// the miss path (solve + insert) and the hit path (cached field reuse)
// are held to exactness.
TEST(QueryCacheEquivalenceTest, AllQueryKindsMatchUncachedExactly) {
  for (const uint64_t seed : {311u, 1013u}) {
    for (const double obstacles : {0.0, 1.0}) {
      const BuildingConfig config = SmallBuilding(seed, obstacles);
      QueryEngine cached(GenerateBuilding(config), CacheOptions(true));
      QueryEngine uncached(GenerateBuilding(config), CacheOptions(false));
      ASSERT_NE(cached.index().query_cache(), nullptr);
      ASSERT_EQ(uncached.index().query_cache(), nullptr);

      Rng objects_rng(seed + 1);
      const auto objects =
          GenerateObjects(cached.plan(), 300, &objects_rng);
      PopulateStore(objects, &cached.index().objects());
      PopulateStore(objects, &uncached.index().objects());

      Rng rng(seed + 2);
      const auto pairs = GeneratePositionPairs(cached.plan(), 24, &rng);
      const auto positions = GenerateQueryPositions(cached.plan(), 24, &rng);
      const DistanceContext cached_ctx = cached.index().distance_context();
      const DistanceContext uncached_ctx =
          uncached.index().distance_context();

      for (int pass = 0; pass < 2; ++pass) {
        for (size_t i = 0; i < pairs.size(); ++i) {
          const auto& [a, b] = pairs[i];
          EXPECT_EQ(cached.Distance(a, b), uncached.Distance(a, b))
              << "matrix pt2pt pair " << i << " pass " << pass;
          EXPECT_EQ(Pt2PtDistanceBasic(cached_ctx, a, b),
                    Pt2PtDistanceBasic(uncached_ctx, a, b))
              << "basic pair " << i << " pass " << pass;
          EXPECT_EQ(Pt2PtDistanceVirtual(cached_ctx, a, b),
                    Pt2PtDistanceVirtual(uncached_ctx, a, b))
              << "virtual pair " << i << " pass " << pass;
          EXPECT_EQ(Pt2PtDistanceRefined(cached_ctx, a, b),
                    Pt2PtDistanceRefined(uncached_ctx, a, b))
              << "refined pair " << i << " pass " << pass;
        }
        for (size_t i = 0; i < positions.size(); ++i) {
          const Point& q = positions[i];
          EXPECT_EQ(cached.Range(q, 25.0), uncached.Range(q, 25.0))
              << "range query " << i << " pass " << pass;
          const auto cached_knn = cached.Nearest(q, 8);
          const auto uncached_knn = uncached.Nearest(q, 8);
          ASSERT_EQ(cached_knn.size(), uncached_knn.size())
              << "knn query " << i << " pass " << pass;
          for (size_t j = 0; j < cached_knn.size(); ++j) {
            EXPECT_EQ(cached_knn[j].id, uncached_knn[j].id);
            EXPECT_EQ(cached_knn[j].distance, uncached_knn[j].distance)
                << "knn query " << i << " neighbor " << j << " pass "
                << pass;
          }
        }
      }
      // The second pass must have produced field-cache hits (same
      // workload, warm cache).
      EXPECT_GT(cached.index().query_cache()->FieldStats().hits, 0u);
      EXPECT_GT(cached.index().query_cache()->HostStats().hits, 0u);
    }
  }
}

TEST(QueryCacheEquivalenceTest, HostPartitionMatchesLocator) {
  const FloorPlan plan = GenerateBuilding(SmallBuilding(47, 0.5));
  QueryEngine engine(GenerateBuilding(SmallBuilding(47, 0.5)),
                     CacheOptions(true));
  Rng rng(48);
  for (int i = 0; i < 64; ++i) {
    const Point p = RandomIndoorPosition(engine.plan(), &rng);
    const auto direct = engine.index().locator().GetHostPartition(p);
    for (int repeat = 0; repeat < 2; ++repeat) {  // miss then hit
      const auto cached = engine.Locate(p);
      ASSERT_EQ(cached.ok(), direct.ok());
      if (direct.ok()) {
        EXPECT_EQ(cached.value(), direct.value());
      }
    }
  }
}

// Keys are exact positions, so a point 1 ulp, 1e-9 or 0.01 m away from a
// cached one must not be served its host, fields or results.
TEST(QueryCacheEquivalenceTest, NearbyPositionsStayExact) {
  QueryEngine cached(MakeRunningExamplePlan(), CacheOptions(true));
  QueryEngine uncached(MakeRunningExamplePlan(), CacheOptions(false));
  Rng rng(99);
  PopulateStore(GenerateObjects(cached.plan(), 40, &rng),
                &cached.index().objects());
  Rng same_objects(99);
  PopulateStore(GenerateObjects(uncached.plan(), 40, &same_objects),
                &uncached.index().objects());
  const auto base = GenerateQueryPositions(cached.plan(), 8, &rng);
  const double inf = std::numeric_limits<double>::infinity();
  const auto host = [](const QueryEngine& engine, const Point& q) {
    const auto located = engine.Locate(q);
    return located.ok() ? located.value() : kInvalidId;
  };
  for (const Point& p : base) {
    const Point ulp(std::nextafter(p.x, inf), std::nextafter(p.y, inf));
    for (const Point& near : {ulp, Point(p.x + 1e-9, p.y + 1e-9),
                              Point(p.x + 0.01, p.y + 0.01)}) {
      for (const Point& q : {p, near, p, near}) {
        EXPECT_EQ(host(cached, q), host(uncached, q));
        EXPECT_EQ(cached.Distance(q, base.front()),
                  uncached.Distance(q, base.front()));
        EXPECT_EQ(cached.Range(q, 10.0), uncached.Range(q, 10.0));
        EXPECT_EQ(cached.Nearest(q, 3), uncached.Nearest(q, 3));
      }
    }
  }
}

// ------------------------------------------------------ write invalidation

TEST(QueryCacheInvalidationTest, AddObjectInvalidatesCachedResults) {
  QueryEngine cached(GenerateBuilding(SmallBuilding(71, 0.0)),
                     CacheOptions(true));
  QueryEngine uncached(GenerateBuilding(SmallBuilding(71, 0.0)),
                       CacheOptions(false));
  Rng rng(72);
  const Point q = RandomIndoorPosition(cached.plan(), &rng);
  // Warm the cache with an empty store.
  EXPECT_EQ(cached.Range(q, 30.0), uncached.Range(q, 30.0));
  EXPECT_TRUE(cached.Range(q, 30.0).empty());

  // Insert an object right at the query point through BOTH engines.
  const auto host = uncached.Locate(q);
  ASSERT_TRUE(host.ok());
  const auto id1 = cached.AddObject(host.value(), q);
  const auto id2 = uncached.AddObject(host.value(), q);
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());

  auto after = cached.Range(q, 30.0);
  EXPECT_EQ(after, uncached.Range(q, 30.0));
  EXPECT_FALSE(after.empty());

  // MoveObject to another partition: both engines must again agree.
  PartitionId other = kInvalidId;
  for (const Partition& part : cached.plan().partitions()) {
    if (!part.IsOutdoor() && part.id() != host.value()) {
      other = part.id();
      break;
    }
  }
  ASSERT_NE(other, kInvalidId);
  const Point elsewhere =
      RandomPointInPartition(cached.plan().partition(other), &rng);
  ASSERT_TRUE(cached.MoveObject(id1.value(), other, elsewhere).ok());
  ASSERT_TRUE(uncached.MoveObject(id2.value(), other, elsewhere).ok());
  EXPECT_EQ(cached.Range(q, 30.0), uncached.Range(q, 30.0));
  EXPECT_EQ(cached.Nearest(q, 3).size(), uncached.Nearest(q, 3).size());
}

TEST(QueryCacheInvalidationTest, InvalidateClearsEntries) {
  QueryEngine engine(GenerateBuilding(SmallBuilding(81, 0.5)),
                     CacheOptions(true));
  Rng rng(82);
  const auto positions = GenerateQueryPositions(engine.plan(), 8, &rng);
  for (const Point& q : positions) engine.Range(q, 20.0);
  const QueryCache* cache = engine.index().query_cache();
  EXPECT_GT(cache->FieldStats().entries, 0u);
  engine.index().InvalidateQueryCache();
  EXPECT_EQ(cache->FieldStats().entries, 0u);
  EXPECT_EQ(cache->HostStats().entries, 0u);
}

// --------------------------------------------------------- eviction bound

TEST(QueryCacheEvictionTest, TinyCapacityEvictsButStaysExact) {
  BuildingConfig config = SmallBuilding(91, 1.0);
  IndexOptions tiny = CacheOptions(true);
  // A few KB: far less than the workload's distinct fields, forcing
  // continuous eviction through the whole run.
  tiny.cache_capacity_bytes = 4 << 10;
  QueryEngine cached(GenerateBuilding(config), tiny);
  QueryEngine uncached(GenerateBuilding(config), CacheOptions(false));
  Rng rng(92);
  const auto pairs = GeneratePositionPairs(cached.plan(), 64, &rng);
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& [a, b] : pairs) {
      EXPECT_EQ(cached.Distance(a, b), uncached.Distance(a, b));
    }
  }
  const CacheStats stats = cached.index().query_cache()->FieldStats();
  EXPECT_GT(stats.evictions, 0u);
  // The byte budget is enforced per shard; the total can never exceed the
  // configured capacity.
  EXPECT_LE(stats.bytes, tiny.cache_capacity_bytes);
}

// ------------------------------------------------------- batched execution

std::vector<QueryRequest> MixedBatch(const FloorPlan& plan, size_t count,
                                     Rng* rng) {
  const auto positions = GenerateQueryPositions(plan, count, rng);
  const auto pairs = GeneratePositionPairs(plan, count, rng);
  std::vector<QueryRequest> requests;
  for (size_t i = 0; i < count; ++i) {
    QueryRequest request;
    switch (i % 3) {
      case 0:
        request.kind = QueryRequest::Kind::kRange;
        request.a = positions[i];
        request.radius = 20.0;
        break;
      case 1:
        request.kind = QueryRequest::Kind::kKnn;
        request.a = positions[i];
        request.k = 5;
        break;
      default:
        request.kind = QueryRequest::Kind::kDistance;
        request.a = pairs[i].first;
        request.b = pairs[i].second;
        break;
    }
    requests.push_back(request);
  }
  return requests;
}

// RunBatch must agree bit for bit with the sequential loop, at any thread
// count, with grouping on or off, cache on or off.
TEST(BatchExecutorTest, MatchesSequentialLoopExactly) {
  for (const bool cache : {true, false}) {
    QueryEngine engine(GenerateBuilding(SmallBuilding(101, 0.5)),
                       CacheOptions(cache));
    Rng objects_rng(102);
    PopulateStore(GenerateObjects(engine.plan(), 200, &objects_rng),
                  &engine.index().objects());
    Rng rng(103);
    const auto requests = MixedBatch(engine.plan(), 60, &rng);

    // Sequential reference, computed through the same engine.
    std::vector<QueryResult> expected(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      switch (requests[i].kind) {
        case QueryRequest::Kind::kDistance:
          expected[i].distance =
              engine.Distance(requests[i].a, requests[i].b);
          break;
        case QueryRequest::Kind::kRange:
          expected[i].ids = engine.Range(requests[i].a, requests[i].radius);
          break;
        case QueryRequest::Kind::kKnn:
          expected[i].neighbors = engine.Nearest(requests[i].a,
                                                 requests[i].k);
          break;
      }
    }

    for (const unsigned threads : {1u, 4u}) {
      for (const bool group : {true, false}) {
        BatchOptions options;
        options.threads = threads;
        options.group_by_partition = group;
        const auto results = engine.RunBatch(requests, options);
        ASSERT_EQ(results.size(), expected.size());
        for (size_t i = 0; i < results.size(); ++i) {
          EXPECT_EQ(results[i].distance, expected[i].distance)
              << "request " << i << " threads " << threads << " group "
              << group << " cache " << cache;
          EXPECT_EQ(results[i].ids, expected[i].ids) << "request " << i;
          ASSERT_EQ(results[i].neighbors.size(),
                    expected[i].neighbors.size())
              << "request " << i;
          for (size_t j = 0; j < results[i].neighbors.size(); ++j) {
            EXPECT_EQ(results[i].neighbors[j].id,
                      expected[i].neighbors[j].id);
            EXPECT_EQ(results[i].neighbors[j].distance,
                      expected[i].neighbors[j].distance);
          }
        }
      }
    }
  }
}

TEST(BatchExecutorTest, EmptyBatchAndReuse) {
  QueryEngine engine(MakeRunningExamplePlan(), CacheOptions(true));
  BatchExecutor executor(engine.index(), 2);
  EXPECT_TRUE(executor.Run({}).empty());
  Rng rng(7);
  const auto requests = MixedBatch(engine.plan(), 9, &rng);
  // Repeated Run() calls on one executor (the serving-loop pattern) must
  // keep producing identical results.
  const auto first = executor.Run(requests);
  const auto second = executor.Run(requests);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].distance, second[i].distance);
    EXPECT_EQ(first[i].ids, second[i].ids);
    EXPECT_EQ(first[i].neighbors.size(), second[i].neighbors.size());
  }
}

// ------------------------------------------------- non-finite entry inputs

// Positions no partition can contain (NaN, ±inf, 1e300) and a NaN radius
// get the same well-defined answers with the cache on and off. With the
// cache on, such a position is keyed by its bits and only misses (no
// error result is cached), and a NaN radius must not sweep every door
// and cache an entry.
TEST(QueryCacheEntryPointTest, NonFiniteInputsAnswerLikeCacheOff) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Point> bad = {{nan, 1.0}, {1.0, nan},    {inf, 1.0},
                                  {-inf, 1.0}, {1.0, -inf},  {1e300, 1.0},
                                  {1.0, -1e300}};
  for (const bool cache_on : {true, false}) {
    SCOPED_TRACE(cache_on ? "cache on" : "cache off");
    QueryEngine engine(MakeRunningExamplePlan(), CacheOptions(cache_on));
    Rng rng(5);
    PopulateStore(GenerateObjects(engine.plan(), 40, &rng),
                  &engine.index().objects());
    const Point inside = GenerateQueryPositions(engine.plan(), 1, &rng)[0];
    ASSERT_TRUE(engine.Locate(inside).ok());

    std::vector<QueryRequest> requests;
    for (const Point& p : bad) {
      SCOPED_TRACE(testing::Message() << "position " << p);
      EXPECT_TRUE(engine.Range(p, 2.0).empty());
      EXPECT_TRUE(engine.Nearest(p, 2).empty());
      EXPECT_EQ(engine.Distance(p, inside), kInfDistance);
      EXPECT_EQ(engine.Distance(inside, p), kInfDistance);
      EXPECT_FALSE(engine.Locate(p).ok());
      requests.push_back(QueryRequest::Range(p, 2.0));
      requests.push_back(QueryRequest::Knn(p, 2));
      requests.push_back(QueryRequest::Distance(p, inside));
      requests.push_back(QueryRequest::Distance(inside, p));
    }
    for (const QueryResult& result : engine.RunBatch(requests)) {
      EXPECT_EQ(result.distance, kInfDistance);
      EXPECT_TRUE(result.ids.empty());
      EXPECT_TRUE(result.neighbors.empty());
    }

    const QueryCache* cache = engine.index().query_cache();
    const uint64_t inserted = cache ? cache->ResultStats().insertions : 0;
    EXPECT_TRUE(engine.Range(inside, nan).empty());
    EXPECT_TRUE(engine.Range(inside, -1.0).empty());
    EXPECT_EQ(cache ? cache->ResultStats().insertions : 0, inserted)
        << "a rejected radius must not cache a result";
  }
}

// kNN's k is a count with two specified edges: k = 0 answers empty, and
// any k at or above the population answers every object, nearest first.
// With the cache on, a fresh solve collects k + spares for later repair;
// that sum once wrapped for k near SIZE_MAX, so Nearest(q, SIZE_MAX)
// answered 3 neighbours instead of every object and Nearest(q,
// SIZE_MAX - 3) aborted on the collector's k >= 1 check.
TEST(QueryCacheEntryPointTest, KnnCountEdgesAnswerLikeCacheOff) {
  BuildingConfig config = SmallBuilding(3, 0.2);
  config.floors = 2;
  const FloorPlan plan = GenerateBuilding(config);
  constexpr size_t kObjects = 50;
  const size_t ks[] = {0, kObjects, kObjects + 1, SIZE_MAX - 3, SIZE_MAX};
  QueryEngine on(plan, CacheOptions(true));
  QueryEngine off(plan, CacheOptions(false));
  Rng rng(11);
  const auto objects = GenerateObjects(plan, kObjects, &rng);
  PopulateStore(objects, &on.index().objects());
  PopulateStore(objects, &off.index().objects());
  const auto queries = GenerateQueryPositions(plan, 6, &rng);

  std::vector<QueryRequest> requests;
  std::vector<std::vector<Neighbor>> expected;
  for (const Point& q : queries) {
    for (const size_t k : ks) {
      SCOPED_TRACE(testing::Message() << "q " << q << " k " << k);
      const std::vector<Neighbor> expect =
          reference::KnnQuery(off.index(), q, k);
      ASSERT_EQ(expect.size(), std::min(k, kObjects));
      EXPECT_EQ(off.Nearest(q, k), expect);
      EXPECT_EQ(on.Nearest(q, k), expect);  // fresh solve
      EXPECT_EQ(on.Nearest(q, k), expect);  // cache hit
      requests.push_back(QueryRequest::Knn(q, k));
      expected.push_back(expect);
    }
  }
  for (QueryEngine* engine : {&on, &off}) {
    const auto results = engine->RunBatch(requests);
    ASSERT_EQ(results.size(), expected.size());
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].neighbors, expected[i]) << "request " << i;
    }
  }
}

// Under r = +inf, door expansion from one source door visits a door it
// cannot reach at d = +inf, so that door's sides get the budget
// +inf - +inf = NaN. The cached gates once merged budgets with std::max,
// which keeps whichever of NaN and +inf came first, so a NaN could
// displace the +inf another source door grants the same (partition, door)
// pair; repairing the entry then rejected an object that moved into that
// partition. Plan: host h has a one-way dead-end door s1 (created first,
// so it expands first) and a two-way door s2 to b; door dj connects b to
// room p.
FloorPlan MakeDeadEndDoorPlan() {
  FloorPlanBuilder b;
  const PartitionId h =
      b.AddPartition("h", PartitionKind::kRoom, 1, Rect(0, 0, 4, 4));
  const PartitionId dead_end =
      b.AddPartition("e", PartitionKind::kRoom, 1, Rect(-4, 0, 0, 4));
  const PartitionId mid =
      b.AddPartition("b", PartitionKind::kHallway, 1, Rect(4, 0, 8, 4));
  const PartitionId p =
      b.AddPartition("p", PartitionKind::kRoom, 1, Rect(8, 0, 12, 4));
  b.AddUnidirectionalDoor("s1", Segment({0, 1}, {0, 2}), h, dead_end);
  b.AddBidirectionalDoor("s2", Segment({4, 1}, {4, 2}), h, mid);
  b.AddBidirectionalDoor("dj", Segment({8, 1}, {8, 2}), mid, p);
  Result<FloorPlan> plan = std::move(b).Build();
  INDOOR_CHECK(plan.ok()) << plan.status();
  return std::move(plan).value();
}

TEST(QueryCacheRepairTest, NanBudgetNeverDisplacesInfiniteRadiusGate) {
  const double inf = std::numeric_limits<double>::infinity();
  const Point q(1, 1);
  for (const bool hierarchy : {false, true}) {
    SCOPED_TRACE(hierarchy ? "hierarchy" : "flat");
    IndexOptions on = CacheOptions(true);
    IndexOptions off = CacheOptions(false);
    on.use_hierarchy = off.use_hierarchy = hierarchy;
    QueryEngine cached(MakeDeadEndDoorPlan(), on);
    QueryEngine uncached(MakeDeadEndDoorPlan(), off);
    const PartitionId h = cached.Locate(q).value();
    const PartitionId p = cached.Locate({10, 2}).value();
    for (QueryEngine* engine : {&cached, &uncached}) {
      ASSERT_TRUE(engine->AddObject(h, {3, 3}).ok());
      ASSERT_TRUE(engine->AddObject(p, {10, 3}).ok());
    }
    EXPECT_EQ(cached.Range(q, inf), uncached.Range(q, inf));
    for (QueryEngine* engine : {&cached, &uncached}) {
      ASSERT_TRUE(engine->MoveObject(0, p, {11, 1}).ok());
    }
    const uint64_t repairs = cached.index().query_cache()->Repairs();
    const std::vector<ObjectId> expect = uncached.Range(q, inf);
    EXPECT_EQ(expect, (std::vector<ObjectId>{0, 1}));
    EXPECT_EQ(cached.Range(q, inf), expect);
    EXPECT_EQ(cached.index().query_cache()->Repairs(), repairs + 1)
        << "the second query must take the repair path";
  }
}

// ------------------------------------------------------ concurrent stress

// Many threads hammer one cached engine with overlapping hot positions:
// concurrent hits, misses, inserts, and evictions on the same shards.
// Run under TSan in CI; asserts exactness against an uncached engine.
TEST(QueryCacheConcurrencyTest, ConcurrentHitsAndMissesStayExact) {
  BuildingConfig config = SmallBuilding(121, 0.5);
  IndexOptions small = CacheOptions(true);
  small.cache_capacity_bytes = 64 << 10;  // small enough to evict
  QueryEngine cached(GenerateBuilding(config), small);
  QueryEngine uncached(GenerateBuilding(config), CacheOptions(false));
  Rng objects_rng(122);
  const auto objects = GenerateObjects(cached.plan(), 150, &objects_rng);
  PopulateStore(objects, &cached.index().objects());
  PopulateStore(objects, &uncached.index().objects());

  Rng rng(123);
  const auto positions = GenerateQueryPositions(cached.plan(), 16, &rng);
  const auto pairs = GeneratePositionPairs(cached.plan(), 16, &rng);

  // Uncached expectations, computed sequentially up front.
  std::vector<double> expected_distance(pairs.size());
  std::vector<std::vector<ObjectId>> expected_range(positions.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    expected_distance[i] =
        uncached.Distance(pairs[i].first, pairs[i].second);
  }
  for (size_t i = 0; i < positions.size(); ++i) {
    expected_range[i] = uncached.Range(positions[i], 20.0);
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 40;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      QueryScratch scratch;
      for (int round = 0; round < kRounds; ++round) {
        const size_t i = (t * 7 + round) % pairs.size();
        const double d = cached.Distance(pairs[i].first, pairs[i].second,
                                         &scratch);
        if (d != expected_distance[i]) mismatches.fetch_add(1);
        const size_t j = (t * 5 + round) % positions.size();
        if (cached.Range(positions[j], 20.0, {}, &scratch) !=
            expected_range[j]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
  const CacheStats stats = cached.index().query_cache()->FieldStats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

// ----------------------------------------------------- QueryScratch decay

TEST(QueryScratchDecayTest, ShrinksAfterCapacitySpike) {
  QueryEngine engine(MakeRunningExamplePlan());
  QueryScratch scratch;
  // Simulate a one-off huge query: inflate three scratch buffers far past
  // anything the steady workload needs. `bucket.hot` is the metrics-only
  // hotness staging; its capacity must be counted and released too.
  scratch.src_leg.resize(size_t{4} << 20);  // 32 MiB of doubles
  scratch.d2d_cache.resize(size_t{1} << 20);
  scratch.bucket.hot.resize(size_t{2} << 20);  // 16 MiB of pairs
  scratch.src_leg.shrink_to_fit();
  scratch.d2d_cache.shrink_to_fit();
  scratch.bucket.hot.shrink_to_fit();
  const size_t inflated = scratch.CapacityBytes();
  ASSERT_GE(inflated, size_t{56} << 20);
  scratch.src_leg.clear();
  scratch.d2d_cache.clear();
  scratch.bucket.hot.clear();

  // Run well past one decay interval of small queries.
  Rng rng(5);
  const auto pairs = GeneratePositionPairs(engine.plan(),
                                           QueryScratch::kDecayInterval, &rng);
  for (int i = 0; i < 2 * QueryScratch::kDecayInterval + 1; ++i) {
    engine.Distance(pairs[i % pairs.size()].first,
                    pairs[i % pairs.size()].second, &scratch);
  }
  EXPECT_LT(scratch.CapacityBytes(), inflated / 4)
      << "high-water-mark decay did not release the spike capacity";
  EXPECT_LT(scratch.bucket.hot.capacity(), size_t{2} << 20);
}

TEST(QueryScratchDecayTest, SteadyWorkloadKeepsCapacity) {
  QueryEngine engine(GenerateBuilding(SmallBuilding(131, 0.5)));
  QueryScratch scratch;
  Rng rng(132);
  const auto pairs = GeneratePositionPairs(engine.plan(), 8, &rng);
  // Warm up, snapshot capacity, then run several decay windows of the
  // same workload: capacity must not oscillate (no shrink/regrow churn —
  // that would reintroduce steady-state allocations on the hot path).
  for (int i = 0; i < QueryScratch::kDecayInterval; ++i) {
    engine.Distance(pairs[i % pairs.size()].first,
                    pairs[i % pairs.size()].second, &scratch);
  }
  const size_t warm = scratch.CapacityBytes();
  for (int i = 0; i < 3 * QueryScratch::kDecayInterval; ++i) {
    engine.Distance(pairs[i % pairs.size()].first,
                    pairs[i % pairs.size()].second, &scratch);
  }
  EXPECT_EQ(scratch.CapacityBytes(), warm);
}

}  // namespace
}  // namespace indoor
