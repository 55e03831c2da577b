// Correctness suite for the cross-query work-sharing layer: the sharded
// source-field / host-partition cache (query_cache.h) and the batched
// parallel executor (batch_executor.h).
//
// The load-bearing property is EXACTNESS: a cached engine must return
// bitwise-identical results to an uncached engine over the same plan, for
// every query kind, on randomized buildings with and without obstructed
// rooms — the cache is a pure work-sharing layer, never an approximation.
// The suite also covers the generic ShardedCache (LRU eviction under a
// tiny budget), write invalidation, QueryScratch capacity decay, and a
// concurrent hit/miss stress that CI runs under TSan.

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <thread>
#include <vector>

#include "core/distance/pt2pt_distance.h"
#include "core/distance/query_scratch.h"
#include "core/query/batch_executor.h"
#include "core/query/query_cache.h"
#include "core/query/query_engine.h"
#include "gen/building_generator.h"
#include "gen/object_generator.h"
#include "gen/query_generator.h"
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
  // The accept functor refusing the entry (e.g. quantum collision) must
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
  // Touch 1 so 2 becomes the LRU victim.
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

// Two exact positions in the same quantum cell must not serve each
// other's fields: the entry stores the exact point and re-solves on
// mismatch.
TEST(QueryCacheEquivalenceTest, QuantumCollisionsStayExact) {
  QueryEngine cached(MakeRunningExamplePlan(), CacheOptions(true));
  QueryEngine uncached(MakeRunningExamplePlan(), CacheOptions(false));
  Rng rng(99);
  const auto base = GenerateQueryPositions(cached.plan(), 8, &rng);
  const double quantum = cached.index().query_cache()->options().quantum;
  for (const Point& p : base) {
    // Same cell as p (offset well below one quantum), different point.
    const Point near(p.x + quantum / 16.0, p.y + quantum / 16.0);
    for (const Point& q : {p, near, p, near}) {
      EXPECT_EQ(cached.Distance(q, base.front()),
                uncached.Distance(q, base.front()));
      EXPECT_EQ(cached.Range(q, 10.0), uncached.Range(q, 10.0));
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
// cache on, such a position used to reach the key quantizer, whose
// double-to-int64 cast overflowed (UBSan: float-cast-overflow), and a NaN
// radius swept every door and cached an entry.
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
  // Simulate a one-off huge query: inflate two scratch buffers far past
  // anything the steady workload needs.
  scratch.src_leg.resize(size_t{4} << 20);  // 32 MiB of doubles
  scratch.d2d_cache.resize(size_t{1} << 20);
  scratch.src_leg.shrink_to_fit();
  scratch.d2d_cache.shrink_to_fit();
  const size_t inflated = scratch.CapacityBytes();
  ASSERT_GT(inflated, size_t{16} << 20);
  scratch.src_leg.clear();
  scratch.d2d_cache.clear();

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
