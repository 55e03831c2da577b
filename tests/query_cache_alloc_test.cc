// Heap allocations on the cross-query cache's miss path (query_cache.h).
// A binary of its own, because it links counting_new.cc, which replaces
// the global operator new with a counting one.
//
// pt2pt requests at fresh positions miss the host and field caches every
// time. Against a tiny budget every miss also evicts, and the new entry is
// written in place into the victim's slot (util/sharded_cache.h): once the
// slots' leg vectors have grown to the largest field they receive, a miss
// allocates nothing, on the flat engine and on the hierarchy alike.

#include <gtest/gtest.h>

#include <cstdint>

#include "core/distance/query_scratch.h"
#include "core/query/query_cache.h"
#include "core/query/query_engine.h"
#include "gen/building_generator.h"
#include "gen/query_generator.h"

// Calls of the replaced global operator new so far (counting_new.cc).
uint64_t AllocationCount();

namespace indoor {
namespace {

TEST(QueryCacheAllocTest, WarmMissesAllocateNothing) {
  for (const bool hierarchy : {false, true}) {
    SCOPED_TRACE(hierarchy ? "hierarchy" : "flat");
    BuildingConfig config;
    config.floors = 3;
    config.rooms_per_floor = 10;
    config.room_to_room_doors = 0.3;
    config.obstacle_probability = 0.5;
    config.seed = 151;
    IndexOptions options;
    options.use_hierarchy = hierarchy;
    options.cache_capacity_bytes = 16 << 10;  // a few dozen entries
    options.cache_shards = 1;
    const QueryEngine engine(GenerateBuilding(config), options);
    Rng rng(152);
    const auto pairs = GeneratePositionPairs(engine.plan(), 7000, &rng);
    QueryScratch scratch;
    // A slot's leg vector grows to the largest field it has held; on this
    // building (69 field slots in the budget) the last one reaches its
    // largest field by request 3572.
    constexpr size_t kWarm = 4000;
    for (size_t i = 0; i < kWarm; ++i) {
      engine.Distance(pairs[i].first, pairs[i].second, &scratch);
    }
    const QueryCache* cache = engine.index().query_cache();
    const CacheStats field_before = cache->FieldStats();
    const CacheStats host_before = cache->HostStats();
    uint64_t allocating = 0;
    for (size_t i = kWarm; i < pairs.size(); ++i) {
      const uint64_t before = AllocationCount();
      engine.Distance(pairs[i].first, pairs[i].second, &scratch);
      if (AllocationCount() != before) {
        ++allocating;
      }
    }
    EXPECT_EQ(allocating, 0u) << "requests that allocated";
    // The measured requests really missed and evicted.
    const CacheStats field = cache->FieldStats();
    const CacheStats host = cache->HostStats();
    EXPECT_GT(field.misses - field_before.misses, pairs.size() - kWarm);
    EXPECT_GT(field.evictions - field_before.evictions, 0u);
    EXPECT_GT(host.evictions - host_before.evictions, 0u);
  }
}

}  // namespace
}  // namespace indoor
