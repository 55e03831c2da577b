// Old-vs-new hot-path benchmark for the one-to-many geodesic solver, CSR
// door graph, and QueryScratch work of the pt2pt/range/kNN paths.
//
// For each workload (Fig. 6 pt2pt pairs with obstructed rooms, Fig. 8 range
// queries, Fig. 9 kNN queries) the binary:
//   1. verifies that the optimized implementation returns EXACTLY the same
//      results as the reference (pre-optimization) implementation on every
//      query — bitwise-equal doubles, identical result sets — and fails
//      hard on any mismatch;
//   2. reports ns/query for both sides and the speedup ratio;
//   3. reports steady-state allocations/query for both sides via the
//      counting global operator new (INDOOR_BENCH_COUNT_ALLOCS below); the
//      new pt2pt path must be allocation-free after warm-up.
//
// Flags: --smoke (tiny config, same code paths), --json <path> (machine
// readable results for tools/check_bench_regression.py), --floors <n>,
// --seed <s> (drives building + workload generation; recorded in the JSON
// so artifacts are reproducible run-to-run), --cache {on,off} (the
// optimized side's cross-query cache; off makes range/kNN time the
// algorithm instead of result-cache hits) and --landmarks {on,off} (the
// optimized side's ALT pruning). Both default on and are recorded in the
// JSON, so paired runs can be ratioed and gated against the matching
// baseline table.
// Speedup ratios and alloc counts are machine-independent, which is what
// the committed BENCH_baseline.json pins.

#define INDOOR_BENCH_COUNT_ALLOCS
#include "bench_util.h"

#include <cstring>
#include <string>
#include <vector>

#include "core/distance/pt2pt_distance.h"
#include "core/distance/query_scratch.h"
#include "core/query/reference_impls.h"
#include "util/timer.h"

using namespace indoor;
using namespace indoor::bench;

namespace {

struct WorkloadResult {
  std::string name;
  double old_ns_per_query = 0;
  double new_ns_per_query = 0;
  double old_allocs_per_query = 0;
  double new_allocs_per_query = 0;

  double Speedup() const {
    return new_ns_per_query > 0 ? old_ns_per_query / new_ns_per_query : 0;
  }
};

/// Wall nanoseconds per call of fn(i), i in [0, queries): each of `reps`
/// sweeps is timed separately and the FASTEST sweep wins. Min-of-sweeps
/// suppresses scheduler stalls on shared CI runners, which at smoke sizes
/// (16 queries per sweep) can otherwise dwarf the work being measured and
/// flip the gated speedup ratio run to run.
double NsPerQuery(size_t reps, size_t queries,
                  const std::function<void(size_t)>& fn) {
  double best_ms = -1;
  for (size_t r = 0; r < reps; ++r) {
    WallTimer timer;
    for (size_t i = 0; i < queries; ++i) fn(i);
    const double ms = timer.ElapsedMillis();
    if (best_ms < 0 || ms < best_ms) best_ms = ms;
  }
  return best_ms * 1e6 / static_cast<double>(queries);
}

/// Allocations per call of fn(i) after one warm-up sweep.
double AllocsPerQuery(size_t queries, const std::function<void(size_t)>& fn) {
  for (size_t i = 0; i < queries; ++i) fn(i);  // warm-up: size all buffers
  const auto before = AllocCount();
  for (size_t i = 0; i < queries; ++i) fn(i);
  return static_cast<double>(AllocCount() - before) /
         static_cast<double>(queries);
}

void PrintResult(const WorkloadResult& r) {
  std::printf("%-18s %12.0f ns %12.0f ns %8.2fx %10.1f %10.1f\n",
              r.name.c_str(), r.old_ns_per_query, r.new_ns_per_query,
              r.Speedup(), r.old_allocs_per_query, r.new_allocs_per_query);
}

void WriteJson(const char* path, bool smoke, int floors, uint64_t seed,
               bool cache_on, bool landmarks,
               const std::vector<WorkloadResult>& results) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    std::exit(1);
  }
  std::fprintf(f,
               "{\n  \"smoke\": %s,\n  \"floors\": %d,\n"
               "  \"seed\": %llu,\n  \"cache\": %s,\n"
               "  \"landmarks\": %s,\n  \"workloads\": {\n",
               smoke ? "true" : "false", floors,
               static_cast<unsigned long long>(seed),
               cache_on ? "true" : "false", landmarks ? "true" : "false");
  for (size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    std::fprintf(f,
                 "    \"%s\": {\"old_ns_per_query\": %.1f, "
                 "\"new_ns_per_query\": %.1f, \"speedup\": %.3f, "
                 "\"old_allocs_per_query\": %.2f, "
                 "\"new_allocs_per_query\": %.2f}%s\n",
                 r.name.c_str(), r.old_ns_per_query, r.new_ns_per_query,
                 r.Speedup(), r.old_allocs_per_query, r.new_allocs_per_query,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  },\n  \"metrics\": %s}\n",
               indoor::bench::MetricsJson().c_str());
  std::fclose(f);
}

[[noreturn]] void FailMismatch(const std::string& workload, size_t query) {
  std::fprintf(stderr,
               "FATAL: %s: optimized result differs from reference "
               "implementation on query %zu\n",
               workload.c_str(), query);
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  int floors = 10;
  uint64_t seed = 42;
  bool cache_on = true;
  bool landmarks = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      setenv("INDOOR_BENCH_SMOKE", "1", 1);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--floors") == 0 && i + 1 < argc) {
      floors = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--cache") == 0 && i + 1 < argc) {
      cache_on = std::strcmp(argv[++i], "off") != 0;
    } else if (std::strcmp(argv[i], "--landmarks") == 0 && i + 1 < argc) {
      landmarks = std::strcmp(argv[++i], "off") != 0;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--json <path>] [--floors <n>] "
                   "[--seed <s>] [--cache on|off] [--landmarks on|off]\n",
                   argv[0]);
      return 1;
    }
  }
  const bool smoke = SmokeMode();

  // Fig. 6/8/9 workload with obstructed rooms: obstacles make the
  // intra-partition legs geodesic solves, which is exactly what the
  // one-to-many batching collapses.
  BuildingConfig cfg = PaperBuilding(floors, seed);
  cfg.obstacle_probability = 0.5;
  IndexOptions options;
  options.enable_query_cache = cache_on;
  options.use_landmarks = landmarks;
  QueryEngine engine(GenerateBuilding(cfg), options);
  {
    const size_t object_count = smoke ? 200 : 10000;
    Rng rng(seed * 13 + 991);
    PopulateStore(GenerateObjects(engine.plan(), object_count, &rng),
                  &engine.index().objects());
  }
  const IndexFramework& index = engine.index();
  const DistanceContext ctx = index.distance_context();

  Rng rng(seed * 7 + 2012 + floors);
  const size_t pair_count = SweepCount(64, 16);
  const size_t basic_pair_count = SweepCount(8, 4);
  const size_t query_count = SweepCount(64, 16);
  const auto pairs =
      GeneratePositionPairsByArea(engine.plan(), pair_count, &rng);
  const auto queries =
      GenerateQueryPositions(engine.plan(), query_count, &rng);

  // Hinted contexts (satellite of the scratch work): the hosts are resolved
  // once up front, so the steady-state evaluation skips the R-tree lookup —
  // the stored-object usage pattern.
  std::vector<DistanceContext> hinted(pairs.size(), ctx);
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto vs = index.locator().GetHostPartition(pairs[i].first);
    const auto vt = index.locator().GetHostPartition(pairs[i].second);
    if (vs.ok() && vt.ok()) {
      hinted[i] = ctx.WithHints(vs.value(), vt.value());
    }
  }

  QueryScratch scratch;
  std::vector<WorkloadResult> results;
  const size_t reps = SweepCount(3, 5);

  // ---------------------------------------------------------- pt2pt refined
  {
    for (size_t i = 0; i < pairs.size(); ++i) {
      const double oldd =
          reference::Pt2PtDistanceRefined(ctx, pairs[i].first,
                                          pairs[i].second);
      const double newd = Pt2PtDistanceRefined(hinted[i], pairs[i].first,
                                               pairs[i].second, &scratch);
      if (oldd != newd) FailMismatch("pt2pt_refined", i);
    }
    WorkloadResult r;
    r.name = "pt2pt_refined";
    r.old_ns_per_query = NsPerQuery(reps, pairs.size(), [&](size_t i) {
      reference::Pt2PtDistanceRefined(ctx, pairs[i].first, pairs[i].second);
    });
    r.new_ns_per_query = NsPerQuery(reps, pairs.size(), [&](size_t i) {
      Pt2PtDistanceRefined(hinted[i], pairs[i].first, pairs[i].second,
                           &scratch);
    });
    r.old_allocs_per_query = AllocsPerQuery(pairs.size(), [&](size_t i) {
      reference::Pt2PtDistanceRefined(ctx, pairs[i].first, pairs[i].second);
    });
    r.new_allocs_per_query = AllocsPerQuery(pairs.size(), [&](size_t i) {
      Pt2PtDistanceRefined(hinted[i], pairs[i].first, pairs[i].second,
                           &scratch);
    });
    results.push_back(r);
  }

  // ------------------------------------------------------------ pt2pt basic
  {
    for (size_t i = 0; i < basic_pair_count; ++i) {
      const double oldd = reference::Pt2PtDistanceBasic(ctx, pairs[i].first,
                                                        pairs[i].second);
      const double newd = Pt2PtDistanceBasic(hinted[i], pairs[i].first,
                                             pairs[i].second, &scratch);
      if (oldd != newd) FailMismatch("pt2pt_basic", i);
    }
    WorkloadResult r;
    r.name = "pt2pt_basic";
    r.old_ns_per_query = NsPerQuery(reps, basic_pair_count, [&](size_t i) {
      reference::Pt2PtDistanceBasic(ctx, pairs[i].first, pairs[i].second);
    });
    r.new_ns_per_query = NsPerQuery(reps, basic_pair_count, [&](size_t i) {
      Pt2PtDistanceBasic(hinted[i], pairs[i].first, pairs[i].second,
                         &scratch);
    });
    r.old_allocs_per_query = AllocsPerQuery(basic_pair_count, [&](size_t i) {
      reference::Pt2PtDistanceBasic(ctx, pairs[i].first, pairs[i].second);
    });
    r.new_allocs_per_query = AllocsPerQuery(basic_pair_count, [&](size_t i) {
      Pt2PtDistanceBasic(hinted[i], pairs[i].first, pairs[i].second,
                         &scratch);
    });
    results.push_back(r);
  }

  // ----------------------------------------------------------- range (r=30)
  {
    const double r_query = 30.0;
    for (size_t i = 0; i < queries.size(); ++i) {
      const auto oldr = reference::RangeQuery(index, queries[i], r_query);
      const auto newr = RangeQuery(index, queries[i], r_query, {}, &scratch);
      if (oldr != newr) FailMismatch("range_r30", i);
    }
    WorkloadResult r;
    r.name = "range_r30";
    r.old_ns_per_query = NsPerQuery(reps, queries.size(), [&](size_t i) {
      reference::RangeQuery(index, queries[i], r_query);
    });
    r.new_ns_per_query = NsPerQuery(reps, queries.size(), [&](size_t i) {
      RangeQuery(index, queries[i], r_query, {}, &scratch);
    });
    r.old_allocs_per_query = AllocsPerQuery(queries.size(), [&](size_t i) {
      reference::RangeQuery(index, queries[i], r_query);
    });
    r.new_allocs_per_query = AllocsPerQuery(queries.size(), [&](size_t i) {
      RangeQuery(index, queries[i], r_query, {}, &scratch);
    });
    results.push_back(r);
  }

  // -------------------------------------------------------------- kNN (k=10)
  {
    const size_t k = 10;
    for (size_t i = 0; i < queries.size(); ++i) {
      const auto oldr = reference::KnnQuery(index, queries[i], k);
      const auto newr = KnnQuery(index, queries[i], k, {}, &scratch);
      if (oldr != newr) FailMismatch("knn_k10", i);
    }
    WorkloadResult r;
    r.name = "knn_k10";
    r.old_ns_per_query = NsPerQuery(reps, queries.size(), [&](size_t i) {
      reference::KnnQuery(index, queries[i], k);
    });
    r.new_ns_per_query = NsPerQuery(reps, queries.size(), [&](size_t i) {
      KnnQuery(index, queries[i], k, {}, &scratch);
    });
    r.old_allocs_per_query = AllocsPerQuery(queries.size(), [&](size_t i) {
      reference::KnnQuery(index, queries[i], k);
    });
    r.new_allocs_per_query = AllocsPerQuery(queries.size(), [&](size_t i) {
      KnnQuery(index, queries[i], k, {}, &scratch);
    });
    results.push_back(r);
  }

  PrintTitle("pt2pt/range/kNN hot path: reference vs optimized "
             "(results verified exactly equal)");
  std::printf("%-18s %15s %15s %9s %10s %10s\n", "workload", "old", "new",
              "speedup", "allocs/q", "allocs/q");
  std::printf("%-18s %15s %15s %9s %10s %10s\n", "", "", "", "", "(old)",
              "(new)");
  for (const WorkloadResult& r : results) PrintResult(r);

  if (json_path != nullptr) {
    WriteJson(json_path, smoke, floors, seed, cache_on, landmarks, results);
  }
  return 0;
}
