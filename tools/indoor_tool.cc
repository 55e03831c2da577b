// indoor_tool: command-line access to the library — generate buildings,
// validate/inspect plan files, compute distances and paths, run queries,
// and precompute/persist the index container.
//
//   indoor_tool gen --floors 10 --rooms 30 --out plan.txt
//   indoor_tool gen --buildings 4 --out campus.txt
//   indoor_tool info plan.txt
//   indoor_tool validate plan.txt
//   indoor_tool distance plan.txt <x1> <y1> <x2> <y2>
//   indoor_tool path plan.txt <x1> <y1> <x2> <y2>
//   indoor_tool range plan.txt <x> <y> <r> [--objects N] [--seed S]
//   indoor_tool knn plan.txt <x> <y> <k> [--objects N] [--seed S]
//   indoor_tool build plan.txt <out.idx> [--hierarchy] [--threads N]
//   indoor_tool serve plan.txt --load-mmap out.idx   (cold start, no build)
//   indoor_tool stats plan.txt [--queries N] [--objects N] [--seed S]
//
// Each command accepts only the flags it reads (see kCommands); any other
// flag prints the usage text and exits 2.
//
// Observability: every command accepts --metrics-json FILE ("-" = stdout)
// to dump the metrics registry as JSON on exit, and the query commands
// (distance, path, range, knn) accept --trace to print a per-query span
// breakdown. Both require a library built with INDOOR_METRICS=ON (the
// default); an OFF build reports an empty registry.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/distance/query_scratch.h"
#include "core/index/index_io.h"
#include "core/model/accessibility_graph.h"
#include "core/query/query_engine.h"
#include "core/query/workload_replay.h"
#include "gen/building_generator.h"
#include "gen/object_generator.h"
#include "gen/query_generator.h"
#include "indoor/floor_plan_io.h"
#include "util/dashboard.h"
#include "util/metrics.h"
#include "util/query_log.h"
#include "util/slo.h"
#include "util/timer.h"
#include "util/timeseries.h"
#include "util/trace_export.h"

using namespace indoor;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  indoor_tool gen --out PLAN [--floors N] [--rooms N] [--seed S]\n"
      "                  [--r2r P] [--oneway P] [--parallel-stairs]\n"
      "                  [--buildings N] [--gap M]\n"
      "  indoor_tool info PLAN\n"
      "  indoor_tool validate PLAN\n"
      "  indoor_tool distance PLAN X1 Y1 X2 Y2\n"
      "  indoor_tool path PLAN X1 Y1 X2 Y2\n"
      "  indoor_tool range PLAN X Y R [--objects N] [--seed S]\n"
      "  indoor_tool knn PLAN X Y K [--objects N] [--seed S]\n"
      "  indoor_tool build PLAN OUT.idx [--threads N] [--hierarchy]\n"
      "                    [--cell-target N] [--landmark-count N]\n"
      "  indoor_tool stats PLAN [--queries N] [--objects N] [--seed S]\n"
      "  indoor_tool serve PLAN [--threads N] [--batch B] [--skew ZIPF]\n"
      "                    [--requests N] [--positions N] [--objects N]\n"
      "                    [--cache on|off] [--seed S]\n"
      "                    [--move-rate R] [--move-batch M]\n"
      "                    [--query-log F] [--slow-ms MS] [--report N]\n"
      "                    [--record F] [--record-interval-ms N]\n"
      "                    [--slo SPEC] [--trace-out F] [--trace-sample N]\n"
      "                    [--load F.idx | --load-mmap F.idx] [--hierarchy]\n"
      "                    [--knn-approx] [--candidates F]\n"
      "                    [--cell-target N] [--landmark-count N]\n"
      "  indoor_tool replay CAPTURE [--plan PLAN] [--threads N]\n"
      "                    [--speed X] [--cache on|off]\n"
      "                    [--objects N] [--seed S]\n"
      "                    [--load F.idx | --load-mmap F.idx]\n"
      "                    [--hierarchy] [--cell-target N]\n"
      "  indoor_tool dashboard REC [REC...] [--out F.html] [--slo SPEC]\n"
      "                    [--title T]\n"
      "\n"
      "  --threads N        build: index precomputation workers; serve/\n"
      "                     replay: executor workers (default 0 = all\n"
      "                     hardware threads)\n"
      "  --buildings N      gen: emit an N-building campus plan joined by\n"
      "                     a shared outdoor partition (--gap M meters of\n"
      "                     open ground between buildings, default 20)\n"
      "  --hierarchy        build/serve/replay: replace the flat Md2d/Midx\n"
      "                     with the partition-contraction hierarchy\n"
      "                     index (bitwise-identical results, less\n"
      "                     memory)\n"
      "  --cell-target N    build/serve/replay: partitions per hierarchy\n"
      "                     cell before fragments fold in (default 128)\n"
      "  --landmark-count N build/serve: ALT landmarks to select (default\n"
      "                     0 = auto-scale with the door count, see\n"
      "                     docs/BENCHMARKS.md)\n"
      "  --knn-approx       serve: serve kNN from the approximate\n"
      "                     embedding tier (flat engine only; incompatible\n"
      "                     with --query-log — captured digests must stay\n"
      "                     exact for replay)\n"
      "  --candidates F     serve: approximate-tier candidate factor (re-\n"
      "                     rank up to k*F bound-sorted candidates,\n"
      "                     default 8)\n"
      "  --load F.idx       serve/replay: cold-start by READING the index\n"
      "                     container (checksums verified)\n"
      "  --load-mmap F.idx  serve/replay: cold-start by MAPPING the index\n"
      "                     container (zero-copy, lazily paged)\n"
      "  --metrics-json F   on exit, dump the metrics registry as JSON to\n"
      "                     file F (\"-\" = stdout); any command\n"
      "  --trace            print a per-query span breakdown (distance,\n"
      "                     path, range, knn)\n"
      "  --query-log F      serve: log every query to F (binary capture;\n"
      "                     F ending in .jsonl logs JSON lines instead)\n"
      "  --slow-ms MS       serve: slow-query threshold, JSONL to stderr\n"
      "                     (default 100, 0 = off)\n"
      "  --report N         serve: print an interval report (QPS, hit\n"
      "                     rate, interval p99, SLO burn rates) every N\n"
      "                     batches\n"
      "  --record F         serve: dump the flight-recorder ring to F on\n"
      "                     exit (binary recording; F ending in .jsonl\n"
      "                     exports JSON lines instead). Requires a\n"
      "                     library built with INDOOR_METRICS=ON\n"
      "  --record-interval-ms N\n"
      "                     serve: flight-recorder sampling interval\n"
      "                     (default 250)\n"
      "  --slo SPEC         serve/dashboard: latency objectives as\n"
      "                     \"name=THRESHOLD@TARGET[,...]\" (e.g.\n"
      "                     \"knn=2ms@0.999,range=5ms@0.99\"); default:\n"
      "                     the serving objectives in\n"
      "                     docs/OBSERVABILITY.md\n"
      "  --out F.html       dashboard: output path (default\n"
      "                     dashboard.html)\n"
      "  --title T          dashboard: page title\n"
      "  --trace-out F      serve: export sampled query timelines to F as\n"
      "                     Chrome/Perfetto trace JSON\n"
      "  --trace-sample N   serve: keep every Nth query's trace "
      "(default 16)\n"
      "  --move-rate R      serve: object moves per served query (default\n"
      "                     0 = read-only); moves are applied as batches\n"
      "                     between query batches and, with --query-log,\n"
      "                     captured for exact-schedule replay\n"
      "  --move-batch M     serve: cap the moves applied per ingest batch\n"
      "                     (default 0 = all moves due at once)\n"
      "  --speed X          replay: pace at X times capture speed\n"
      "                     (default: as fast as possible)\n");
  return 2;
}

/// A malformed numeric argument: main() prints the usage text and exits 2.
struct BadNumber {};

/// Parses all of `token` as a T with std::from_chars (no leading space or
/// '+', no trailing characters, in range). A floating-point value must be
/// finite; an integer (a count or a seed) must not be negative. Throws
/// BadNumber otherwise.
template <typename T>
T ParseNumber(const std::string& token) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end) throw BadNumber{};
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) throw BadNumber{};
  } else if constexpr (std::is_signed_v<T>) {
    if (value < 0) throw BadNumber{};
  }
  return value;
}

/// Minimal flag parsing: positional args plus --key [value] pairs.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  bool Has(const std::string& key) const { return flags.count(key) > 0; }
  /// The flag's value through ParseNumber<T>; `fallback` when absent.
  template <typename T>
  T Num(const std::string& key, T fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : ParseNumber<T>(it->second);
  }
  std::string Str(const std::string& key, std::string fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
};

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      const std::string key = token.substr(2);
      if (key == "parallel-stairs" || key == "trace" || key == "hierarchy" ||
          key == "knn-approx") {
        args.flags[key] = "1";
      } else if (i + 1 < argc) {
        args.flags[key] = argv[++i];
      } else {
        args.flags[key] = "";
      }
    } else {
      args.positional.push_back(token);
    }
  }
  return args;
}

Result<FloorPlan> LoadOrFail(const std::string& path) {
  auto plan = LoadFloorPlan(path);
  if (!plan.ok()) {
    std::cerr << "error: " << plan.status() << "\n";
  }
  return plan;
}

/// Installs a QueryTrace for the duration of one query when --trace was
/// given, and prints the span breakdown on destruction.
class TraceScope {
 public:
  explicit TraceScope(bool enabled) {
    if (enabled) trace_.emplace();
  }
  ~TraceScope() {
    if (trace_.has_value()) {
      std::printf("trace:\n");
      trace_->WriteReport(stdout);
    }
  }

 private:
  std::optional<metrics::QueryTrace> trace_;
};

int CmdGen(const Args& args) {
  const std::string out = args.Str("out", "");
  if (out.empty()) {
    std::cerr << "gen: --out is required\n";
    return 2;
  }
  BuildingConfig config;
  config.floors = args.Num("floors", 10);
  config.rooms_per_floor = args.Num("rooms", 30);
  config.seed = args.Num<uint64_t>("seed", 42);
  config.room_to_room_doors = args.Num("r2r", 0.0);
  config.one_way_fraction = args.Num("oneway", 0.0);
  config.parallel_staircases = args.Has("parallel-stairs");
  const int buildings = args.Num("buildings", 1);
  FloorPlan plan = [&] {
    if (buildings <= 1) return GenerateBuilding(config);
    CampusConfig campus;
    campus.buildings = buildings;
    campus.building = config;
    campus.building_gap = args.Num("gap", campus.building_gap);
    campus.seed = config.seed;
    return GenerateCampus(campus);
  }();
  const Status st = SaveFloorPlan(plan, out);
  if (!st.ok()) {
    std::cerr << "error: " << st << "\n";
    return 1;
  }
  std::printf("wrote %s: %zu partitions, %zu doors, %d floors\n",
              out.c_str(), plan.partition_count(), plan.door_count(),
              plan.FloorCount());
  return 0;
}

int CmdInfo(const Args& args) {
  if (args.positional.empty()) return Usage();
  auto plan = LoadOrFail(args.positional[0]);
  if (!plan.ok()) return 1;
  const FloorPlan& p = plan.value();
  size_t rooms = 0, hallways = 0, stairs = 0, outdoor = 0, one_way = 0,
         obstacles = 0;
  for (const Partition& part : p.partitions()) {
    switch (part.kind()) {
      case PartitionKind::kRoom: ++rooms; break;
      case PartitionKind::kHallway: ++hallways; break;
      case PartitionKind::kStaircase: ++stairs; break;
      case PartitionKind::kOutdoor: ++outdoor; break;
    }
    obstacles += part.footprint().obstacles().size();
  }
  for (const Door& d : p.doors()) {
    if (!p.IsBidirectional(d.id())) ++one_way;
  }
  const AccessibilityGraph graph(p);
  std::printf("partitions: %zu (%zu rooms, %zu hallways, %zu staircases, "
              "%zu outdoor)\n",
              p.partition_count(), rooms, hallways, stairs, outdoor);
  std::printf("doors:      %zu (%zu one-way)\n", p.door_count(), one_way);
  std::printf("floors:     %d\n", p.FloorCount());
  std::printf("obstacles:  %zu\n", obstacles);
  std::printf("strongly connected: %s\n",
              graph.IsStronglyConnected() ? "yes" : "no");
  return 0;
}

int CmdValidate(const Args& args) {
  if (args.positional.empty()) return Usage();
  auto plan = LoadOrFail(args.positional[0]);
  if (!plan.ok()) return 1;
  std::printf("OK: %s is a valid floor plan\n", args.positional[0].c_str());
  return 0;
}

int CmdDistance(const Args& args, bool with_path) {
  if (args.positional.size() < 5) return Usage();
  const Point a(ParseNumber<double>(args.positional[1]),
                ParseNumber<double>(args.positional[2]));
  const Point b(ParseNumber<double>(args.positional[3]),
                ParseNumber<double>(args.positional[4]));
  auto plan = LoadOrFail(args.positional[0]);
  if (!plan.ok()) return 1;
  QueryEngine engine(std::move(plan).value());
  if (!with_path) {
    double d;
    {
      TraceScope trace(args.Has("trace"));
      d = engine.Distance(a, b);
    }
    if (d == kInfDistance) {
      std::printf("unreachable\n");
      return 1;
    }
    std::printf("%.3f m (Euclidean: %.3f m)\n", d, Distance(a, b));
    return 0;
  }
  TraceScope trace(args.Has("trace"));
  const IndoorPath path = engine.ShortestPath(a, b, /*expand=*/true);
  if (!path.found()) {
    std::printf("unreachable\n");
    return 1;
  }
  std::printf("length: %.3f m, %zu doors\n", path.length,
              path.doors.size());
  for (size_t i = 0; i < path.partitions.size(); ++i) {
    std::printf("  %s", engine.plan().partition(path.partitions[i]).name().c_str());
    if (i < path.doors.size()) {
      std::printf(" -> [%s]",
                  engine.plan().door(path.doors[i]).name().c_str());
    }
    std::printf("\n");
  }
  return 0;
}

int CmdQuery(const Args& args, bool knn) {
  if (args.positional.size() < 4) return Usage();
  // kNN's K is a count: a negative, fractional, NaN or out-of-range K is a
  // usage error, not a float-to-integer conversion.
  const std::string& param = args.positional[3];
  const size_t k = knn ? ParseNumber<size_t>(param) : 0;
  const double radius = knn ? 0.0 : ParseNumber<double>(param);
  const Point q(ParseNumber<double>(args.positional[1]),
                ParseNumber<double>(args.positional[2]));
  const size_t objects = args.Num<size_t>("objects", 1000);
  const uint64_t seed = args.Num<uint64_t>("seed", 7);
  auto plan = LoadOrFail(args.positional[0]);
  if (!plan.ok()) return 1;
  QueryEngine engine(std::move(plan).value());
  Rng rng(seed);
  PopulateStore(GenerateObjects(engine.plan(), objects, &rng),
                &engine.index().objects());
  if (knn) {
    std::vector<Neighbor> result;
    {
      TraceScope trace(args.Has("trace"));
      result = engine.Nearest(q, k);
    }
    std::printf("%zu nearest of %zu objects:\n", result.size(), objects);
    for (const Neighbor& nb : result) {
      const IndoorObject& obj = engine.index().objects().object(nb.id);
      std::printf("  #%u  %.3f m  (in %s)\n", nb.id, nb.distance,
                  engine.plan().partition(obj.partition).name().c_str());
    }
  } else {
    std::vector<ObjectId> result;
    {
      TraceScope trace(args.Has("trace"));
      result = engine.Range(q, radius);
    }
    std::printf("%zu of %zu objects within %.1f m\n", result.size(),
                objects, radius);
  }
  return 0;
}

/// Runs a representative mixed workload (pt2pt distance + range + kNN per
/// round) against a plan, then prints the full metrics report — the
/// quickest way to see every live counter/histogram the library exports.
int CmdStats(const Args& args) {
  if (args.positional.empty()) return Usage();
  const size_t objects = args.Num<size_t>("objects", 1000);
  const size_t queries = args.Num<size_t>("queries", 100);
  Rng rng(args.Num<uint64_t>("seed", 7));
  auto plan = LoadOrFail(args.positional[0]);
  if (!plan.ok()) return 1;
  QueryEngine engine(std::move(plan).value());
  PopulateStore(GenerateObjects(engine.plan(), objects, &rng),
                &engine.index().objects());
  const auto pairs = GeneratePositionPairs(engine.plan(), queries, &rng);
  const auto positions = GenerateQueryPositions(engine.plan(), queries, &rng);
  QueryScratch scratch;
  for (size_t i = 0; i < queries; ++i) {
    engine.Distance(pairs[i].first, pairs[i].second, &scratch);
    engine.Range(positions[i], /*r=*/30.0, {}, &scratch);
    engine.Nearest(positions[i], /*k=*/10, {}, &scratch);
  }
  std::printf("workload: %zu rounds (pt2pt + range r=30 + 10-NN) over %zu "
              "objects\n\n",
              queries, objects);
  metrics::MetricsRegistry::Global().Snapshot().WriteReport(stdout);
  return 0;
}

/// Cold-start support shared by serve and replay: when --load/--load-mmap
/// names an INDOORIX container (indoor_tool build), its structures are
/// adopted instead of rebuilt — --load reads and checksums the file,
/// --load-mmap maps it zero-copy. Without either flag the engine builds
/// everything from the plan (--hierarchy / --cell-target select the
/// partition-contraction index).
Result<QueryEngine> MakeEngine(FloorPlan plan, IndexOptions options,
                               const Args& args) {
  options.use_hierarchy = args.Has("hierarchy");
  options.hierarchy_cell_target =
      args.Num("cell-target", options.hierarchy_cell_target);
  const std::string load = args.Str("load", "");
  const std::string load_mmap = args.Str("load-mmap", "");
  if (load.empty() && load_mmap.empty()) {
    return QueryEngine(std::move(plan), options);
  }
  const bool mmap_mode = !load_mmap.empty();
  const std::string& path = mmap_mode ? load_mmap : load;
  WallTimer timer;
  auto artifacts =
      mmap_mode ? MapIndexContainer(plan, path) : LoadIndexContainer(plan, path);
  if (!artifacts.ok()) return artifacts.status();
  // The container decides the engine mode: a hierarchical container
  // serves through the hierarchy, a flat one through Md2d/Midx.
  options.use_hierarchy = artifacts->hierarchy.has_value();
  std::printf("cold start: %s %s in %.1f ms (%s%s%s%s%s%s)\n",
              mmap_mode ? "mapped" : "loaded", path.c_str(),
              timer.ElapsedMillis(),
              artifacts->md2d.has_value() ? "md2d " : "",
              artifacts->midx.has_value() ? "midx " : "",
              artifacts->hierarchy.has_value() ? "hierarchy " : "",
              artifacts->landmarks.has_value() ? "landmarks " : "",
              artifacts->approx.has_value() ? "approx " : "",
              artifacts->dpt.has_value() ? "dpt" : "");
  return QueryEngine(std::move(plan), std::move(artifacts).value(), options);
}

/// Precomputes every index structure for a plan and persists them as one
/// INDOORIX container (docs/FORMAT.md), then verifies the round trip.
int CmdBuild(const Args& args) {
  if (args.positional.size() < 2) return Usage();
  auto plan = LoadOrFail(args.positional[0]);
  if (!plan.ok()) return 1;
  IndexOptions options;
  options.build_threads = args.Num("threads", 0u);
  options.use_hierarchy = args.Has("hierarchy");
  options.hierarchy_cell_target =
      args.Num("cell-target", options.hierarchy_cell_target);
  options.landmark_count = args.Num("landmark-count", 0u);
  WallTimer timer;
  const IndexFramework index(plan.value(), options);
  const double build_ms = timer.ElapsedMillis();
  const Status st = SaveIndexContainer(index, args.positional[1]);
  if (!st.ok()) {
    std::cerr << "error: " << st << "\n";
    return 1;
  }
  std::printf("built %s index (%zu doors) in %.1f ms, wrote %s (%.2f MB)\n",
              options.use_hierarchy ? "hierarchy" : "flat",
              plan->door_count(), build_ms, args.positional[1].c_str(),
              index.IndexMemoryBytes() / (1024.0 * 1024.0));
  if (options.use_hierarchy) {
    const HierarchyIndex& hier = index.hierarchy_index();
    size_t most_borders = 0;
    for (uint32_t c = 0; c < hier.cell_count(); ++c) {
      most_borders = std::max(most_borders, hier.CellBorderLocals(c).size());
    }
    std::printf("hierarchy cells: %zu cells, %zu border doors, at most %zu "
                "borders in one cell\n",
                hier.cell_count(), hier.border_count(), most_borders);
  }
  const auto loaded = LoadIndexContainer(plan.value(), args.positional[1]);
  if (!loaded.ok()) {
    std::cerr << "round-trip failed: " << loaded.status() << "\n";
    return 1;
  }
  std::printf("round-trip verified\n");
  return 0;
}

/// Serving-loop demo: executes a Zipf-skewed mixed batch workload through
/// BatchExecutor (the cross-query cache + batched parallel execution
/// path), then prints throughput, cache hit rates, and the full metrics
/// report.
int CmdServe(const Args& args) {
  if (args.positional.empty()) return Usage();
  auto plan = LoadOrFail(args.positional[0]);
  if (!plan.ok()) return 1;
  IndexOptions options;
  options.enable_query_cache = args.Str("cache", "on") != "off";
  options.landmark_count = args.Num("landmark-count", 0u);
  options.approx_knn = args.Has("knn-approx");
  options.approx_candidate_factor =
      args.Num("candidates", options.approx_candidate_factor);
  if (options.approx_knn && !args.Str("query-log", "").empty()) {
    // A capture's result digests replay against the exact path; an
    // approximate-tier serve would bake measurably-approximate answers
    // into a file the replay gate treats as ground truth.
    std::cerr << "serve: --knn-approx is incompatible with --query-log\n";
    return 2;
  }
  auto engine_or = MakeEngine(std::move(plan).value(), options, args);
  if (!engine_or.ok()) {
    std::cerr << "error: " << engine_or.status() << "\n";
    return 1;
  }
  QueryEngine& engine = engine_or.value();

  const size_t objects = args.Num<size_t>("objects", 1000);
  const size_t requests = args.Num<size_t>("requests", 3000);
  const size_t position_count = args.Num<size_t>("positions", 256);
  const size_t batch = args.Num<size_t>("batch", 64);
  const unsigned threads = args.Num("threads", 0u);
  const double skew = args.Num("skew", 1.0);
  const double move_rate = args.Num("move-rate", 0.0);
  const size_t move_batch = args.Num<size_t>("move-batch", 0);
  if (move_rate > 0 && objects == 0) {
    std::cerr << "serve: --move-rate requires --objects > 0\n";
    return 2;
  }
  const uint64_t seed = args.Num<uint64_t>("seed", 7);
  Rng rng(seed);
  PopulateStore(GenerateObjects(engine.plan(), objects, &rng),
                &engine.index().objects());
  // Builds (or adopts, when a loaded container carried a fresh ANNX
  // section) the embedding tier for the population above; moves ingested
  // during serving keep it fresh through ApplyMoveBatch.
  if (options.approx_knn) engine.index().RefreshApproxKnn();

  // The workload: positions drawn Zipf-skewed from a fixed pool (hot
  // entrances / popular rooms), kinds cycling range / kNN / pt2pt.
  const auto positions =
      GenerateQueryPositions(engine.plan(), position_count, &rng);
  const auto pairs =
      GeneratePositionPairs(engine.plan(), position_count, &rng);
  const ZipfSampler zipf(position_count, skew);
  std::vector<QueryRequest> workload;
  workload.reserve(requests);
  for (size_t q = 0; q < requests; ++q) {
    QueryRequest request;
    switch (q % 3) {
      case 0:
        request.kind = QueryRequest::Kind::kRange;
        request.a = positions[zipf.Sample(&rng)];
        request.radius = 20.0;
        break;
      case 1:
        request.kind = QueryRequest::Kind::kKnn;
        request.a = positions[zipf.Sample(&rng)];
        request.k = 10;
        break;
      default: {
        const auto& [a, b] = pairs[zipf.Sample(&rng)];
        request.kind = QueryRequest::Kind::kDistance;
        request.a = a;
        request.b = b;
        break;
      }
    }
    workload.push_back(request);
  }

  // Observability: full query log / slow-query log / trace sampling, all
  // optional and all off the hot path when unused.
  const std::string query_log = args.Str("query-log", "");
  const double slow_ms = args.Num("slow-ms", 100.0);
  if (slow_ms < 0) return Usage();
  const std::string trace_out = args.Str("trace-out", "");
  const size_t report_every = args.Num<size_t>("report", 0);
  if (!query_log.empty() || slow_ms > 0) {
    qlog::QueryLogOptions qopts;
    qopts.path = query_log;
    // Clamped below 2^64 ns, so the conversion stays defined.
    qopts.slow_threshold_ns =
        static_cast<uint64_t>(std::min(slow_ms * 1e6, 1e18));
    // The capture context: everything replay needs to rebuild this exact
    // index and object population.
    qopts.context = "plan=" + args.positional[0] +
                    "\nobjects=" + std::to_string(objects) +
                    "\nseed=" + std::to_string(seed) +
                    "\ncache=" +
                    (options.enable_query_cache ? "on" : "off") +
                    "\nbatch=" + std::to_string(batch) +
                    "\nmove-rate=" + std::to_string(move_rate) + "\n";
    const Status st = qlog::QueryLog::Global().Enable(qopts);
    if (!st.ok()) {
      std::cerr << "error: " << st << "\n";
      return 1;
    }
  }
  if (!trace_out.empty()) {
    trace::TraceExportOptions topts;
    topts.sample_every = args.Num<uint32_t>("trace-sample", 16);
    trace::TraceEventCollector::Global().Enable(topts);
  }

  // The flight recorder (util/timeseries.h) runs whenever it can be
  // useful: always with --record, and for --report so the SLO burn rates
  // have a ring to evaluate. --record hard-fails in a metrics-OFF build
  // (the recording would be empty); --report merely loses its SLO lines.
  const std::string record_path = args.Str("record", "");
  slo::SloConfig slo_config = slo::DefaultSloConfig();
  if (args.Has("slo")) {
    auto parsed = slo::ParseSloSpec(args.Str("slo", ""));
    if (!parsed.ok()) {
      std::cerr << "serve: " << parsed.status() << "\n";
      return 2;
    }
    slo_config = std::move(parsed).value();
  }
  tseries::FlightRecorder& recorder = tseries::FlightRecorder::Global();
  if (!record_path.empty() || report_every > 0) {
    tseries::FlightRecorderOptions fropts;
    fropts.interval_ms = args.Num("record-interval-ms", fropts.interval_ms);
    fropts.hotness = &engine.index().hotness();
    fropts.context = "plan=" + args.positional[0] +
                     "\nobjects=" + std::to_string(objects) +
                     "\nbatch=" + std::to_string(batch) +
                     "\ncache=" +
                     (options.enable_query_cache ? "on" : "off") +
                     "\nmove-rate=" + std::to_string(move_rate) + "\n";
    const Status st = recorder.Start(fropts);
    if (!st.ok() && !record_path.empty()) {
      std::cerr << "error: " << st << "\n";
      return 1;
    }
  }

  BatchExecutor executor(engine.index(), threads);
  std::printf(
      "serving %zu requests (skew %.2f over %zu positions) in batches of "
      "%zu on %u threads, cache %s, move rate %.2f\n",
      requests, skew, position_count, batch, executor.thread_count(),
      options.enable_query_cache ? "on" : "off", move_rate);

  // Update ingest: after each query batch, `move_rate` moves per served
  // query fall due and are applied through the observed batched path
  // (ApplyMoveBatch). The move schedule comes from its own generator —
  // independent of the query sampling stream — so the identical mixed
  // workload runs for any cache/thread configuration. Each batch is
  // stably sorted by target partition before submission, so a batch's
  // epoch bumps land as contiguous per-partition runs.
  Rng move_rng(seed ^ 0x6d6f76657321ull);
  const PartitionSampler move_sampler(engine.plan());
  double move_due = 0.0;
  size_t moves_applied = 0;
  size_t move_batches = 0;
  std::vector<MoveOp> moves;
  size_t served = 0;
  size_t hits = 0;  // non-empty / reachable results, to sanity-check
  size_t batches_run = 0;
  size_t interval_served = 0;
  metrics::RegistrySnapshot interval_base =
      metrics::MetricsRegistry::Global().Snapshot();
  WallTimer interval_timer;
  WallTimer timer;
  for (size_t begin = 0; begin < workload.size(); begin += batch) {
    const size_t n = std::min(batch, workload.size() - begin);
    const auto results = executor.Run(
        std::span<const QueryRequest>(workload.data() + begin, n));
    served += results.size();
    interval_served += results.size();
    ++batches_run;
    for (const QueryResult& result : results) {
      if (!result.ids.empty() || !result.neighbors.empty() ||
          result.distance < kInfDistance) {
        ++hits;
      }
    }
    if (move_rate > 0) {
      move_due += static_cast<double>(n) * move_rate;
      while (move_due >= 1.0) {
        size_t m = static_cast<size_t>(move_due);
        if (move_batch > 0) m = std::min(m, move_batch);
        moves.clear();
        moves.reserve(m);
        for (size_t i = 0; i < m; ++i) {
          const PartitionId target = move_sampler.Sample(&move_rng);
          moves.push_back(MoveOp{
              static_cast<ObjectId>(move_rng.NextIndex(objects)), target,
              RandomPointInPartition(engine.plan().partition(target),
                                     &move_rng)});
        }
        std::stable_sort(moves.begin(), moves.end(),
                         [](const MoveOp& a, const MoveOp& b) {
                           return a.partition < b.partition;
                         });
        const Status st = engine.ApplyMoves(moves);
        if (!st.ok()) {
          std::cerr << "error: move batch failed: " << st << "\n";
          return 1;
        }
        moves_applied += m;
        ++move_batches;
        move_due -= static_cast<double>(m);
      }
    }
    if (report_every > 0 && batches_run % report_every == 0) {
      // Interval report from snapshot deltas: what happened since the
      // last report, not since process start.
      const metrics::RegistrySnapshot now =
          metrics::MetricsRegistry::Global().Snapshot();
      const metrics::RegistrySnapshot delta = now.DeltaSince(interval_base);
      uint64_t cache_hits = 0, cache_misses = 0;
      for (const auto& [name, value] : delta.counters) {
        if (name == "cache.field.hits" || name == "cache.host.hits") {
          cache_hits += value;
        } else if (name == "cache.field.misses" ||
                   name == "cache.host.misses") {
          cache_misses += value;
        }
      }
      double p99_us = 0.0;
      for (const auto& hist : delta.histograms) {
        if (hist.name == "batch.latency_ns") {
          p99_us = hist.Percentile(0.99) / 1e3;
        }
      }
      const double secs = interval_timer.ElapsedMillis() / 1000.0;
      std::printf(
          "interval: %zu queries, %.0f QPS, cache hit %.1f%%, "
          "batch p99 %.0f us\n",
          interval_served,
          secs > 0 ? static_cast<double>(interval_served) / secs : 0.0,
          cache_hits + cache_misses > 0
              ? 100.0 * static_cast<double>(cache_hits) /
                    static_cast<double>(cache_hits + cache_misses)
              : 0.0,
          p99_us);
      if (recorder.running()) {
        // Burn rates over the recorder ring; the gauges double as the
        // admission-control signal (slo.*.burn_fast / burn_slow).
        const slo::SloReport slo_report =
            slo::Evaluate(slo_config, recorder.Snapshot().samples);
        slo::PublishGauges(slo_report);
        slo_report.WriteReport(stdout);
      }
      interval_base = now;
      interval_served = 0;
      interval_timer.Restart();
    }
  }
  const double ms = timer.ElapsedMillis();
  if (recorder.running()) {
    recorder.Stop();  // folds the final partial interval into the ring
    if (!record_path.empty()) {
      const Status st = recorder.Dump(record_path);
      if (!st.ok()) {
        std::cerr << "error: " << st << "\n";
        return 1;
      }
      std::printf("recording: %llu intervals (%llu evicted) -> %s\n",
                  static_cast<unsigned long long>(recorder.intervals()),
                  static_cast<unsigned long long>(recorder.evictions()),
                  record_path.c_str());
    }
  }
  std::printf("served %zu requests in %.1f ms: %.0f QPS (%zu non-empty)\n",
              served, ms, served / (ms / 1000.0), hits);
  if (moves_applied > 0) {
    std::printf("applied %zu object moves in %zu ingest batches\n",
                moves_applied, move_batches);
  }

  if (!trace_out.empty()) {
    auto& collector = trace::TraceEventCollector::Global();
    const size_t kept = collector.trace_count();
    const Status st = collector.ExportFile(trace_out);
    if (!st.ok()) {
      std::cerr << "error: " << st << "\n";
      return 1;
    }
    std::printf("trace: %zu sampled query timelines -> %s\n", kept,
                trace_out.c_str());
    collector.Disable();
  }
  if (qlog::QueryLog::Global().enabled()) {
    qlog::QueryLog::Global().Disable();  // drains buffers, writes trailer
    if (!query_log.empty()) {
      std::printf("query log: %llu records -> %s\n",
                  static_cast<unsigned long long>(
                      qlog::QueryLog::Global().records_written()),
                  query_log.c_str());
    }
  }

  if (const QueryCache* cache = engine.index().query_cache()) {
    const CacheStats field = cache->FieldStats();
    const CacheStats host = cache->HostStats();
    const auto rate = [](const CacheStats& s) {
      const uint64_t total = s.hits + s.misses;
      return total == 0 ? 0.0 : 100.0 * static_cast<double>(s.hits) /
                                    static_cast<double>(total);
    };
    std::printf(
        "field cache: %llu hits / %llu misses (%.1f%% hit rate), "
        "%llu entries, %llu bytes\n",
        static_cast<unsigned long long>(field.hits),
        static_cast<unsigned long long>(field.misses), rate(field),
        static_cast<unsigned long long>(field.entries),
        static_cast<unsigned long long>(field.bytes));
    std::printf(
        "host cache:  %llu hits / %llu misses (%.1f%% hit rate), "
        "%llu entries, %llu bytes\n",
        static_cast<unsigned long long>(host.hits),
        static_cast<unsigned long long>(host.misses), rate(host),
        static_cast<unsigned long long>(host.entries),
        static_cast<unsigned long long>(host.bytes));
    const CacheStats result = cache->ResultStats();
    std::printf(
        "result cache: %llu hits / %llu misses (%.1f%% hit rate), "
        "%llu entries, %llu bytes, %llu repairs, %llu epoch rejects\n",
        static_cast<unsigned long long>(result.hits),
        static_cast<unsigned long long>(result.misses), rate(result),
        static_cast<unsigned long long>(result.entries),
        static_cast<unsigned long long>(result.bytes),
        static_cast<unsigned long long>(cache->Repairs()),
        static_cast<unsigned long long>(cache->EpochRejects()));
  }
  std::printf("\n");
  metrics::MetricsRegistry::Global().Snapshot().WriteReport(stdout);
  return 0;
}

/// Replays a binary query-log capture: rebuilds the index and object
/// population from the capture's context block (plan path, object seed,
/// cache settings — all overridable by flags), re-executes the workload
/// preserving batch boundaries and arrival order, and verifies every
/// result digest bitwise. Exit 0 iff every record matched.
int CmdReplay(const Args& args) {
  if (args.positional.empty()) return Usage();
  auto capture = qlog::ReadQueryLogCapture(args.positional[0]);
  if (!capture.ok()) {
    std::cerr << "error: " << capture.status() << "\n";
    return 1;
  }
  const auto context = capture->ContextMap();
  const auto ctx = [&](const std::string& key, const std::string& fallback) {
    const auto it = context.find(key);
    return it == context.end() ? fallback : it->second;
  };
  const std::string plan_path = args.Str("plan", ctx("plan", ""));
  if (plan_path.empty()) {
    std::cerr << "replay: capture has no plan= context; pass --plan\n";
    return 1;
  }
  auto plan = LoadOrFail(plan_path);
  if (!plan.ok()) return 1;

  IndexOptions options;
  options.enable_query_cache =
      args.Str("cache", ctx("cache", "on")) != "off";
  auto engine_or = MakeEngine(std::move(plan).value(), options, args);
  if (!engine_or.ok()) {
    std::cerr << "error: " << engine_or.status() << "\n";
    return 1;
  }
  QueryEngine& engine = engine_or.value();
  const size_t objects =
      args.Num("objects", ParseNumber<size_t>(ctx("objects", "1000")));
  Rng rng(args.Num("seed", ParseNumber<uint64_t>(ctx("seed", "7"))));
  PopulateStore(GenerateObjects(engine.plan(), objects, &rng),
                &engine.index().objects());

  std::printf("replaying %s: %zu records against %s (%zu objects, cache %s)\n",
              args.positional[0].c_str(), capture->records.size(),
              plan_path.c_str(), objects,
              options.enable_query_cache ? "on" : "off");
  ReplayOptions ropts;
  ropts.threads = args.Num("threads", 0u);
  ropts.speed = args.Num("speed", 0.0);
  const auto report = ReplayWorkload(engine.index(), *capture, ropts);
  if (!report.ok()) {
    std::cerr << "error: " << report.status() << "\n";
    return 1;
  }
  WriteReplayReport(*report, stdout);
  return report->AllMatched() ? 0 : 1;
}

/// Renders one or more flight recordings (indoor_tool serve --record,
/// bench_query_throughput --record) to a single self-contained HTML
/// dashboard. Pure file processing — works in metrics-OFF builds too.
int CmdDashboard(const Args& args) {
  if (args.positional.empty()) return Usage();
  dash::DashboardOptions options;
  if (args.Has("slo")) {
    auto parsed = slo::ParseSloSpec(args.Str("slo", ""));
    if (!parsed.ok()) {
      std::cerr << "dashboard: " << parsed.status() << "\n";
      return 2;
    }
    options.slo = std::move(parsed).value();
  }
  options.title = args.Str("title", options.title);
  std::vector<tseries::Recording> recordings;
  recordings.reserve(args.positional.size());
  for (const std::string& path : args.positional) {
    auto recording = tseries::ReadRecording(path);
    if (!recording.ok()) {
      std::cerr << "error: " << recording.status() << "\n";
      return 1;
    }
    recordings.push_back(std::move(recording).value());
  }
  const std::string out = args.Str("out", "dashboard.html");
  const Status st = dash::WriteDashboardFile(recordings, out, options);
  if (!st.ok()) {
    std::cerr << "error: " << st << "\n";
    return 1;
  }
  size_t intervals = 0;
  for (const tseries::Recording& recording : recordings) {
    intervals += recording.samples.size();
  }
  std::printf("dashboard: %zu recording%s (%zu intervals) -> %s\n",
              recordings.size(), recordings.size() == 1 ? "" : "s",
              intervals, out.c_str());
  return 0;
}

/// Honors --metrics-json FILE: dumps the registry snapshot as JSON to FILE
/// ("-" = stdout) after the command has run.
int DumpMetricsJson(const Args& args) {
  const std::string path = args.Str("metrics-json", "");
  if (path.empty()) return 0;
  const std::string json =
      metrics::MetricsRegistry::Global().Snapshot().ToJson();
  if (path == "-") {
    std::fputs(json.c_str(), stdout);
    return 0;
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot open '%s' for writing\n",
                 path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), out);
  std::fclose(out);
  return 0;
}

/// A command and the flags it reads. Any other flag, save --metrics-json
/// (read after every command), prints the usage text and exits 2.
struct Command {
  std::string_view name;
  int (*run)(const Args&);
  std::vector<std::string_view> flags;
};

const Command kCommands[] = {
    {"gen", CmdGen,
     {"out", "floors", "rooms", "seed", "r2r", "oneway", "parallel-stairs",
      "buildings", "gap"}},
    {"info", CmdInfo, {}},
    {"validate", CmdValidate, {}},
    {"distance", [](const Args& a) { return CmdDistance(a, false); },
     {"trace"}},
    {"path", [](const Args& a) { return CmdDistance(a, true); }, {"trace"}},
    {"range", [](const Args& a) { return CmdQuery(a, false); },
     {"objects", "seed", "trace"}},
    {"knn", [](const Args& a) { return CmdQuery(a, true); },
     {"objects", "seed", "trace"}},
    {"build", CmdBuild,
     {"threads", "hierarchy", "cell-target", "landmark-count"}},
    {"stats", CmdStats, {"queries", "objects", "seed"}},
    {"serve", CmdServe,
     {"threads", "batch", "skew", "requests", "positions", "objects",
      "cache", "seed", "move-rate", "move-batch", "query-log", "slow-ms",
      "report", "record", "record-interval-ms", "slo", "trace-out",
      "trace-sample", "load", "load-mmap", "hierarchy", "cell-target",
      "knn-approx", "candidates", "landmark-count"}},
    {"replay", CmdReplay,
     {"plan", "threads", "speed", "cache", "objects", "seed", "load",
      "load-mmap", "hierarchy", "cell-target"}},
    {"dashboard", CmdDashboard, {"out", "slo", "title"}},
};

const Command* FindCommand(std::string_view name) {
  for (const Command& command : kCommands) {
    if (command.name == name) return &command;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const Command* command = FindCommand(argv[1]);
  if (command == nullptr) return Usage();
  const Args args = Parse(argc, argv);
  for (const auto& [key, value] : args.flags) {
    if (key != "metrics-json" &&
        std::find(command->flags.begin(), command->flags.end(), key) ==
            command->flags.end()) {
      std::fprintf(stderr, "%s: unknown flag --%s\n", argv[1], key.c_str());
      return Usage();
    }
  }
  int rc;
  try {
    rc = command->run(args);
  } catch (const BadNumber&) {
    return Usage();
  }
  const int json_rc = DumpMetricsJson(args);
  return rc != 0 ? rc : json_rc;
}
