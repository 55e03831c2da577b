// Serving benchmark of the indoor distance-aware query library.
//
//   serving_bench --workload paper_cold|hotspot_moves|campus_hier
//                 --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// One workload per invocation, one process, closed loop. The run generates
// every input from the seed before timing, sets the index up several
// times, warms the caches, serves for S seconds, checks the results
// against oracles already in the library, and prints each metric by name
// with its unit and sample count. The last stdout line is one JSON object:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1 (an untraced half-run for registry counts followed by a traced
// half-run with outside-in spans). README.md in this directory documents
// the workloads, the metrics and how they relate.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <map>
#include <memory>
#include <sched.h>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

// Counts operator-new calls (the traced run's per-kind allocation counts).
#define INDOOR_BENCH_COUNT_ALLOCS
#include "bench_util.h"
#include "core/distance/query_scratch.h"
#include "core/query/batch_executor.h"
#include "core/query/knn_query.h"
#include "core/query/query_cache.h"
#include "core/query/query_engine.h"
#include "core/query/range_query.h"
#include "core/query/reference_impls.h"
#include "core/query/result_digest.h"
#include "gen/building_generator.h"
#include "gen/object_generator.h"
#include "gen/query_generator.h"
#include "span_recorder.h"
#include "util/metrics.h"
#include "util/random.h"

namespace perfbench {
namespace {

using namespace indoor;  // NOLINT: the benchmark drives this one library
using Kind = QueryRequest::Kind;

/// Requests per executor batch and per client group; moves per ingest batch.
constexpr size_t kBatch = 64;
/// Object moves per served request (hotspot_moves).
constexpr double kMoveRate = 0.1;
/// Hot position pool and pair pool of hotspot_moves (serve's defaults).
constexpr size_t kPoolSize = 256;
/// Pools hotspot_moves serves in turn, kPoolBatches batches each (about
/// 1.5 s), so one pool is hot at a time and the working set still fits the
/// cache. With one pool per run, the tail depended on which positions the
/// seed drew (batch_p99_us 234 us for seed 3, 155 us for seed 7).
constexpr size_t kPools = 16;
constexpr size_t kPoolBatches = 16384;
constexpr double kZipfTheta = 1.0;
/// BatchExecutor workers of hotspot_moves. One, not the modelled two: on
/// a shared 4-vCPU VM two workers swung qps 3x from run to run (README.md).
constexpr unsigned kWorkers = 1;
constexpr size_t kNeighbors = 10;
/// pt2pt oracle tolerance (matrix_distance_test's).
constexpr double kPt2PtTolerance = 1e-6;
/// The single-client workloads serve no writes of their own; one 64-move
/// ApplyMoveBatch every kProbeEvery requests (well under 1% of the run's
/// time) measures ingest on their index, spread over the whole run.
constexpr size_t kProbeEvery = 128;
/// Set-ups per run, half before serving and half after the checks, so
/// that their median samples the machine at both ends of the run (its
/// speed drifts within seconds); setup_s is the median.
constexpr int kSetups = 16;
/// Traced requests whose allocation counts give the per-kind medians.
constexpr size_t kTracedPrefix = 3000;
/// Spans written to the trace file (about 13 MB); all of them feed the
/// printed metrics.
constexpr size_t kWrittenSpans = 100000;
/// Interval between two CpuSteer::Steer calls of a serving loop.
constexpr uint64_t kSteerEveryNs = 1000000000;
/// Requests per second the sample vectors make room for, well above the
/// rates measured (about 17k single-client, 760k batched).
constexpr double kMostClientRate = 1e5;
constexpr double kMostBatchedRate = 2e6;

constexpr std::array<const char*, 3> kKindName = {"pt2pt", "range", "knn"};
constexpr std::array<const char*, 3> kRequestSpan = {
    "request.pt2pt", "request.range", "request.knn"};
constexpr std::array<const char*, 3> kCallSpan = {"query.pt2pt", "query.range",
                                                  "query.knn"};

size_t KindIndex(Kind kind) { return static_cast<size_t>(kind); }

enum class Regime { kPaperCold, kHotspotMoves, kCampusHier };

struct Workload {
  Regime regime;
  const char* name;
  size_t objects;
  double radius;       // range radius, meters
  bool cache;          // IndexOptions::enable_query_cache
  bool hierarchy;      // IndexOptions::use_hierarchy
  size_t stream;       // pre-generated requests (a multiple of 3 * kBatch)
  size_t warmup;       // requests served before measuring
  size_t count_prefix; // requests giving the counts (0: the whole phase)
  uint64_t verify_one_in;  // seeded sample: one request (batch) in N
  size_t move_batches;  // pre-generated 64-move batches, cycled
};

const Workload kWorkloads[] = {
    {Regime::kPaperCold, "paper_cold", 30000, 30.0, false, false,
     3 * kBatch * 2048, 3000, 15000, 64, 4096},
    {Regime::kHotspotMoves, "hotspot_moves", 30000, 20.0, true, false,
     3 * kBatch * 64 * kPools, kBatch * 400, 0, 1024, 4096},
    {Regime::kCampusHier, "campus_hier", 40000, 30.0, true, true,
     3 * kBatch * 2048, 15000, 9000, 8, 4096},
};

// ---- inputs ---------------------------------------------------------------

struct Inputs {
  FloorPlan plan;
  std::vector<GeneratedObject> objects;
  std::vector<QueryRequest> stream;
  /// kBatch-sized move batches, each stably sorted by target partition.
  std::vector<MoveOp> moves;
  size_t distinct_positions = 0;
};

FloorPlan MakePlan(const Workload& w, uint64_t seed) {
  BuildingConfig building;
  building.rooms_per_floor = 30;
  building.obstacle_probability = 0.5;
  if (w.regime == Regime::kCampusHier) {
    CampusConfig campus;
    campus.buildings = 6;
    campus.building = building;
    campus.building.floors = 10;
    campus.seed = seed;
    return GenerateCampus(campus);
  }
  building.floors = 30;
  building.seed = seed;
  return GenerateBuilding(building);
}

QueryRequest MakeRequest(size_t i, const Workload& w, Point a, Point b) {
  switch (i % 3) {
    case 0:
      return QueryRequest::Range(a, w.radius);
    case 1:
      return QueryRequest::Knn(a, kNeighbors);
    default:
      return QueryRequest::Distance(a, b);
  }
}

Inputs Generate(const Workload& w, uint64_t seed) {
  Inputs in{MakePlan(w, seed), {}, {}, {}, 0};
  Rng object_rng(seed * 31 + 7);
  in.objects = GenerateObjects(in.plan, w.objects, &object_rng);

  Rng query_rng(seed ^ 0x7175657279ull);
  in.stream.reserve(w.stream);
  if (w.regime == Regime::kHotspotMoves) {
    // Zipf-skewed draws from fixed pools (indoor_tool serve's traffic):
    // one stream segment per pool, served in turn (see kPoolBatches).
    const ZipfSampler zipf(kPoolSize, kZipfTheta);
    std::vector<Point> positions;
    std::vector<std::pair<Point, Point>> pairs;
    for (size_t i = 0; i < w.stream; ++i) {
      if (i % (w.stream / kPools) == 0) {
        positions = GenerateQueryPositions(in.plan, kPoolSize, &query_rng);
        pairs = GeneratePositionPairs(in.plan, kPoolSize, &query_rng);
      }
      if (i % 3 == 2) {
        const auto& [a, b] = pairs[zipf.Sample(&query_rng)];
        in.stream.push_back(MakeRequest(i, w, a, b));
      } else {
        in.stream.push_back(
            MakeRequest(i, w, positions[zipf.Sample(&query_rng)], {}));
      }
    }
  } else {
    // Every position fresh, by the paper's procedure.
    const auto centers =
        GenerateQueryPositions(in.plan, w.stream / 3 * 2, &query_rng);
    const auto pairs =
        GeneratePositionPairs(in.plan, w.stream / 3, &query_rng);
    for (size_t i = 0; i < w.stream; ++i) {
      const size_t round = i / 3;
      in.stream.push_back(
          i % 3 == 2
              ? MakeRequest(i, w, pairs[round].first, pairs[round].second)
              : MakeRequest(i, w, centers[2 * round + i % 3], {}));
    }
  }
  std::vector<std::pair<double, double>> points;
  for (const QueryRequest& r : in.stream) {
    points.emplace_back(r.a.x, r.a.y);
    if (r.kind == Kind::kDistance) points.emplace_back(r.b.x, r.b.y);
  }
  std::sort(points.begin(), points.end());
  in.distinct_positions = static_cast<size_t>(
      std::unique(points.begin(), points.end()) - points.begin());

  Rng move_rng(seed ^ 0x6d6f76657321ull);
  const PartitionSampler sampler(in.plan);
  in.moves.reserve(w.move_batches * kBatch);
  for (size_t b = 0; b < w.move_batches; ++b) {
    const auto first = in.moves.end() - in.moves.begin();
    for (size_t i = 0; i < kBatch; ++i) {
      const PartitionId target = sampler.Sample(&move_rng);
      const auto id = static_cast<ObjectId>(move_rng.NextIndex(w.objects));
      in.moves.push_back(MoveOp{
          id, target,
          RandomPointInPartition(in.plan.partition(target), &move_rng)});
    }
    std::stable_sort(in.moves.begin() + first, in.moves.end(),
                     [](const MoveOp& a, const MoveOp& b) {
                       return a.partition < b.partition;
                     });
  }
  return in;
}

// ---- registry deltas ------------------------------------------------------

metrics::RegistrySnapshot Snapshot() {
  return metrics::MetricsRegistry::Global().Snapshot();
}

/// Name lookups over a registry snapshot (0 when absent).
struct Registry {
  metrics::RegistrySnapshot snap;

  double Counter(std::string_view name) const {
    for (const auto& [n, v] : snap.counters) {
      if (n == name) return static_cast<double>(v);
    }
    return 0.0;
  }
  double Gauge(std::string_view name) const {
    for (const auto& [n, v] : snap.gauges) {
      if (n == name) return v;
    }
    return 0.0;
  }
  double HistogramMean(std::string_view name) const {
    for (const auto& h : snap.histograms) {
      if (h.name == name) return h.Mean();
    }
    return 0.0;
  }
  double Lookups(const std::string& cache) const {
    return Counter(cache + ".hits") + Counter(cache + ".misses");
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double PeakRssMiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(f);
  return kib / 1024.0;
}

// ---- order statistics -----------------------------------------------------

/// Nearest-rank quantile of `v` (sorted in place); 0 when empty.
double Quantile(std::vector<uint64_t>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v->size())));
  return static_cast<double>((*v)[std::max<size_t>(rank, 1) - 1]);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- CPU steering ---------------------------------------------------------

/// Keeps every thread of the process on one allowed vCPU, the one whose
/// memory accesses are currently fastest. On a shared host a vCPU's speed
/// depends on what other tenants run beside it: on a 4-vCPU VM a pointer
/// chase through 16 MiB took 106-203 ns a step on three vCPUs and
/// 285-295 ns on the fourth, and which vCPU is slow changes. A run left to
/// the scheduler, or pinned where it started, measured whichever it landed
/// on (README.md, "CPU steering"). Steer() times a short chase on each
/// allowed vCPU and confines the process to the fastest, staying put
/// unless another is clearly faster. One vCPU also keeps hotspot_moves'
/// hand-offs between client and executor worker local context switches.
class CpuSteer {
 public:
  CpuSteer() : chain_(kChaseBytes / sizeof(uint32_t)) {
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) {
      CPU_ZERO(&allowed_);
    }
    // Sattolo's shuffle: one random cycle through the whole buffer.
    for (size_t i = 0; i < chain_.size(); ++i) {
      chain_[i] = static_cast<uint32_t>(i);
    }
    Rng rng(0x7374656572ull);
    for (size_t i = chain_.size() - 1; i > 0; --i) {
      std::swap(chain_[i], chain_[rng.NextIndex(i)]);
    }
  }
  ~CpuSteer() { Release(); }
  CpuSteer(const CpuSteer&) = delete;
  CpuSteer& operator=(const CpuSteer&) = delete;

  /// Probes the allowed vCPUs and confines the process to the fastest;
  /// returns the nanoseconds spent.
  uint64_t Steer() {
    const uint64_t start = NowNs();
    int best = -1;
    uint64_t best_ns = UINT64_MAX;
    uint64_t current_ns = UINT64_MAX;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed_) || !Confine(0, cpu)) continue;
      const uint64_t ns = Chase();
      if (ns < best_ns) {
        best_ns = ns;
        best = cpu;
      }
      if (cpu == cpu_) current_ns = ns;
    }
    // A move costs cold caches: stay unless the best is 10% faster.
    if (current_ns != UINT64_MAX &&
        static_cast<double>(best_ns) > 0.9 * static_cast<double>(current_ns)) {
      best = cpu_;
      best_ns = current_ns;
    }
    if (best >= 0) {
      if (cpu_ >= 0 && best != cpu_) ++moves_;
      cpu_ = best;
      ForEachThread([&](int tid) { Confine(tid, best); });
      chase_ns_.push_back(static_cast<double>(best_ns) / kChaseSteps);
    }
    return NowNs() - start;
  }

  /// Lets every thread run on all the allowed vCPUs again.
  void Release() {
    if (cpu_ < 0) return;
    cpu_ = -1;
    ForEachThread([&](int tid) {
      sched_setaffinity(tid, sizeof(allowed_), &allowed_);
    });
  }

  size_t steers() const { return chase_ns_.size(); }
  size_t moves() const { return moves_; }
  /// Median chase time per step on the vCPU chosen, in ns.
  double ChaseMedianNs() const { return Median(chase_ns_); }

 private:
  static constexpr size_t kChaseBytes = size_t{4} << 20;
  static constexpr size_t kChaseSteps = 20000;  // a few ms per vCPU

  static bool Confine(int tid, int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(tid, sizeof(one), &one) == 0;
  }

  template <typename F>
  static void ForEachThread(F f) {
    DIR* dir = opendir("/proc/self/task");
    if (dir == nullptr) {
      f(0);
      return;
    }
    while (const dirent* entry = readdir(dir)) {
      const int tid = std::atoi(entry->d_name);
      if (tid > 0) f(tid);
    }
    closedir(dir);
  }

  uint64_t Chase() {
    uint32_t p = 0;
    const uint64_t start = NowNs();
    for (size_t i = 0; i < kChaseSteps; ++i) p = chain_[p];
    const uint64_t ns = NowNs() - start;
    sink_ += p;  // keeps the chase
    return ns;
  }

  std::vector<uint32_t> chain_;
  cpu_set_t allowed_{};
  int cpu_ = -1;
  size_t moves_ = 0;
  std::vector<double> chase_ns_;
  uint32_t sink_ = 0;
};

// ---- serving --------------------------------------------------------------

IndexOptions Options(const Workload& w) {
  IndexOptions options;
  options.enable_query_cache = w.cache;
  options.use_hierarchy = w.hierarchy;
  return options;
}

/// Builds an engine over a copy of the plan and loads the objects.
/// `handed_over_ns` receives the time the plan was handed to the library.
std::unique_ptr<QueryEngine> BuildEngine(const Inputs& in,
                                         IndexOptions options,
                                         SpanRecorder* recorder,
                                         uint64_t* handed_over_ns) {
  FloorPlan plan = in.plan;  // copying the generated plan is not set-up
  *handed_over_ns = NowNs();
  std::unique_ptr<QueryEngine> engine;
  {
    ScopedSpan span(recorder, "index.build", 0);
    engine = std::make_unique<QueryEngine>(std::move(plan), options);
  }
  ScopedSpan span(recorder, "index.populate", 0);
  for (const GeneratedObject& object : in.objects) {
    const auto id = engine->AddObject(object.partition, object.position);
    if (!id.ok()) {
      std::fprintf(stderr, "object load failed: %s\n",
                   id.status().ToString().c_str());
      std::exit(1);
    }
  }
  return engine;
}

/// A sampled result, kept as its digest (range/kNN) or distance (pt2pt).
struct Sample {
  size_t pos;            // absolute stream position
  size_t moves_applied;  // move batches applied before it was served
  uint32_t count;
  double value;
};

/// Samples of one measured phase.
struct Phase {
  uint64_t wall_ns = 0;   // wall time, steering left out
  uint64_t steer_ns = 0;  // time spent in CpuSteer::Steer
  size_t requests = 0;
  size_t moves = 0;
  /// Per-request latencies by Kind (single client).
  std::array<std::vector<uint64_t>, 3> latency_ns;
  std::array<size_t, 3> served{};  // by Kind
  std::vector<uint64_t> batch_ns;
  /// Requests of each Kind in each batch (hotspot_moves): every request
  /// of a batch waits for the whole Run, so its latency is the batch's.
  std::vector<std::array<uint8_t, 3>> batch_kinds;
  /// Number of the phase's first batch (hotspot_moves): batch i of the
  /// phase falls in pool period (first_batch + i) / kPoolBatches.
  size_t first_batch = 0;
  std::vector<uint64_t> ingest_ns;
  Registry delta;   // registry delta over the phase
  /// Delta over the first count_prefix requests (single client) or the
  /// whole phase (hotspot_moves), with the requests it covers.
  Registry prefix;
  size_t prefix_requests = 0;
  std::array<size_t, 3> prefix_served{};
};

class Runner {
 public:
  /// `executor` null = single-client closed loop.
  Runner(const Workload& w, uint64_t seed, const Inputs& in,
         std::unique_ptr<QueryEngine> engine,
         std::unique_ptr<BatchExecutor> executor, CpuSteer* steer)
      : w_(w),
        seed_(seed),
        in_(in),
        engine_(std::move(engine)),
        executor_(std::move(executor)),
        steer_(steer) {}

  const QueryEngine& engine() const { return *engine_; }
  /// Frees the served engine (and executor) once the checks are done.
  void ReleaseEngine() {
    executor_.reset();
    engine_.reset();
  }
  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }
  size_t stream_wraps() const {
    return std::max(cursor_, batch_cursor_ * kBatch) / in_.stream.size();
  }

  /// Serves until `seconds` have passed and at least `min_requests` were
  /// served. `recorder` non-null = traced (spans + allocation counts).
  Phase Serve(double seconds, size_t min_requests, SpanRecorder* recorder,
              bool keep_samples) {
    recorder_ = recorder;
    keep_samples_ = keep_samples;
    Phase phase;
    phase.first_batch = batch_cursor_;
    // Room for every sample up front: a growing vector copies itself, and
    // the copies made the peak RSS step with the request rate.
    const size_t most = min_requests + static_cast<size_t>(
        seconds * (executor_ != nullptr ? kMostBatchedRate : kMostClientRate));
    if (executor_ == nullptr) {
      for (auto& v : phase.latency_ns) v.reserve(most / 3 + 1);
    } else {
      phase.batch_kinds.reserve(most / kBatch + 1);
    }
    phase.batch_ns.reserve(most / kBatch + 1);
    phase.ingest_ns.reserve(most / kProbeEvery + 1);
    const metrics::RegistrySnapshot base = Snapshot();
    const uint64_t start = NowNs();
    const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    next_steer_ = start + kSteerEveryNs;
    if (executor_ != nullptr) {
      ServeBatches(deadline, min_requests, &phase);
    } else {
      ServeClient(deadline, min_requests, base, &phase);
    }
    phase.wall_ns = NowNs() - start - phase.steer_ns;
    phase.delta.snap = Snapshot().DeltaSince(base);
    if (executor_ != nullptr || phase.prefix_requests == 0) {
      phase.prefix = phase.delta;
      phase.prefix_requests = phase.requests;
      phase.prefix_served = phase.served;
    }
    recorder_ = nullptr;
    return phase;
  }

  /// Median operator-new calls per real query call of the traced run, by
  /// kind, over its first kTracedPrefix requests.
  double AllocMedian(Kind kind) {
    return Quantile(&allocs_[KindIndex(kind)], 0.5);
  }

  /// Checks every sample against the workload's oracle; returns the
  /// number checked and adds mismatches to failed().
  size_t Verify();

 private:
  bool Sampled(size_t id) const {
    return qdigest::Mix(seed_ ^ (id * 0x9e3779b97f4a7c15ull)) %
               w_.verify_one_in ==
           0;
  }

  /// A result the library should never return here: an unreachable pair
  /// (every plan is connected) or fewer than k neighbours.
  static bool ErrorResult(const QueryRequest& rq, const QueryResult& r) {
    switch (rq.kind) {
      case Kind::kDistance:
        return !(r.distance < kInfDistance);
      case Kind::kKnn:
        return r.neighbors.size() != rq.k;
      case Kind::kRange:
        return false;
    }
    return true;
  }

  /// The real call, through the library's public entry points.
  void Call(const QueryRequest& rq, QueryResult* out) {
    const IndexFramework& index = engine_->index();
    switch (rq.kind) {
      case Kind::kRange:
        out->ids = RangeQuery(index, rq.a, rq.radius, {}, &scratch_);
        break;
      case Kind::kKnn:
        out->neighbors = KnnQuery(index, rq.a, rq.k, {}, &scratch_);
        break;
      case Kind::kDistance:
        // Pt2PtDistanceMatrix on the flat index, the hierarchy solver
        // under use_hierarchy.
        out->distance = engine_->Distance(rq.a, rq.b, &scratch_);
        break;
    }
  }

  Result<PartitionId> TracedLocate(const Point& p, uint32_t req,
                                   int32_t root) {
    ScopedSpan span(recorder_, "model.locate", req, root);
    return CachedHostPartition(nullptr, engine_->index().locator(), p);
  }

  void TracedLegs(FieldKind kind, PartitionId v, const Point& p,
                  const std::vector<DoorId>& doors, uint32_t req,
                  int32_t root) {
    ScopedSpan span(recorder_, "model.legs", req, root);
    side_.src_leg.resize(doors.size());
    CachedFieldLegs(nullptr, engine_->index().locator(), kind, v, p, doors,
                    &side_.geo, side_.src_leg.data());
  }

  /// Traced request: standalone locate / legs / host-bucket calls on the
  /// request's own inputs, then the real call. The standalone calls pass
  /// a null cache and their own scratch, so they warm nothing the real
  /// call reads. Returns the real call's interval through t0/t1.
  void TracedCall(size_t pos, const QueryRequest& rq, QueryResult* out,
                  uint64_t* t0, uint64_t* t1) {
    const IndexFramework& index = engine_->index();
    const FloorPlan& plan = index.plan();
    const size_t kind = KindIndex(rq.kind);
    const auto req = static_cast<uint32_t>(pos);
    ScopedSpan root(recorder_, kRequestSpan[kind], req);
    const auto host = TracedLocate(rq.a, req, root.index());
    if (host.ok()) {
      const PartitionId v = host.value();
      if (rq.kind == Kind::kDistance) {
        TracedLegs(FieldKind::kLeaveFrom, v, rq.a, plan.LeaveDoors(v), req,
                   root.index());
        const auto target = TracedLocate(rq.b, req, root.index());
        if (target.ok()) {
          TracedLegs(FieldKind::kEnterTo, target.value(), rq.b,
                     plan.EnterDoors(target.value()), req, root.index());
        }
      } else {
        TracedLegs(FieldKind::kLeaveFrom, v, rq.a, plan.LeaveDoors(v), req,
                   root.index());
        ScopedSpan span(recorder_, "index.host_bucket", req, root.index());
        const GridBucket& bucket = index.objects().bucket(v);
        if (rq.kind == Kind::kRange) {
          side_.neighbors.clear();
          bucket.RangeSearch(plan.partition(v), rq.a, rq.radius,
                             &side_.neighbors, &side_.bucket);
        } else {
          side_.collector.Reset(rq.k);
          bucket.NnSearch(plan.partition(v), rq.a, 0.0, &side_.collector,
                          &side_.bucket);
        }
      }
    }
    const int32_t call = recorder_->Begin(kCallSpan[kind], req, root.index());
    // One client thread: the delta counts this call's allocations only.
    const uint64_t allocs = bench::AllocCount();
    Call(rq, out);
    const uint64_t call_allocs = bench::AllocCount() - allocs;
    recorder_->End(call);
    if (allocs_[kind].size() < kTracedPrefix / 3) {
      allocs_[kind].push_back(call_allocs);
    }
    const Span& s = recorder_->spans()[static_cast<size_t>(call)];
    *t0 = s.start_ns;
    *t1 = s.end_ns;
  }

  /// Single-client closed loop (paper_cold, campus_hier).
  void ServeClient(uint64_t deadline, size_t min_requests,
                   const metrics::RegistrySnapshot& base, Phase* phase) {
    uint64_t group_start = 0;
    for (size_t n = 1;; ++n) {
      const size_t pos = cursor_++;
      const QueryRequest& rq = in_.stream[pos % in_.stream.size()];
      QueryResult result;
      uint64_t t0 = 0, t1 = 0;
      if (recorder_ != nullptr) {
        TracedCall(pos, rq, &result, &t0, &t1);
      } else {
        t0 = NowNs();
        Call(rq, &result);
        t1 = NowNs();
      }
      const size_t kind = KindIndex(rq.kind);
      phase->latency_ns[kind].push_back(t1 - t0);
      ++phase->served[kind];
      if (n % kBatch == 1) group_start = t0;
      if (n % kBatch == 0) phase->batch_ns.push_back(t1 - group_start);
      ++attempted_;
      if (ErrorResult(rq, result)) ++failed_;
      if (keep_samples_ && Sampled(pos)) {
        samples_.push_back({pos, move_cursor_,
                            qdigest::DigestCount(rq, result),
                            qdigest::DigestValue(rq, result)});
      }
      if (n == w_.count_prefix) {
        phase->prefix.snap = Snapshot().DeltaSince(base);
        phase->prefix_requests = n;
        phase->prefix_served = phase->served;
      }
      if (n % kProbeEvery == 0) {
        // Between groups, so no group's time includes it.
        phase->ingest_ns.push_back(ApplyNextMoves(recorder_));
        phase->moves += kBatch;
      }
      if (n % kBatch == 0) MaybeSteer(phase);
      if (t1 >= deadline && n >= min_requests) {
        phase->requests = n;
        return;
      }
    }
  }

  /// Steers once kSteerEveryNs has passed; called between timed intervals.
  void MaybeSteer(Phase* phase) {
    if (NowNs() < next_steer_) return;
    phase->steer_ns += steer_->Steer();
    next_steer_ = NowNs() + kSteerEveryNs;
  }

  /// Applies the schedule's next move batch; returns its duration.
  uint64_t ApplyNextMoves(SpanRecorder* recorder) {
    const size_t batch = move_cursor_++;
    const std::span<const MoveOp> moves(
        in_.moves.data() + batch % (in_.moves.size() / kBatch) * kBatch,
        kBatch);
    ScopedSpan span(recorder, "index.ingest", static_cast<uint32_t>(batch));
    const uint64_t t0 = NowNs();
    const Status st = ApplyMoveBatch(engine_->index(), moves);
    const uint64_t ns = NowNs() - t0;
    attempted_ += kBatch;
    if (!st.ok()) failed_ += kBatch;
    return ns;
  }

  /// Batched serving with interleaved move ingest (hotspot_moves).
  void ServeBatches(uint64_t deadline, size_t min_requests, Phase* phase) {
    const size_t segment_batches = in_.stream.size() / kBatch / kPools;
    for (;;) {
      const size_t batch = batch_cursor_++;
      const size_t pool = batch / kPoolBatches % kPools;
      const size_t first = pool * segment_batches + batch % segment_batches;
      const std::span<const QueryRequest> requests(
          in_.stream.data() + first * kBatch, kBatch);
      std::vector<QueryResult> results;
      uint64_t t0 = 0, t1 = 0;
      {
        ScopedSpan span(recorder_, "query.batch",
                        static_cast<uint32_t>(batch));
        t0 = NowNs();
        results = executor_->Run(requests);
        t1 = NowNs();
      }
      phase->batch_ns.push_back(t1 - t0);
      std::array<uint8_t, 3>& kinds = phase->batch_kinds.emplace_back();
      const bool sampled = keep_samples_ && Sampled(batch);
      for (size_t i = 0; i < kBatch; ++i) {
        const size_t kind = KindIndex(requests[i].kind);
        ++kinds[kind];
        ++phase->served[kind];
        ++attempted_;
        if (ErrorResult(requests[i], results[i])) ++failed_;
        if (sampled) {
          samples_.push_back({first * kBatch + i, move_cursor_,
                              qdigest::DigestCount(requests[i], results[i]),
                              qdigest::DigestValue(requests[i], results[i])});
        }
      }
      phase->requests += kBatch;
      move_due_ += static_cast<double>(kBatch) * kMoveRate;
      while (move_due_ >= static_cast<double>(kBatch)) {
        phase->ingest_ns.push_back(ApplyNextMoves(recorder_));
        phase->moves += kBatch;
        move_due_ -= static_cast<double>(kBatch);
      }
      MaybeSteer(phase);
      if (t1 >= deadline && phase->requests >= min_requests) return;
    }
  }

  const Workload& w_;
  uint64_t seed_;
  const Inputs& in_;
  std::unique_ptr<QueryEngine> engine_;
  std::unique_ptr<BatchExecutor> executor_;  // hotspot_moves only
  CpuSteer* steer_;
  uint64_t next_steer_ = 0;
  QueryScratch scratch_;  // the client's scratch for real calls
  QueryScratch side_;     // scratch of the traced standalone calls
  SpanRecorder* recorder_ = nullptr;
  bool keep_samples_ = false;
  size_t cursor_ = 0;        // next stream position (single client)
  size_t batch_cursor_ = 0;  // next batch (hotspot_moves)
  size_t move_cursor_ = 0;   // next move batch
  double move_due_ = 0.0;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::vector<Sample> samples_;
  std::array<std::vector<uint64_t>, 3> allocs_;
};

bool SameDistance(double a, double b, double tolerance) {
  return a == b || std::fabs(a - b) <= tolerance;
}

size_t Runner::Verify() {
  auto check = [&](const Sample& s, const QueryRequest& rq,
                   const QueryResult& expect, double tolerance) {
    const bool same =
        s.count == qdigest::DigestCount(rq, expect) &&
        (rq.kind == Kind::kDistance
             ? SameDistance(s.value, expect.distance, tolerance)
             : s.value == qdigest::DigestValue(rq, expect));
    if (!same) ++failed_;
  };
  auto request = [&](const Sample& s) -> const QueryRequest& {
    return in_.stream[s.pos % in_.stream.size()];
  };

  // Every oracle is a fresh cache-off flat engine over the same plan and
  // objects that replays the run's move schedule up to each sample. On it
  // paper_cold runs the naive reference implementations; the other two
  // compare its own results bitwise.
  IndexOptions options;
  options.enable_query_cache = false;
  options.build_threads = 3;
  uint64_t unused = 0;
  const auto oracle = BuildEngine(in_, options, nullptr, &unused);
  const IndexFramework& index = oracle->index();
  const bool reference = w_.regime == Regime::kPaperCold;
  const size_t move_batches = in_.moves.size() / kBatch;
  size_t applied = 0;
  for (const Sample& s : samples_) {
    for (; applied < s.moves_applied; ++applied) {
      const std::span<const MoveOp> moves(
          in_.moves.data() + (applied % move_batches) * kBatch, kBatch);
      if (!oracle->ApplyMoves(moves).ok()) ++failed_;
    }
    const QueryRequest& rq = request(s);
    QueryResult expect;
    switch (rq.kind) {
      case Kind::kRange:
        expect.ids = reference ? reference::RangeQuery(index, rq.a, rq.radius)
                               : oracle->Range(rq.a, rq.radius);
        break;
      case Kind::kKnn:
        expect.neighbors = reference ? reference::KnnQuery(index, rq.a, rq.k)
                                     : oracle->Nearest(rq.a, rq.k);
        break;
      case Kind::kDistance:
        expect.distance = reference
                              ? reference::Pt2PtDistanceRefined(
                                    index.distance_context(), rq.a, rq.b)
                              : oracle->Distance(rq.a, rq.b);
        break;
    }
    check(s, rq, expect, reference ? kPt2PtTolerance : 0.0);
  }
  return samples_.size();
}

// ---- reporting ------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;
};

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6f %-6s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
}

void PrintJson(bool correct, size_t attempted, size_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// Nearest-rank quantile of latency samples (ns, weight): a sample of
/// weight w stands for w requests. `samples` must be sorted.
double WeightedQuantile(
    const std::vector<std::pair<uint64_t, uint32_t>>& samples, size_t total,
    double q) {
  const size_t rank = std::max<size_t>(
      static_cast<size_t>(std::ceil(q * static_cast<double>(total))), 1);
  size_t seen = 0;
  for (const auto& [ns, weight] : samples) {
    seen += weight;
    if (seen >= rank) return static_cast<double>(ns);
  }
  return 0.0;
}

using Samples = std::vector<std::pair<uint64_t, uint32_t>>;

/// p50 and p99 in microseconds, with the request count. Each group of
/// samples (the whole phase, or one pool period of hotspot_moves) has its
/// own quantiles, and the metric is their median. Warns when a group's
/// p99 has fewer than ten requests beyond it.
void AddLatency(const std::string& name, std::vector<Samples> groups,
                std::vector<Metric>* out) {
  std::vector<double> p50, p99;
  size_t n = 0;
  for (Samples& samples : groups) {
    std::sort(samples.begin(), samples.end());
    size_t total = 0;
    for (const auto& sample : samples) total += sample.second;
    n += total;
    p50.push_back(WeightedQuantile(samples, total, 0.50) / 1e3);
    p99.push_back(WeightedQuantile(samples, total, 0.99) / 1e3);
    const size_t beyond =
        total -
        static_cast<size_t>(std::ceil(0.99 * static_cast<double>(total)));
    if (beyond < 10) {
      std::fprintf(stderr, "warning: %s_p99_us has %zu samples beyond it\n",
                   name.c_str(), beyond);
    }
  }
  out->push_back({name + "_p50_us", Median(p50), "us", n});
  out->push_back({name + "_p99_us", Median(p99), "us", n});
}

/// The property each workload exists for; a false guard turns the run
/// into a failure.
bool RegimeGuards(const Workload& w, const QueryEngine& engine,
                  const Phase& phase) {
  const Registry& d = phase.delta;
  const double lookups = d.Lookups("cache.field") + d.Lookups("cache.host") +
                         d.Lookups("cache.result");
  std::vector<std::pair<std::string, bool>> guards;
  switch (w.regime) {
    case Regime::kPaperCold:
      guards.emplace_back("no query cache",
                          engine.index().query_cache() == nullptr &&
                              lookups == 0);
      guards.emplace_back("flat Md2d/Midx", engine.index().has_flat_matrix());
      break;
    case Regime::kHotspotMoves: {
      guards.emplace_back("zero field evictions",
                          d.Counter("cache.field.evictions") == 0);
      guards.emplace_back("zero host evictions",
                          d.Counter("cache.host.evictions") == 0);
      guards.emplace_back("nonzero result repairs",
                          d.Counter("cache.result.repairs") > 0);
      const double rate = Ratio(static_cast<double>(phase.moves),
                                static_cast<double>(phase.requests));
      guards.emplace_back(
          "0.1 moves per request",
          std::fabs(rate - kMoveRate) <=
              static_cast<double>(kBatch) /
                  static_cast<double>(phase.requests));
      break;
    }
    case Regime::kCampusHier:
      guards.emplace_back("no flat matrix", !engine.index().has_flat_matrix());
      guards.emplace_back("zero result hits",
                          d.Counter("cache.result.hits") == 0);
      guards.emplace_back("nonzero result evictions",
                          d.Counter("cache.result.evictions") > 0);
      break;
  }
  bool ok = true;
  for (const auto& [name, holds] : guards) {
    std::printf("  guard %-26s %s\n", name.c_str(), holds ? "holds" : "FAILS");
    ok = ok && holds;
  }
  return ok;
}

struct Args {
  std::string workload;
  bool seeded = false;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
};

int Usage() {
  std::fprintf(stderr,
               "usage: serving_bench --workload paper_cold|hotspot_moves|"
               "campus_hier --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*value < '0' || *value > '9' || *end != '\0') return false;
      args->seeded = true;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] - '0';
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seeded &&
         args->seconds > 0 && args->trace >= 0;
}

int Run(const Args& args) {
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) return Usage();
  const Workload& w = *found;
  const bool traced = args.trace == 1;
  const uint64_t run_start = NowNs();
  auto stage = [&](const char* what) {
    std::printf("[%7.3f s] %s\n",
                static_cast<double>(NowNs() - run_start) * 1e-9, what);
  };
  std::printf("workload %s  seed %llu  seconds %.3g  trace %d\n", w.name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);

  // Inputs, all generated from the seed before any timing.
  const Inputs in = Generate(w, args.seed);
  std::printf(
      "  inputs: %zu partitions, %zu doors, %zu objects, %zu requests "
      "(%zu distinct positions), %zu moves\n",
      in.plan.partition_count(), in.plan.door_count(), in.objects.size(),
      in.stream.size(), in.distinct_positions, in.moves.size());
  stage("inputs generated");

  // Set-up and serving run on one vCPU at a time, the fastest (CpuSteer);
  // the checks use three.
  CpuSteer steer;

  // Set-up, repeated: kSetups / 2 times now, the last engine serving, and
  // as often again after the checks.
  SpanRecorder recorder;
  SpanRecorder* rec = traced ? &recorder : nullptr;
  std::vector<double> setup_s;
  std::map<std::string, std::vector<double>> build_ms;
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<BatchExecutor> executor;
  auto set_up = [&] {
    executor.reset();
    engine.reset();
    steer.Steer();
    uint64_t t0 = 0;
    engine = BuildEngine(in, Options(w), rec, &t0);
    // Spawning the executor's workers completes hotspot_moves' set-up.
    if (w.regime == Regime::kHotspotMoves) {
      executor = std::make_unique<BatchExecutor>(engine->index(), kWorkers);
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  };
  for (int i = 0; i < kSetups / 2; ++i) {
    set_up();
    // The build.* gauges hold the phases of the last build that set them.
    // Read them only here: the checks build a flat oracle engine, which
    // would leave its own Md2d/Midx figures behind on campus_hier.
    const Registry gauges{Snapshot()};
    for (const char* g : {"build.md2d_ms", "build.midx_ms",
                          "build.landmarks_ms", "build.hier_ms",
                          "build.objects_ms", "build.graph_ms",
                          "build.locator_ms"}) {
      build_ms[g].push_back(gauges.Gauge(g));
    }
  }
  const double index_mib =
      static_cast<double>(engine->index().IndexMemoryBytes()) / (1 << 20);
  // The result cache gets a quarter of the geometry budget on top.
  const IndexFramework& index = engine->index();
  const double cache_mib =
      index.query_cache() == nullptr
          ? 0.0
          : static_cast<double>(index.options().cache_capacity_bytes) /
                (1 << 20);
  std::printf(
      "  sizes: index %.3f MiB, cache budget %.0f MiB geometry + %.0f MiB "
      "results, flat matrix %s\n",
      index_mib, cache_mib, cache_mib / 4,
      index.has_flat_matrix() ? "yes" : "no (hierarchy)");

  stage("set-ups done");
  Runner runner(w, args.seed, in, std::move(engine), std::move(executor),
                &steer);
  steer.Steer();
  runner.Serve(0.0, w.warmup, nullptr, false);
  stage("warm-up done");

  const double seconds = traced ? args.seconds / 2 : args.seconds;
  Phase phase = runner.Serve(seconds, w.count_prefix, nullptr, true);
  const double peak_rss = PeakRssMiB();
  const double qps = static_cast<double>(phase.requests) /
                     (static_cast<double>(phase.wall_ns) * 1e-9);
  Phase traced_phase;
  if (traced) {
    traced_phase = runner.Serve(seconds, kTracedPrefix, rec, true);
  }
  std::printf("  served %zu requests, %zu moves in %.3f s (stream wrapped "
              "%zu times)\n",
              phase.requests + traced_phase.requests,
              phase.moves + traced_phase.moves,
              static_cast<double>(phase.wall_ns + traced_phase.wall_ns) *
                  1e-9,
              runner.stream_wraps());

  stage("measured");
  std::printf("  steering: %zu probes, %zu moves between vCPUs, chase on "
              "the chosen vCPU %.1f ns a step (median)\n",
              steer.steers(), steer.moves(), steer.ChaseMedianNs());
  steer.Release();
  bool correct = RegimeGuards(w, runner.engine(), phase);
  const size_t checked = runner.Verify();
  stage("verified");
  std::printf("  verified %zu sampled requests (seeded 1 in %llu %s), %zu "
              "failed of %zu attempted\n",
              checked, static_cast<unsigned long long>(w.verify_one_in),
              w.regime == Regime::kHotspotMoves ? "batches" : "requests",
              runner.failed(), runner.attempted());
  std::printf("  fail_share %.6f ratio n=%zu\n",
              Ratio(static_cast<double>(runner.failed()),
                    static_cast<double>(runner.attempted())),
              runner.attempted());
  correct = correct && runner.failed() == 0 && checked > 0;
  if (!correct) {
    PrintJson(false, runner.attempted(), runner.failed(), {});
    return 1;
  }
  runner.ReleaseEngine();
  const double setup_before = Median(setup_s);
  while (setup_s.size() < static_cast<size_t>(kSetups)) set_up();
  executor.reset();
  engine.reset();
  std::printf("  set-up: median %.4f s over %zu (before serving %.4f s, "
              "after the checks %.4f s)\n",
              Median(setup_s), setup_s.size(), setup_before,
              Median({setup_s.begin() + kSetups / 2, setup_s.end()}));
  stage("set-ups after the checks done");

  std::vector<Metric> out;
  if (!traced) {
    out.push_back({"setup_s", Median(setup_s), "s", setup_s.size()});
    out.push_back({"index_mb", index_mib, "MiB", 1});
    out.push_back({"rss_mb", peak_rss, "MiB", 1});
    out.push_back({"qps", qps, "1/s", phase.requests});
    // Latency groups. hotspot_moves: one per pool period that holds at
    // least a quarter of its batches, so that a seed's quantiles do not
    // hang on one or two of its sixteen pools (README.md). The single-client
    // workloads: the whole phase.
    const size_t batches = phase.batch_ns.size();
    std::vector<size_t> group(batches, 0);
    size_t groups = 1;
    if (!phase.batch_kinds.empty()) {
      auto period = [&](size_t b) {
        return (phase.first_batch + b) / kPoolBatches;
      };
      std::map<size_t, size_t> size, index;
      for (size_t b = 0; b < batches; ++b) ++size[period(b)];
      for (const auto& [p, count] : size) {
        if (count >= kPoolBatches / 4) index.emplace(p, index.size());
      }
      if (!index.empty()) {  // else a short run: the whole phase
        groups = index.size();
        for (size_t b = 0; b < batches; ++b) {
          const auto it = index.find(period(b));
          group[b] = it == index.end() ? groups : it->second;
        }
      }
    }
    for (const Kind kind : {Kind::kRange, Kind::kKnn, Kind::kDistance}) {
      const size_t k = KindIndex(kind);
      std::vector<Samples> samples(groups + 1);
      for (const uint64_t ns : phase.latency_ns[k]) {
        samples[0].emplace_back(ns, 1);
      }
      for (size_t b = 0; b < phase.batch_kinds.size(); ++b) {
        if (phase.batch_kinds[b][k] > 0) {
          samples[group[b]].emplace_back(phase.batch_ns[b],
                                         phase.batch_kinds[b][k]);
        }
      }
      samples.pop_back();  // the short periods
      AddLatency(kKindName[k], std::move(samples), &out);
    }
    std::vector<Samples> batch_samples(groups + 1);
    for (size_t b = 0; b < batches; ++b) {
      batch_samples[group[b]].emplace_back(phase.batch_ns[b], 1);
    }
    batch_samples.pop_back();
    AddLatency("batch", std::move(batch_samples), &out);
    out.push_back({"ingest_p50_us", Quantile(&phase.ingest_ns, 0.5) / 1e3,
                   "us", phase.ingest_ns.size()});
    std::printf("end-to-end metrics:\n");
    PrintMetrics(out);
    PrintJson(true, runner.attempted(), runner.failed(), out);
    return 0;
  }

  // ---- per-layer metrics ----
  // Counts: registry deltas over the untraced phase's first count_prefix
  // requests (the whole phase for the multi-threaded hotspot_moves).
  const Registry& c = phase.prefix;
  const double requests = static_cast<double>(phase.prefix_requests);
  const double pt2pt_requests = static_cast<double>(
      phase.prefix_served[KindIndex(Kind::kDistance)]);
  auto per_req = [&](const char* counter) {
    return Ratio(c.Counter(counter), requests);
  };
  const double result_lookups = c.Lookups("cache.result");
  const size_t count_n = phase.prefix_requests;

  // Times: the traced phase's spans.
  const std::vector<Span>& spans = recorder.spans();
  const std::vector<uint64_t> self = recorder.SelfTimes();
  std::map<std::string, std::vector<uint64_t>> durations, self_times;
  std::vector<int64_t> call_ns(spans.size(), 0), side_ns(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    durations[s.name].push_back(SpanRecorder::Duration(s));
    self_times[s.name].push_back(self[i]);
    if (s.parent < 0) continue;
    const auto p = static_cast<size_t>(s.parent);
    const auto d = static_cast<int64_t>(SpanRecorder::Duration(s));
    if (std::strncmp(s.name, "query.", 6) == 0) {
      call_ns[p] = d;
    } else {
      side_ns[p] += d;
    }
  }
  std::array<std::vector<int64_t>, 3> rest;
  for (size_t i = 0; i < spans.size(); ++i) {
    for (size_t k = 0; k < 3; ++k) {
      if (std::strcmp(spans[i].name, kRequestSpan[k]) == 0) {
        rest[k].push_back(call_ns[i] - side_ns[i]);
      }
    }
  }
  std::printf("traced phase self times (%zu spans):\n", spans.size());
  std::printf("  %-18s %9s %12s %12s %11s %11s\n", "span", "count",
              "total_ms", "self_ms", "p50_us", "self_p50_us");
  for (auto& [name, d] : durations) {
    auto& st = self_times[name];
    uint64_t total = 0, self_total = 0;
    for (const uint64_t v : d) total += v;
    for (const uint64_t v : st) self_total += v;
    std::printf("  %-18s %9zu %12.3f %12.3f %11.3f %11.3f\n", name.c_str(),
                d.size(), static_cast<double>(total) / 1e6,
                static_cast<double>(self_total) / 1e6,
                Quantile(&d, 0.5) / 1e3, Quantile(&st, 0.5) / 1e3);
  }
  auto p50_us = [&](const char* name) {
    auto it = durations.find(name);
    return it == durations.end() ? 0.0 : Quantile(&it->second, 0.5) / 1e3;
  };
  auto count_of = [&](const char* name) {
    auto it = durations.find(name);
    return it == durations.end() ? size_t{0} : it->second.size();
  };
  uint64_t ingest_total = 0;
  size_t ingest_moves = 0;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, "index.ingest") == 0) {
      ingest_total += SpanRecorder::Duration(s);
      ingest_moves += kBatch;
    }
  }
  const double traced_qps =
      static_cast<double>(traced_phase.requests) /
      (static_cast<double>(traced_phase.wall_ns) * 1e-9);

  for (size_t k : {KindIndex(Kind::kRange), KindIndex(Kind::kKnn),
                   KindIndex(Kind::kDistance)}) {
    std::vector<int64_t>& r = rest[k];
    std::sort(r.begin(), r.end());
    const double p50 =
        r.empty() ? 0.0
                  : static_cast<double>(r[(r.size() + 1) / 2 - 1]) / 1e3;
    out.push_back({std::string("query.") + kKindName[k] + "_rest_us", p50,
                   "us", r.size()});
  }
  for (const Kind kind : {Kind::kRange, Kind::kKnn, Kind::kDistance}) {
    out.push_back({std::string("query.") + kKindName[KindIndex(kind)] +
                       "_allocs",
                   runner.AllocMedian(kind), "count",
                   std::min(kTracedPrefix / 3,
                            traced_phase.served[KindIndex(kind)])});
  }
  out.push_back({"query.result_hit_share",
                 Ratio(c.Counter("cache.result.hits"), result_lookups),
                 "ratio", count_n});
  out.push_back({"query.result_repair_share",
                 Ratio(c.Counter("cache.result.repairs"), result_lookups),
                 "ratio", count_n});
  out.push_back({"query.epoch_reject_share",
                 Ratio(c.Counter("cache.epoch_rejects"), result_lookups),
                 "ratio", count_n});
  out.push_back({"query.host_hit_share",
                 Ratio(c.Counter("cache.host.hits"), c.Lookups("cache.host")),
                 "ratio", count_n});
  out.push_back({"query.field_hit_share",
                 Ratio(c.Counter("cache.field.hits"),
                       c.Lookups("cache.field")),
                 "ratio", count_n});
  out.push_back({"query.evictions_per_req",
                 Ratio(c.Counter("cache.field.evictions") +
                           c.Counter("cache.host.evictions") +
                           c.Counter("cache.result.evictions"),
                       requests),
                 "count", count_n});
  out.push_back({"query.groups_per_batch", c.HistogramMean("batch.groups"),
                 "count", count_n});
  out.push_back({"model.locate_us", p50_us("model.locate"), "us",
                 count_of("model.locate")});
  out.push_back({"model.legs_us", p50_us("model.legs"), "us",
                 count_of("model.legs")});
  out.push_back({"model.locates_per_req", per_req("index.locator.lookups"),
                 "count", count_n});
  out.push_back({"model.distv_doors_per_req", per_req("distance.distv.doors"),
                 "count", count_n});
  out.push_back({"rtree.nodes_per_locate",
                 Ratio(c.Counter("index.rtree.node_visits"),
                       c.Counter("index.rtree.point_queries")),
                 "count", count_n});
  out.push_back({"index.host_bucket_us", p50_us("index.host_bucket"), "us",
                 count_of("index.host_bucket")});
  out.push_back({"index.rows_per_req", per_req("index.md2d.row_fetches"),
                 "count", count_n});
  out.push_back({"index.entries_per_req", per_req("index.scan.entries"),
                 "count", count_n});
  out.push_back({"index.objects_tested_per_req",
                 per_req("index.grid.objects_tested"), "count", count_n});
  out.push_back({"index.cell_prune_share",
                 Ratio(c.Counter("index.grid.cells_pruned"),
                       c.Counter("index.grid.cells_visited")),
                 "ratio", count_n});
  out.push_back({"index.results_per_range",
                 c.HistogramMean("query.range.results"), "count", count_n});
  out.push_back({"index.hier_block_share",
                 Ratio(c.Counter("index.hier.range.block_scans"),
                       c.Counter("index.hier.range.block_scans") +
                           c.Counter("index.hier.range.runs")),
                 "ratio", count_n});
  out.push_back({"index.ingest_us_per_move",
                 Ratio(static_cast<double>(ingest_total) / 1e3,
                       static_cast<double>(ingest_moves)),
                 "us", ingest_moves});
  const std::pair<const char*, const char*> builds[] = {
      {"index.build_md2d_ms", "build.md2d_ms"},
      {"index.build_midx_ms", "build.midx_ms"},
      {"index.build_landmarks_ms", "build.landmarks_ms"},
      {"index.build_hier_ms", "build.hier_ms"},
      {"index.build_objects_ms", "build.objects_ms"},
      {"model.build_graph_ms", "build.graph_ms"},
      {"model.build_locator_ms", "build.locator_ms"}};
  for (const auto& [metric, gauge] : builds) {
    out.push_back({metric, Median(build_ms[gauge]), "ms",
                   build_ms[gauge].size()});
  }
  out.push_back({"distance.runs_per_req", per_req("distance.dijkstra.runs"),
                 "count", count_n});
  out.push_back({"distance.settles_per_req",
                 per_req("distance.dijkstra.settles"), "count", count_n});
  out.push_back({"distance.hier_runs_per_pt2pt",
                 Ratio(c.Counter("index.hier.pt2pt.runs"), pt2pt_requests),
                 "count", phase.prefix_served[KindIndex(Kind::kDistance)]});
  out.push_back({"util.trace_overhead_share", 1.0 - traced_qps / qps, "ratio",
                 traced_phase.requests});
  std::printf("per-layer metrics:\n");
  PrintMetrics(out);

  if (!args.trace_out.empty()) {
    if (!recorder.WriteChromeTrace(args.trace_out, kWrittenSpans)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
    std::printf("  first %zu of %zu spans written to %s\n",
                std::min(kWrittenSpans, spans.size()), spans.size(),
                args.trace_out.c_str());
  }
  PrintJson(true, runner.attempted(), runner.failed(), out);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return perfbench::Usage();
  return perfbench::Run(args);
}
