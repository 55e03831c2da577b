// Concurrent query serving bench: aggregate queries-per-second of the
// read path (range + kNN + pt2pt distance over one shared immutable
// IndexFramework) as the number of reader threads grows — the
// multi-reader scaling picture the road-network kNN study and the NMSLIB
// manual both report for credible in-memory index comparisons.
//
//   bench_query_throughput [--floors N] [--objects N] [--readers 1,2,4,8]
//                          [--queries-per-reader N] [--positions N]
//                          [--zipf THETA] [--cache on|off] [--batch B]
//                          [--landmarks on|off]
//                          [--knn-approx] [--candidates F]
//                          [--landmark-count N]
//                          [--obstacles P] [--mix all|distance|range|knn]
//                          [--move-rate R] [--move-batch M]
//                          [--seed S] [--json out.json] [--smoke]
//                          [--query-log out.qlog]
//                          [--record out.rec] [--record-interval-ms N]
//
// One query = one operation (range, kNN or pt2pt distance, cycling).
// Query positions are drawn from a pool of `--positions` distinct points;
// `--zipf THETA` skews which pool entries are drawn (rank-based Zipf,
// theta 0 = uniform) to model hot-spot serving workloads — the regime the
// cross-query cache (--cache on, the default) targets. `--batch B` routes
// the workload through BatchExecutor in batches of B requests instead of
// the free-running reader loop; both modes execute the identical request
// sequence for a given seed, so ON-vs-OFF and loop-vs-batch QPS ratios
// compare like against like.
//
// Readers are ThreadPool workers; every query's result is checksummed so
// the optimizer cannot elide the work. Correctness under concurrency is
// covered by concurrency_test and query_cache_test; this binary only
// measures throughput.
//
// `--move-rate R` mixes updates into the workload: R object moves per
// served query, applied as ingest batches (ApplyMoveBatch) between query
// batches — the update-heavy serving regime the partition-scoped epoch
// invalidation targets. Requires `--batch` (the free-running reader loop
// has no write-safe interleave point). The move schedule comes from a
// dedicated generator seeded only by --seed and is re-seeded per reader
// row, so cache ON and OFF runs of the same flags execute the identical
// mixed schedule and their peak_qps ratio compares like against like.
//
// `--query-log out.qlog` keeps the structured query log (util/query_log.h)
// enabled for the whole run, writing every query's record to the capture.
// Comparing QPS with and without the flag on an otherwise identical
// invocation measures the logging overhead (docs/BENCHMARKS.md).
//
// `--record out.rec` runs the flight recorder (util/timeseries.h) for the
// whole run and dumps the ring on exit; the per-interval QPS/p99 series is
// also embedded in the --json output under "recording", so a bench JSON
// carries its own time-resolved picture (warmup, move-ingest dips) next to
// the aggregate rows. Requires a library built with INDOOR_METRICS=ON —
// an OFF build fails loudly rather than writing an empty recording.
//
// `--knn-approx` opts the index into the approximate-kNN embedding tier
// (with `--candidates F` controlling the re-rank budget and
// `--landmark-count N` the embedding width); kNN requests in the mix are
// then served from the tier. Recall is NOT measured here — bench_recall
// owns the recall/QPS tradeoff — so this flag exists to observe the
// tier's effect on the mixed-serving picture. Incompatible with
// --query-log: captures must hold exact digests for replay.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/query/batch_executor.h"
#include "core/query/knn_query.h"
#include "core/query/query_cache.h"
#include "core/query/range_query.h"
#include "gen/building_generator.h"
#include "gen/object_generator.h"
#include "gen/query_generator.h"
#include "util/query_log.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/timeseries.h"

using namespace indoor;

namespace {

struct Row {
  unsigned readers = 1;
  double millis = 0;
  double qps = 0;
  double scaling = 1.0;  // qps / single-reader qps
};

std::vector<unsigned> ParseList(const std::string& s) {
  std::vector<unsigned> out;
  size_t pos = 0;
  while (pos < s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(
        static_cast<unsigned>(std::stoul(s.substr(pos, comma - pos))));
    pos = comma + 1;
  }
  return out;
}

/// The per-interval series of a flight recording as a JSON array:
/// interval QPS plus the p99 over all query kinds merged (the per-kind
/// latency histograms share one bucket layout, so their deltas add).
std::string RecordingSeriesJson(const tseries::Recording& recording) {
  std::string out = "[";
  bool first = true;
  for (const tseries::IntervalSample& sample : recording.samples) {
    const tseries::IntervalStats stats =
        tseries::ComputeIntervalStats(sample);
    metrics::HistogramSnapshot merged;
    for (const metrics::HistogramSnapshot& hist : sample.delta.histograms) {
      if (hist.name.rfind("query.", 0) != 0 ||
          hist.name.size() < 11 ||
          hist.name.compare(hist.name.size() - 11, 11, ".latency_ns") != 0) {
        continue;
      }
      if (merged.buckets.empty()) {
        merged = hist;
        continue;
      }
      merged.count += hist.count;
      merged.sum += hist.sum;
      merged.max = std::max(merged.max, hist.max);
      for (size_t i = 0;
           i < merged.buckets.size() && i < hist.buckets.size(); ++i) {
        merged.buckets[i] += hist.buckets[i];
      }
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\n      {\"start_us\": %llu, \"duration_us\": %llu, "
                  "\"qps\": %.1f, \"p99_us\": %.1f}",
                  first ? "" : ",",
                  static_cast<unsigned long long>(sample.start_us),
                  static_cast<unsigned long long>(sample.duration_us),
                  stats.qps,
                  merged.count > 0 ? merged.Percentile(0.99) / 1e3 : 0.0);
    out += buf;
    first = false;
  }
  out += first ? "]" : "\n    ]";
  return out;
}

void WriteJson(const std::string& path, int floors, size_t objects,
               size_t queries, size_t positions, double zipf, bool cache,
               size_t batch, const std::string& mix, uint64_t seed,
               bool landmarks, bool knn_approx, const std::vector<Row>& rows,
               bool query_log, double move_rate, size_t moves,
               uint64_t repairs, uint64_t epoch_rejects,
               const tseries::Recording* recording) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  double peak_qps = 0;
  for (const Row& r : rows) peak_qps = std::max(peak_qps, r.qps);
  std::fprintf(f,
               "{\n  \"bench\": \"query_throughput\",\n"
               "  \"floors\": %d,\n  \"objects\": %zu,\n"
               "  \"queries_per_reader\": %zu,\n  \"positions\": %zu,\n"
               "  \"zipf\": %.3f,\n  \"cache\": %s,\n  \"batch\": %zu,\n"
               "  \"mix\": \"%s\",\n"
               "  \"landmarks\": %s,\n  \"knn_approx\": %s,\n"
               "  \"query_log\": %s,\n"
               "  \"move_rate\": %.3f,\n  \"moves\": %zu,\n"
               "  \"repairs\": %llu,\n"
               "  \"epoch_rejects\": %llu,\n"
               "  \"seed\": %llu,\n  \"peak_qps\": %.1f,\n  \"results\": [\n",
               floors, objects, queries, positions, zipf,
               cache ? "true" : "false", batch, mix.c_str(),
               landmarks ? "true" : "false", knn_approx ? "true" : "false",
               query_log ? "true" : "false", move_rate, moves,
               static_cast<unsigned long long>(repairs),
               static_cast<unsigned long long>(epoch_rejects),
               static_cast<unsigned long long>(seed), peak_qps);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"readers\": %u, \"millis\": %.3f, \"qps\": %.1f, "
                 "\"scaling\": %.3f}%s\n",
                 r.readers, r.millis, r.qps, r.scaling,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  if (recording != nullptr) {
    std::fprintf(f,
                 "  \"recording\": {\"interval_ms\": %u, \"intervals\": "
                 "%zu, \"series\": %s},\n",
                 recording->interval_ms, recording->samples.size(),
                 RecordingSeriesJson(*recording).c_str());
  }
  std::fprintf(f, "  \"metrics\": %s}\n",
               indoor::bench::MetricsJson().c_str());
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

/// The request sequence for one reader-count configuration: depends only
/// on (seed, theta, total, pool sizes), never on cache/batch settings, so
/// every configuration of the same workload executes identical queries.
std::vector<QueryRequest> BuildRequests(
    size_t total, double zipf, uint64_t seed, const std::string& mix,
    const std::vector<Point>& positions,
    const std::vector<std::pair<Point, Point>>& pairs) {
  Rng rng(seed * 1000003 + 17);
  const ZipfSampler position_skew(positions.size(), zipf);
  const ZipfSampler pair_skew(pairs.size(), zipf);
  std::vector<QueryRequest> requests;
  requests.reserve(total);
  for (size_t q = 0; q < total; ++q) {
    QueryRequest request;
    // "all" cycles the three kinds; a single-kind mix isolates one path
    // (e.g. --mix distance is the locator-probe + source-field dominated
    // regime where the cross-query cache pays off most).
    const size_t kind_index = mix == "all"        ? q % 3
                              : mix == "range"    ? 0
                              : mix == "knn"      ? 1
                                                  : 2;
    switch (kind_index) {
      case 0:
        request.kind = QueryRequest::Kind::kRange;
        request.a = positions[position_skew.Sample(&rng)];
        request.radius = 20.0;
        break;
      case 1:
        request.kind = QueryRequest::Kind::kKnn;
        request.a = positions[position_skew.Sample(&rng)];
        request.k = 10;
        break;
      default: {
        request.kind = QueryRequest::Kind::kDistance;
        const auto& [a, b] = pairs[pair_skew.Sample(&rng)];
        request.a = a;
        request.b = b;
        break;
      }
    }
    requests.push_back(request);
  }
  return requests;
}

size_t ResultChecksum(const QueryResult& result) {
  size_t checksum = result.ids.size() + result.neighbors.size();
  if (result.distance < kInfDistance) ++checksum;
  return checksum;
}

}  // namespace

int main(int argc, char** argv) {
  int floors = 10;
  size_t objects = 10000;
  size_t queries_per_reader = 200;
  size_t position_count = 256;
  double zipf = 0.0;
  bool cache = true;
  bool landmarks = true;
  size_t batch = 0;  // 0 = free-running reader loop
  // Obstructed rooms make the per-query source-field legs geodesic solves
  // (the dominant serving cost in realistic plans, and what the
  // cross-query cache collapses); 0 degenerates them to straight lines.
  double obstacles = 0.5;
  std::string mix = "all";
  double move_rate = 0.0;
  size_t move_batch = 0;  // 0 = all moves due after a query batch
  bool knn_approx = false;
  size_t candidate_factor = 0;  // 0 = keep the IndexOptions default
  size_t landmark_count = 0;    // 0 = auto-scale with the door count
  uint64_t seed = 42;
  std::vector<unsigned> reader_list{1, 2, 4, 8};
  std::string json_path;
  std::string query_log_path;
  std::string record_path;
  uint32_t record_interval_ms = 250;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--floors") {
      floors = std::stoi(next());
    } else if (arg == "--objects") {
      objects = std::stoul(next());
    } else if (arg == "--queries-per-reader") {
      queries_per_reader = std::stoul(next());
    } else if (arg == "--positions") {
      position_count = std::stoul(next());
    } else if (arg == "--zipf") {
      zipf = std::stod(next());
    } else if (arg == "--cache") {
      cache = next() != "off";
    } else if (arg == "--landmarks") {
      landmarks = next() != "off";
    } else if (arg == "--knn-approx") {
      knn_approx = true;
    } else if (arg == "--candidates") {
      candidate_factor = std::stoul(next());
    } else if (arg == "--landmark-count") {
      landmark_count = std::stoul(next());
    } else if (arg == "--batch") {
      batch = std::stoul(next());
    } else if (arg == "--obstacles") {
      obstacles = std::stod(next());
    } else if (arg == "--mix") {
      mix = next();
      if (mix != "all" && mix != "distance" && mix != "range" &&
          mix != "knn") {
        std::fprintf(stderr, "--mix must be all|distance|range|knn\n");
        return 2;
      }
    } else if (arg == "--move-rate") {
      move_rate = std::stod(next());
    } else if (arg == "--move-batch") {
      move_batch = std::stoul(next());
    } else if (arg == "--readers") {
      reader_list = ParseList(next());
    } else if (arg == "--seed") {
      seed = std::stoull(next());
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--query-log") {
      query_log_path = next();
    } else if (arg == "--record") {
      record_path = next();
    } else if (arg == "--record-interval-ms") {
      record_interval_ms = static_cast<uint32_t>(std::stoul(next()));
    } else if (arg == "--smoke") {
      floors = 2;
      objects = 500;
      queries_per_reader = 8;
      reader_list = {1, 2};
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (move_rate > 0 && batch == 0) {
    std::fprintf(stderr,
                 "--move-rate requires --batch: moves interleave between "
                 "executor batches, and the free-running reader loop has "
                 "no write-safe point to apply them\n");
    return 2;
  }
  if (knn_approx && !query_log_path.empty()) {
    std::fprintf(stderr,
                 "--knn-approx is incompatible with --query-log: the "
                 "capture's digests replay against the exact path\n");
    return 2;
  }

  BuildingConfig config;
  config.floors = floors;
  config.rooms_per_floor = 30;
  config.obstacle_probability = obstacles;
  config.seed = seed;
  IndexOptions options;
  options.build_threads = 0;  // build as fast as the hardware allows
  options.enable_query_cache = cache;
  options.use_landmarks = landmarks;
  options.approx_knn = knn_approx;
  if (knn_approx) options.use_landmarks = true;  // embeddings need rows
  if (candidate_factor > 0) {
    options.approx_candidate_factor =
        static_cast<unsigned>(candidate_factor);
  }
  options.landmark_count = static_cast<unsigned>(landmark_count);
  const FloorPlan plan = GenerateBuilding(config);
  IndexFramework index(plan, options);
  Rng rng(seed * 31 + 7);
  PopulateStore(GenerateObjects(plan, objects, &rng), &index.objects());
  if (knn_approx) index.RefreshApproxKnn();
  const auto positions = GenerateQueryPositions(plan, position_count, &rng);
  const auto pairs = GeneratePositionPairs(plan, position_count, &rng);
  const std::string mode =
      batch ? "batch " + std::to_string(batch) : std::string("reader loop");
  std::printf(
      "building: %d floors, %zu doors, %zu objects | %zu positions, "
      "zipf %.2f, cache %s, landmarks %s, knn-approx %s, %s, "
      "move rate %.2f\n",
      floors, plan.door_count(), objects, position_count, zipf,
      cache ? "on" : "off", landmarks ? "on" : "off", knn_approx ? "on" : "off",
      mode.c_str(), move_rate);
  const PartitionSampler move_sampler(plan);
  size_t total_moves = 0;

  auto run_request = [&](const QueryRequest& request,
                         QueryScratch* scratch) -> size_t {
    switch (request.kind) {
      case QueryRequest::Kind::kRange:
        return RangeQuery(index, request.a, request.radius, {}, scratch)
            .size();
      case QueryRequest::Kind::kKnn:
        return KnnQuery(index, request.a, request.k, {}, scratch).size();
      case QueryRequest::Kind::kDistance:
        return Pt2PtDistanceMatrix(index.locator(), index.d2d_matrix(),
                                   request.a, request.b, scratch,
                                   index.query_cache()) < kInfDistance
                   ? 1
                   : 0;
    }
    return 0;
  };

  if (!query_log_path.empty()) {
    qlog::QueryLogOptions log_options;
    log_options.path = query_log_path;
    log_options.context = "source=bench_query_throughput\nseed=" +
                          std::to_string(seed) + "\n";
    const Status status = qlog::QueryLog::Global().Enable(log_options);
    if (!status.ok()) {
      std::fprintf(stderr, "--query-log: %s\n", status.message().c_str());
      return 1;
    }
  }

  tseries::FlightRecorder& recorder = tseries::FlightRecorder::Global();
  if (!record_path.empty()) {
    tseries::FlightRecorderOptions fropts;
    fropts.interval_ms = record_interval_ms;
    fropts.hotness = &index.hotness();
    fropts.context = "source=bench_query_throughput\nseed=" +
                     std::to_string(seed) +
                     "\ncache=" + (cache ? "on" : "off") +
                     "\nmix=" + mix + "\n";
    const Status status = recorder.Start(fropts);
    if (!status.ok()) {
      // Metrics-OFF builds land here: fail loudly, never write a file
      // that looks like a (suspiciously idle) healthy recording.
      std::fprintf(stderr, "--record: %s\n", status.message().c_str());
      return 1;
    }
  }

  std::vector<Row> rows;
  std::printf("%8s %12s %14s %10s\n", "readers", "wall(ms)", "QPS",
              "scaling");
  for (unsigned readers : reader_list) {
    const size_t total = queries_per_reader * readers;
    const auto requests =
        BuildRequests(total, zipf, seed, mix, positions, pairs);
    size_t checksum = 0;
    double millis = 0;
    if (batch > 0) {
      // Move schedule: re-seeded per reader row and independent of the
      // request stream, so every cache/log configuration of the same
      // flags replays the identical interleave of reads and writes.
      Rng move_rng(seed ^ 0x6d6f76657321ull);
      double move_due = 0.0;
      std::vector<MoveOp> moves;
      BatchExecutor executor(index, readers);
      WallTimer timer;
      for (size_t begin = 0; begin < requests.size(); begin += batch) {
        const size_t n = std::min(batch, requests.size() - begin);
        const auto results = executor.Run(
            std::span<const QueryRequest>(requests.data() + begin, n));
        for (const QueryResult& result : results) {
          checksum += ResultChecksum(result);
        }
        if (move_rate > 0) {
          move_due += static_cast<double>(n) * move_rate;
          // Coalesced ingest: wait for a FULL move batch before stalling
          // readers. Dribbling due moves one query-batch at a time would
          // bump epochs (and re-stale the hot cached set) several times
          // more often for the same aggregate move rate — batching the
          // writes is what amortizes the invalidation cost.
          const double fire_at =
              move_batch > 0 ? static_cast<double>(move_batch) : 1.0;
          while (move_due >= fire_at) {
            size_t m = static_cast<size_t>(move_due);
            if (move_batch > 0) m = std::min(m, move_batch);
            moves.clear();
            moves.reserve(m);
            for (size_t i = 0; i < m; ++i) {
              const PartitionId target = move_sampler.Sample(&move_rng);
              moves.push_back(MoveOp{
                  static_cast<ObjectId>(move_rng.NextIndex(objects)),
                  target,
                  RandomPointInPartition(plan.partition(target),
                                         &move_rng)});
            }
            std::stable_sort(moves.begin(), moves.end(),
                             [](const MoveOp& a, const MoveOp& b) {
                               return a.partition < b.partition;
                             });
            const Status status = ApplyMoveBatch(index, moves);
            if (!status.ok()) {
              std::fprintf(stderr, "move batch failed: %s\n",
                           status.message().c_str());
              return 1;
            }
            total_moves += m;
            move_due -= static_cast<double>(m);
          }
        }
      }
      millis = timer.ElapsedMillis();
    } else {
      std::atomic<size_t> next_query{0};
      std::atomic<size_t> sink{0};
      ThreadPool pool(readers);
      WallTimer timer;
      for (unsigned t = 0; t < readers; ++t) {
        pool.Submit([&] {
          size_t local = 0;
          for (size_t q = next_query++; q < total; q = next_query++) {
            local += run_request(requests[q], nullptr);
          }
          sink += local;
        });
      }
      pool.Wait();
      millis = timer.ElapsedMillis();
      checksum = sink.load();
    }
    Row row;
    row.readers = readers;
    row.millis = millis;
    row.qps = total / (row.millis / 1000.0);
    row.scaling = rows.empty() ? 1.0 : row.qps / rows.front().qps;
    rows.push_back(row);
    std::printf("%8u %12.1f %14.0f %9.2fx   (checksum %zu)\n", row.readers,
                row.millis, row.qps, row.scaling, checksum);
  }

  if (!query_log_path.empty()) {
    qlog::QueryLog::Global().Disable();
    std::printf("query log: %llu records -> %s\n",
                static_cast<unsigned long long>(
                    qlog::QueryLog::Global().records_written()),
                query_log_path.c_str());
  }

  tseries::Recording recording;
  if (recorder.running()) {
    recorder.Stop();  // folds the final partial interval
    recording = recorder.Snapshot();
    const Status status = tseries::WriteRecordingFile(recording, record_path);
    if (!status.ok()) {
      std::fprintf(stderr, "--record: %s\n", status.message().c_str());
      return 1;
    }
    std::printf("recording: %zu intervals -> %s\n", recording.samples.size(),
                record_path.c_str());
  }

  const QueryCache* query_cache = index.query_cache();
  const uint64_t epoch_rejects =
      query_cache != nullptr ? query_cache->EpochRejects() : 0;
  const uint64_t repairs =
      query_cache != nullptr ? query_cache->Repairs() : 0;
  if (total_moves > 0) {
    std::printf(
        "moves: %zu applied, %llu cached results repaired, "
        "%llu epoch-rejected\n",
        total_moves, static_cast<unsigned long long>(repairs),
        static_cast<unsigned long long>(epoch_rejects));
  }

  if (!json_path.empty()) {
    WriteJson(json_path, floors, objects, queries_per_reader, position_count,
              zipf, cache, batch, mix, seed, landmarks, knn_approx, rows,
              !query_log_path.empty(), move_rate, total_moves, repairs,
              epoch_rejects, recording.samples.empty() ? nullptr : &recording);
  }
  return 0;
}
