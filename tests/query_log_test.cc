// The structured query log: record layout, JSONL rendering, the
// capture-file round trip, scope dormancy, the slow-query sink, the
// compact metrics-trailer text, and the workload capture -> replay round
// trip (docs/OBSERVABILITY.md).

#include "util/query_log.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/index/index_framework.h"
#include "core/query/batch_executor.h"
#include "core/query/knn_query.h"
#include "core/query/workload_replay.h"
#include "indoor/sample_plans.h"
#include "util/metrics.h"

namespace indoor {
namespace qlog {
namespace {

// ------------------------------------------------------------ record + JSON

TEST(QueryLogRecordTest, LayoutIsStable) {
  // The capture format depends on this layout; header.record_size guards
  // readers, this test guards writers.
  EXPECT_EQ(sizeof(QueryLogRecord), 112u);
  EXPECT_TRUE(std::is_trivially_copyable_v<QueryLogRecord>);
}

TEST(AppendRecordJsonTest, EmitsKindSpecificFields) {
  QueryLogRecord r;
  r.seq = 7;
  r.kind = static_cast<uint8_t>(RecordKind::kRange);
  r.ax = 1.5;
  r.ay = 2.5;
  r.radius = 30.0;
  r.result_count = 4;
  r.flags = kFlagSlow | kFlagBatched;
  std::string json;
  AppendRecordJson(&json, r);
  EXPECT_NE(json.find("\"seq\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"range\""), std::string::npos);
  EXPECT_NE(json.find("\"radius\": 30"), std::string::npos);
  EXPECT_NE(json.find("\"results\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"slow\""), std::string::npos);
  EXPECT_NE(json.find("\"batched\""), std::string::npos);
  // Kind-specific: a range record carries no pt2pt destination and no k.
  EXPECT_EQ(json.find("\"bx\""), std::string::npos);
  EXPECT_EQ(json.find("\"k\""), std::string::npos);
  // An unresolved host renders as null.
  EXPECT_NE(json.find("\"host\": null"), std::string::npos);
}

TEST(AppendRecordJsonTest, EveryKindAndFlagComboStaysOneCleanLine) {
  // The slow sink is a machine-read JSONL stream: one record, one line,
  // every string escaped. Sweep every kind byte (including out-of-range
  // ones a corrupted capture could replay) and every flag combination
  // and check line integrity structurally.
  for (int kind = 0; kind < 8; ++kind) {
    for (int flags = 0; flags < 4; ++flags) {
      QueryLogRecord r;
      r.seq = 1;
      r.kind = static_cast<uint8_t>(kind);
      r.flags = static_cast<uint8_t>(flags);
      std::string json;
      AppendRecordJson(&json, r);
      SCOPED_TRACE("kind=" + std::to_string(kind) +
                   " flags=" + std::to_string(flags));
      EXPECT_EQ(json.find('\n'), std::string::npos);
      EXPECT_EQ(json.find('\r'), std::string::npos);
      // Balanced structure: quotes pair up (AppendJsonEscaped guarantees
      // none of the emitted names can smuggle a raw quote), braces nest.
      size_t quotes = 0;
      int depth = 0;
      bool ok = true;
      for (size_t i = 0; i < json.size(); ++i) {
        if (json[i] == '\\') { ++i; continue; }
        if (json[i] == '"') ++quotes;
        if (quotes % 2 == 1) continue;  // inside a string
        if (json[i] == '{') ++depth;
        if (json[i] == '}') ok = ok && --depth >= 0;
      }
      EXPECT_TRUE(ok);
      EXPECT_EQ(depth, 0);
      EXPECT_EQ(quotes % 2, 0u);
    }
  }
}

// -------------------------------------------------------- snapshot trailer

TEST(SnapshotTextTest, RoundTripsEveryInstrumentKind) {
  metrics::RegistrySnapshot snap;
  snap.counters.emplace_back("a.counter", 42u);
  snap.gauges.emplace_back("b.gauge", 2.5);
  metrics::HistogramSnapshot hist;
  hist.name = "c.hist";
  hist.count = 3;
  hist.sum = 1026;
  hist.max = 1024;
  hist.buckets.assign(metrics::Histogram::kNumBuckets, 0);
  hist.buckets[1] = 2;   // two samples of 1
  hist.buckets[11] = 1;  // one sample of 1024
  snap.histograms.push_back(hist);

  const std::string text = SerializeSnapshotText(snap);
  const metrics::RegistrySnapshot parsed = ParseSnapshotText(text);
  ASSERT_EQ(parsed.counters.size(), 1u);
  EXPECT_EQ(parsed.counters[0].first, "a.counter");
  EXPECT_EQ(parsed.counters[0].second, 42u);
  ASSERT_EQ(parsed.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(parsed.gauges[0].second, 2.5);
  ASSERT_EQ(parsed.histograms.size(), 1u);
  const metrics::HistogramSnapshot& h = parsed.histograms[0];
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 1026u);
  EXPECT_EQ(h.max, 1024u);
  ASSERT_EQ(h.buckets.size(), metrics::Histogram::kNumBuckets);
  EXPECT_EQ(h.buckets[1], 2u);
  EXPECT_EQ(h.buckets[11], 1u);
  // Percentiles are recomputable from the parsed sparse buckets.
  EXPECT_GT(h.Percentile(0.99), 100.0);
}

TEST(SnapshotTextTest, RejectsNamesWithWhitespace) {
  metrics::RegistrySnapshot snap;
  snap.counters.emplace_back("bad name", 1u);
  snap.counters.emplace_back("good.name", 2u);
  const metrics::RegistrySnapshot parsed =
      ParseSnapshotText(SerializeSnapshotText(snap));
  ASSERT_EQ(parsed.counters.size(), 1u);
  EXPECT_EQ(parsed.counters[0].first, "good.name");
}

#ifdef INDOOR_METRICS_ENABLED

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadAll(std::FILE* f) {
  std::string content;
  std::rewind(f);
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  return content;
}

// ------------------------------------------------------------------ scopes

TEST(QueryLogScopeTest, DormantWhenNothingIsArmed) {
  ASSERT_FALSE(QueryLog::Global().enabled());
  QueryLogScope scope(RecordKind::kDistance, 0, 0, 1, 1, 0, 0, false);
  EXPECT_FALSE(scope.active());
  EXPECT_EQ(scope.Finish(), 0u);
}

TEST(QueryLogScopeTest, OutermostScopeOwnsTheRecord) {
  std::FILE* slow_sink = std::tmpfile();
  ASSERT_NE(slow_sink, nullptr);
  QueryLogOptions options;
  options.path = TempPath("scope_owner.qlog");
  options.slow_sink = slow_sink;
  ASSERT_TRUE(QueryLog::Global().Enable(options).ok());
  {
    QueryLogScope outer(RecordKind::kRange, 1, 2, 0, 0, 9, 0, false);
    EXPECT_TRUE(outer.active());
    {
      // A query nested inside a query (batch -> pt2pt, temporal -> pt2pt)
      // must not emit its own record.
      QueryLogScope inner(RecordKind::kDistance, 3, 4, 5, 6, 0, 0, true);
      EXPECT_FALSE(inner.active());
    }
    // The inner scope's destruction must not have stolen the slot.
    EXPECT_TRUE(outer.active());
  }
  QueryLog::Global().Disable();
  std::fclose(slow_sink);
  const auto capture = ReadQueryLogCapture(options.path);
  ASSERT_TRUE(capture.ok());
  ASSERT_EQ(capture->records.size(), 1u);
  EXPECT_EQ(capture->records[0].kind,
            static_cast<uint8_t>(RecordKind::kRange));
  EXPECT_DOUBLE_EQ(capture->records[0].radius, 9.0);
}

TEST(QueryLogTest, SlowQueriesHitTheSlowSinkImmediately) {
  std::FILE* slow_sink = std::tmpfile();
  ASSERT_NE(slow_sink, nullptr);
  QueryLogOptions options;  // no full log: slow-only arming
  options.slow_threshold_ns = 1;
  options.slow_sink = slow_sink;
  ASSERT_TRUE(QueryLog::Global().Enable(options).ok());
  {
    QueryLogScope scope(RecordKind::kKnn, 1, 1, 0, 0, 0, 5, false);
    ASSERT_TRUE(scope.active());
    scope.SetResult(5, 123.0);
  }  // any real latency is >= 1ns, so the record is slow
  QueryLog::Global().Disable();
  const std::string lines = ReadAll(slow_sink);
  std::fclose(slow_sink);
  EXPECT_NE(lines.find("\"kind\": \"knn\""), std::string::npos);
  EXPECT_NE(lines.find("\"slow\""), std::string::npos);
  EXPECT_NE(lines.find("\"value\": 123"), std::string::npos);
}

TEST(QueryLogTest, CaptureEmbedsContextAndMetricsTrailer) {
  QueryLogOptions options;
  options.path = TempPath("context.qlog");
  options.context = "plan=demo.txt\nobjects=100\n";
  ASSERT_TRUE(QueryLog::Global().Enable(options).ok());
  INDOOR_COUNTER_ADD("test.qlog.trailer", 3);
  {
    QueryLogScope scope(RecordKind::kDistance, 0, 0, 1, 1, 0, 0, false);
  }
  QueryLog::Global().Disable();

  const auto capture = ReadQueryLogCapture(options.path);
  ASSERT_TRUE(capture.ok());
  const auto context = capture->ContextMap();
  EXPECT_EQ(context.at("plan"), "demo.txt");
  EXPECT_EQ(context.at("objects"), "100");
  // The trailer is the session's registry delta: the counter bumped above
  // must read exactly its in-session increment.
  const metrics::RegistrySnapshot delta =
      ParseSnapshotText(capture->metrics_text);
  bool found = false;
  for (const auto& [name, value] : delta.counters) {
    if (name == "test.qlog.trailer") {
      EXPECT_EQ(value, 3u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(QueryLogTest, JsonlSinkWritesOneObjectPerLine) {
  QueryLogOptions options;
  options.path = TempPath("log.jsonl");
  ASSERT_TRUE(QueryLog::Global().Enable(options).ok());
  for (int i = 0; i < 3; ++i) {
    QueryLogScope scope(RecordKind::kRange, i, i, 0, 0, 5, 0, false);
  }
  QueryLog::Global().Disable();
  std::FILE* f = std::fopen(options.path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  const std::string content = ReadAll(f);
  std::fclose(f);
  size_t lines = 0;
  for (const char c : content) lines += c == '\n';
  EXPECT_EQ(lines, 3u);
  EXPECT_EQ(content.find(kCaptureMagic, 0, 8), std::string::npos);
  // A JSONL log is not a replayable capture and must say so.
  EXPECT_FALSE(ReadQueryLogCapture(options.path).ok());
}

TEST(QueryLogTest, ConcurrentScopesAllLand) {
  QueryLogOptions options;
  options.path = TempPath("concurrent.qlog");
  ASSERT_TRUE(QueryLog::Global().Enable(options).ok());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        QueryLogScope scope(RecordKind::kDistance, t, i, 0, 0, 0, 0, false);
      }
    });
  }
  for (auto& t : threads) t.join();
  QueryLog::Global().Disable();
  const auto capture = ReadQueryLogCapture(options.path);
  ASSERT_TRUE(capture.ok());
  ASSERT_EQ(capture->records.size(),
            static_cast<size_t>(kThreads) * kPerThread);
  // Every seq in [0, N) appears exactly once.
  std::vector<bool> seen(capture->records.size(), false);
  for (const QueryLogRecord& r : capture->records) {
    ASSERT_LT(r.seq, seen.size());
    EXPECT_FALSE(seen[r.seq]);
    seen[r.seq] = true;
  }
}

// ------------------------------------------------------- capture -> replay

TEST(ReplayTest, CaptureReplayRoundTripIsBitwiseIdentical) {
  RunningExampleIds ids;
  const FloorPlan plan = MakeRunningExamplePlan(&ids);
  IndexFramework index(plan);
  ASSERT_TRUE(index.objects().Insert(ids.v12, Point{6, 2}).ok());
  ASSERT_TRUE(index.objects().Insert(ids.v11, Point{2, 2}).ok());
  ASSERT_TRUE(index.objects().Insert(ids.v20, Point{21, 1}).ok());

  std::vector<QueryRequest> requests;
  for (int i = 0; i < 8; ++i) {
    requests.push_back(QueryRequest::Range(Point{1.0 + i * 0.5, 1.0}, 40.0));
    requests.push_back(QueryRequest::Knn(Point{1.0, 1.0 + i * 0.5}, 2));
    requests.push_back(
        QueryRequest::Distance(Point{1.0 + i * 0.5, 1.5}, Point{19, 7}));
  }

  QueryLogOptions options;
  options.path = TempPath("roundtrip.qlog");
  ASSERT_TRUE(QueryLog::Global().Enable(options).ok());
  BatchExecutor executor(index, /*threads=*/2);
  const std::vector<QueryResult> original = executor.Run(requests);
  QueryLog::Global().Disable();

  const auto capture = ReadQueryLogCapture(options.path);
  ASSERT_TRUE(capture.ok());
  ASSERT_EQ(capture->records.size(), requests.size());

  // Replay on a different thread count: results must still be bitwise
  // identical (result counts and distance doubles both live in the
  // digest comparison).
  ReplayOptions replay_options;
  replay_options.threads = 3;
  const auto report = ReplayWorkload(index, *capture, replay_options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records, requests.size());
  EXPECT_EQ(report->matched, requests.size());
  EXPECT_TRUE(report->AllMatched()) << "mismatches: " << report->mismatched;

  // Spot-check against the original run directly: same result counts.
  uint64_t original_results = 0;
  for (const QueryResult& r : original) {
    original_results += r.ids.size() + r.neighbors.size() +
                        (r.distance < kInfDistance ? 1 : 0);
  }
  uint64_t captured_results = 0;
  for (const QueryLogRecord& r : capture->records) {
    captured_results += r.result_count;
  }
  EXPECT_EQ(captured_results, original_results);
}

// A record keeps k in 32 bits. Truncation replayed a captured
// k = 2^32 + 5 as k = 5; saturating at UINT32_MAX keeps "every object".
TEST(ReplayTest, HugeKnnCountReplaysAsEveryObject) {
  RunningExampleIds ids;
  const FloorPlan plan = MakeRunningExamplePlan(&ids);
  IndexFramework index(plan);
  const Point spots[] = {{6, 2},   {6.2, 2},   {5.8, 2.2}, {2, 2},
                         {2.2, 2}, {1.8, 2.2}, {21, 1},    {21.2, 1}};
  const PartitionId hosts[] = {ids.v12, ids.v12, ids.v12, ids.v11,
                               ids.v11, ids.v11, ids.v20, ids.v20};
  for (size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(index.objects().Insert(hosts[i], spots[i]).ok());
  }
  const size_t huge_k = (size_t{1} << 32) + 5;
  const std::vector<QueryRequest> requests = {
      QueryRequest::Knn(Point{1, 1}, huge_k),
      QueryRequest::Knn(Point{1, 1.5}, 3)};

  QueryLogOptions options;
  options.path = TempPath("huge_k.qlog");
  ASSERT_TRUE(QueryLog::Global().Enable(options).ok());
  BatchExecutor executor(index, /*threads=*/1);
  const std::vector<QueryResult> original = executor.Run(requests);
  const std::vector<Neighbor> direct = KnnQuery(index, Point{1.5, 1}, huge_k);
  QueryLog::Global().Disable();
  ASSERT_EQ(original[0].neighbors.size(), 8u);
  ASSERT_EQ(direct.size(), 8u);

  const auto capture = ReadQueryLogCapture(options.path);
  ASSERT_TRUE(capture.ok());
  // Per-thread buffers flush in any order, so compare the k values as a
  // sorted list.
  std::vector<uint32_t> logged_k;
  for (const QueryLogRecord& r : capture->records) logged_k.push_back(r.k);
  std::sort(logged_k.begin(), logged_k.end());
  EXPECT_EQ(logged_k, (std::vector<uint32_t>{3, UINT32_MAX, UINT32_MAX}));
  const auto report = ReplayWorkload(index, *capture, ReplayOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->AllMatched()) << "mismatches: " << report->mismatched;
}

TEST(ReplayTest, MismatchedIndexIsReported) {
  RunningExampleIds ids;
  const FloorPlan plan = MakeRunningExamplePlan(&ids);
  IndexFramework index(plan);
  ASSERT_TRUE(index.objects().Insert(ids.v12, Point{6, 2}).ok());

  QueryLogOptions options;
  options.path = TempPath("mismatch.qlog");
  ASSERT_TRUE(QueryLog::Global().Enable(options).ok());
  BatchExecutor executor(index, 1);
  const std::vector<QueryRequest> requests = {
      QueryRequest::Range(Point{1, 1}, 50.0)};
  executor.Run(requests);
  QueryLog::Global().Disable();

  // Replaying against an index with a different object population must
  // flag the record, not silently pass.
  IndexFramework other(plan);
  ASSERT_TRUE(other.objects().Insert(ids.v12, Point{6, 2}).ok());
  ASSERT_TRUE(other.objects().Insert(ids.v12, Point{6.5, 2.5}).ok());
  const auto capture = ReadQueryLogCapture(options.path);
  ASSERT_TRUE(capture.ok());
  const auto report = ReplayWorkload(other, *capture);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->mismatched, 1u);
  ASSERT_EQ(report->mismatches.size(), 1u);
  EXPECT_EQ(report->mismatches[0].captured_count, 1u);
  EXPECT_EQ(report->mismatches[0].replayed_count, 2u);
}

#endif  // INDOOR_METRICS_ENABLED

}  // namespace
}  // namespace qlog
}  // namespace indoor
