// Structured per-query logging: the record-level companion of the
// aggregate metrics registry (util/metrics.h).
//
// Every served query emits one fixed-size binary QueryLogRecord — kind,
// host partition, latency, result digest, Dijkstra settles, cache
// hits/misses, scratch source, batch id, worker thread — through a
// per-thread buffer that is flushed to the process-wide sink in blocks,
// so the hot path never contends on the sink lock. Three consumers share
// the format:
//
//   * the QUERY LOG proper (`--query-log FILE`): every record, to a
//     binary capture (default) or JSONL (FILE ends in ".jsonl");
//   * the SLOW-QUERY LOG: any record whose latency crosses a configured
//     threshold is additionally written immediately (JSONL) to a slow
//     sink — stderr by default — whether or not a full log is open;
//   * WORKLOAD CAPTURE/REPLAY: the binary capture embeds the workload
//     context (plan path, object seed, cache settings) in its header and
//     a compact metrics-registry delta in its trailer, so
//     `indoor_tool replay FILE` can re-execute the exact workload and
//     diff the replayed metrics against the captured ones
//     (core/query/workload_replay.h).
//
// Recording sites construct a QueryLogScope at query entry. The scope is
// dormant unless the global log is armed (a full log is open OR a slow
// threshold is set) — one relaxed atomic load — and only one scope per
// thread is live at a time, so a query that calls another query (batch →
// pt2pt, temporal → pt2pt) logs exactly one record at the outermost
// boundary that owns the metadata. Under -DINDOOR_METRICS=OFF the scope
// and every cost hook compile to nothing; the reader/writer classes are
// always compiled so tools can still read captures (an OFF build simply
// captures nothing, like the empty metrics registry).

#ifndef INDOOR_UTIL_QUERY_LOG_H_
#define INDOOR_UTIL_QUERY_LOG_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/metrics.h"
#include "util/result.h"
#include "util/status.h"

namespace indoor {
namespace qlog {

/// Query kind of a record. Values are the on-disk encoding and mirror
/// QueryRequest::Kind (core/query/batch_executor.h) so the capture format
/// stays decoupled from the core headers.
enum class RecordKind : uint8_t {
  kDistance = 0,  // pt2pt walking distance a -> b
  kRange = 1,     // objects within `radius` of a
  kKnn = 2,       // `k` nearest objects to a
  kMove = 3,      // object relocation applied through a move batch:
                  // (ax, ay) = target position, host = target partition,
                  // k = object id, result_count = 1 if applied,
                  // result_value = qdigest::MoveDigest of the applied op
};

/// Record flag bits.
enum RecordFlags : uint8_t {
  kFlagSlow = 1u << 0,             // latency crossed the slow threshold
  kFlagExplicitScratch = 1u << 1,  // caller passed a QueryScratch
  kFlagBatched = 1u << 2,          // executed inside a BatchExecutor run
  kFlagMoveBatch = 1u << 3,        // kMove record of one ApplyMoveBatch call
};

/// One query, fixed-size and trivially copyable: the binary capture is a
/// header + a flat array of these. Host-endian; record_size in the header
/// guards against layout drift.
struct QueryLogRecord {
  /// Global arrival order (assigned at query entry).
  uint64_t seq = 0;
  /// BatchExecutor run this query belonged to (0 = unbatched).
  uint64_t batch_id = 0;
  /// Query entry time, microseconds since the log was enabled (replay
  /// pacing uses inter-batch gaps).
  uint64_t start_us = 0;
  /// Wall latency of the query.
  uint64_t latency_ns = 0;
  /// Query position (pt2pt source; range/kNN center).
  double ax = 0.0, ay = 0.0;
  /// pt2pt destination (kDistance only).
  double bx = 0.0, by = 0.0;
  /// Range radius (kRange only).
  double radius = 0.0;
  /// Result digest: the pt2pt distance itself (kDistance), or a 53-bit
  /// order-independent hash of the result set (kRange ids; kKnn ids and
  /// distance bit patterns). Bitwise-comparable across replays.
  double result_value = 0.0;
  /// k (kKnn only), saturated at UINT32_MAX by LoggedK.
  uint32_t k = 0;
  /// Result count (1/0 reachable for kDistance, result-set size else).
  uint32_t result_count = 0;
  /// Host partition of the query position (kInvalidId if not indoors).
  uint32_t host = 0xffffffffu;
  /// Door-graph Dijkstra settles attributed to this query.
  uint32_t settles = 0;
  /// Cross-query cache lookups that hit / missed during this query.
  uint32_t cache_hits = 0;
  uint32_t cache_misses = 0;
  /// Worker index (batched) or a small process-stable thread id.
  uint16_t thread_id = 0;
  /// RecordKind.
  uint8_t kind = 0;
  /// RecordFlags bitmask.
  uint8_t flags = 0;
  uint32_t reserved = 0;
};
static_assert(sizeof(QueryLogRecord) == 112,
              "capture format: record layout drifted");
static_assert(std::is_trivially_copyable_v<QueryLogRecord>,
              "records are written/read as raw bytes");

/// A kNN k as the record stores it. Object ids are 32-bit, so any k at or
/// above UINT32_MAX already asks for every object; saturating keeps that
/// meaning on replay, where truncation would turn 2^32 + 5 into 5.
inline uint32_t LoggedK(size_t k) {
  return k > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(k);
}

/// Appends `record` as one JSON object (no trailing newline) — the JSONL
/// sink and the slow-query sink line format.
void AppendRecordJson(std::string* out, const QueryLogRecord& record);

/// Sink configuration for QueryLog::Enable.
struct QueryLogOptions {
  /// Full-log sink path; empty = no full log (slow-only arming). A path
  /// ending in ".jsonl" writes JSON lines (analysis); anything else
  /// writes the binary capture format (replayable).
  std::string path;
  /// Latency threshold for the slow-query log; 0 disables it. Records at
  /// or above it are flagged kFlagSlow and written immediately as JSONL
  /// to `slow_sink`.
  uint64_t slow_threshold_ns = 0;
  /// Slow-query sink (nullptr = stderr). Not owned.
  std::FILE* slow_sink = nullptr;
  /// Workload context embedded in the binary capture header: flat
  /// "key=value" lines (see workload_replay.h for the keys replay uses).
  std::string context;
};

namespace internal {
/// Armed = a full log is open or a slow threshold is set. Scopes check
/// this first; when clear, a scope costs one relaxed load.
extern std::atomic<uint32_t> g_armed;
inline bool Armed() {
  return g_armed.load(std::memory_order_relaxed) != 0;
}
}  // namespace internal

/// The process-wide query log. All methods are thread-safe; Enable and
/// Disable delimit one capture session and must not run concurrently
/// with each other (concurrent Submit is fine — records racing a Disable
/// land in the next session or are dropped, never torn).
class QueryLog {
 public:
  /// The global instance (never destroyed).
  static QueryLog& Global();

  /// Opens a capture session. Fails if the sink cannot be opened or a
  /// session is already open. Arms scopes; snapshots the metrics registry
  /// as the baseline for the capture trailer.
  Status Enable(const QueryLogOptions& options);

  /// Flushes every per-thread buffer, writes the capture trailer (the
  /// metrics-registry delta since Enable, compact text), patches the
  /// record count into the header, closes the sink, and disarms.
  void Disable();

  /// True between a successful Enable and the matching Disable.
  bool enabled() const;

  /// The active slow threshold (0 = none). Readable while disabled —
  /// the slow log can be armed without a full log via Enable with an
  /// empty path.
  uint64_t slow_threshold_ns() const;

  /// Appends one completed record: into the calling thread's buffer when
  /// a full log is open (flushed to the sink in blocks), and to the slow
  /// sink immediately when the latency crosses the threshold. Callers
  /// normally go through QueryLogScope instead.
  void Submit(QueryLogRecord record);

  /// Drains every per-thread buffer to the sink (Disable does this;
  /// exposed for tests and long-lived servers that checkpoint).
  void Flush();

  /// Next arrival sequence number.
  uint64_t NextSeq();

  /// Microseconds since the current session was enabled (0 if none).
  uint64_t SessionMicros() const;

  /// Total records written to the full log this session.
  uint64_t records_written() const;

  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

 private:
  QueryLog();
  ~QueryLog();
  struct Impl;
  Impl* impl_;
};

// ---------------------------------------------------------------------------
// Capture files.

/// Magic + version of the binary capture format.
inline constexpr char kCaptureMagic[8] = {'I', 'N', 'D', 'O',
                                          'O', 'R', 'Q', 'L'};
inline constexpr uint32_t kCaptureVersion = 1;

/// A parsed binary capture.
struct QueryLogCapture {
  /// Flat "key=value" context lines from the header.
  std::string context;
  /// All records, in file order (per-thread flush order — sort by `seq`
  /// for arrival order; workload_replay does).
  std::vector<QueryLogRecord> records;
  /// The compact metrics-delta text from the trailer (may be empty).
  std::string metrics_text;

  /// Context parsed into a key → value map.
  std::map<std::string, std::string> ContextMap() const;
};

/// Reads a binary capture written by QueryLog. Fails on missing file, bad
/// magic/version, or a record-size mismatch (layout drift).
Result<QueryLogCapture> ReadQueryLogCapture(const std::string& path);

// ---------------------------------------------------------------------------
// Compact metrics-snapshot text: the capture-trailer format. One line per
// instrument, whitespace-delimited (instrument names contain no spaces by
// convention; names that do are rejected by the serializer):
//
//   counter <name> <value>
//   gauge <name> <value>
//   hist <name> <count> <sum> <max> [<bucket>:<count> ...]
//
// Round-trips through ParseSnapshotText with enough fidelity to recompute
// every percentile (sparse buckets travel along).

std::string SerializeSnapshotText(const metrics::RegistrySnapshot& snapshot);
metrics::RegistrySnapshot ParseSnapshotText(const std::string& text);

// ---------------------------------------------------------------------------
// Recording scope + cost hooks.

#ifdef INDOOR_METRICS_ENABLED

/// RAII recording scope for one query. Constructed at every query entry
/// point; dormant (all no-ops) unless the global log is armed and no
/// scope is already live on this thread — the outermost scope owns the
/// record, so a batch-level scope suppresses the per-kind scopes of the
/// queries it wraps. The destructor finishes and submits the record
/// unless Finish() was already called.
class QueryLogScope {
 public:
  QueryLogScope(RecordKind kind, double ax, double ay, double bx, double by,
                double radius, uint32_t k, bool explicit_scratch) {
    if (!internal::Armed()) return;
    Init(kind, ax, ay, bx, by, radius, k, explicit_scratch);
  }

  ~QueryLogScope() {
    if (active_ && !finished_) Finish();
  }

  QueryLogScope(const QueryLogScope&) = delete;
  QueryLogScope& operator=(const QueryLogScope&) = delete;

  /// True when this scope owns the thread's record.
  bool active() const { return active_; }

  /// The record's arrival sequence number (0 when dormant) — cross-links
  /// a trace-export event with its query-log record.
  uint64_t seq() const { return record_.seq; }

  void SetHost(uint32_t host) {
    if (active_) record_.host = host;
  }
  void SetBatch(uint64_t batch_id, uint16_t thread_id) {
    if (!active_) return;
    record_.batch_id = batch_id;
    record_.thread_id = thread_id;
    record_.flags |= kFlagBatched;
  }
  void SetResult(uint32_t count, double value) {
    if (!active_) return;
    record_.result_count = count;
    record_.result_value = value;
  }

  /// Completes the record (computes latency, applies the slow flag) and
  /// submits it. Returns the latency in nanoseconds (0 when dormant).
  /// Idempotent; the destructor calls it if the caller did not.
  uint64_t Finish();

  // Cost hooks (called via the free functions below on the thread's
  // active scope).
  void AddSettles(uint64_t n) { record_.settles += static_cast<uint32_t>(n); }
  void AddCacheLookup(bool hit) {
    hit ? ++record_.cache_hits : ++record_.cache_misses;
  }

 private:
  void Init(RecordKind kind, double ax, double ay, double bx, double by,
            double radius, uint32_t k, bool explicit_scratch);

  QueryLogRecord record_;
  std::chrono::steady_clock::time_point start_;
  bool active_ = false;
  bool finished_ = false;
};

namespace internal {
/// The calling thread's live scope, or nullptr.
QueryLogScope* ActiveScope();
}  // namespace internal

/// Attributes `n` door-graph Dijkstra settles to the live query, if any.
inline void AddSettles(uint64_t n) {
  if (QueryLogScope* scope = internal::ActiveScope()) scope->AddSettles(n);
}

/// Attributes one cross-query-cache lookup (hit or miss) to the live
/// query, if any.
inline void AddCacheLookup(bool hit) {
  if (QueryLogScope* scope = internal::ActiveScope()) {
    scope->AddCacheLookup(hit);
  }
}

#else  // !INDOOR_METRICS_ENABLED

/// OFF build: the scope is an empty shell and every hook is a no-op —
/// instrumented query paths compile to the uninstrumented code.
class QueryLogScope {
 public:
  QueryLogScope(RecordKind, double, double, double, double, double, uint32_t,
                bool) {}
  QueryLogScope(const QueryLogScope&) = delete;
  QueryLogScope& operator=(const QueryLogScope&) = delete;
  bool active() const { return false; }
  uint64_t seq() const { return 0; }
  void SetHost(uint32_t) {}
  void SetBatch(uint64_t, uint16_t) {}
  void SetResult(uint32_t, double) {}
  uint64_t Finish() { return 0; }
};

inline void AddSettles(uint64_t) {}
inline void AddCacheLookup(bool) {}

#endif  // INDOOR_METRICS_ENABLED

}  // namespace qlog
}  // namespace indoor

#endif  // INDOOR_UTIL_QUERY_LOG_H_
