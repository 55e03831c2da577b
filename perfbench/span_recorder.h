// In-memory span recorder for the benchmark's traced run. Spans are
// recorded from the benchmark's own code around each call into a library
// layer (outside-in), kept in memory while the run measures, and written
// out once the run ends.

#ifndef PERFBENCH_SPAN_RECORDER_H_
#define PERFBENCH_SPAN_RECORDER_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One recorded interval. Spans of one request share `request`.
struct Span {
  const char* name;  // string literal
  uint64_t start_ns;
  uint64_t end_ns;
  int32_t parent;    // index of the parent span, -1 for a root
  uint32_t request;  // request (or batch / move batch) id
};

/// Append-only span store of one thread. Begin() returns the span's index,
/// which children pass as their parent and End() closes.
class SpanRecorder {
 public:
  SpanRecorder() { spans_.reserve(size_t{1} << 18); }

  int32_t Begin(const char* name, uint32_t request, int32_t parent = -1) {
    spans_.push_back({name, 0, 0, parent, request});
    spans_.back().start_ns = NowNs();
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t span) {
    spans_[static_cast<size_t>(span)].end_ns = NowNs();
  }

  const std::vector<Span>& spans() const { return spans_; }

  static uint64_t Duration(const Span& s) { return s.end_ns - s.start_ns; }

  /// Self time of every span, by index: its duration minus the part of its
  /// interval covered by the union of its children's intervals.
  std::vector<uint64_t> SelfTimes() const {
    const size_t n = spans_.size();
    // Children grouped by parent (counting sort over parent indexes).
    std::vector<uint32_t> first(n + 1, 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) ++first[static_cast<size_t>(s.parent) + 1];
    }
    for (size_t i = 0; i < n; ++i) first[i + 1] += first[i];
    std::vector<uint32_t> children(first[n]);
    std::vector<uint32_t> fill(first.begin(), first.end() - 1);
    for (size_t i = 0; i < n; ++i) {
      if (spans_[i].parent >= 0) {
        children[fill[static_cast<size_t>(spans_[i].parent)]++] =
            static_cast<uint32_t>(i);
      }
    }
    std::vector<uint64_t> self(n);
    std::vector<std::pair<uint64_t, uint64_t>> cover;
    for (size_t i = 0; i < n; ++i) {
      const Span& s = spans_[i];
      cover.clear();
      for (uint32_t c = first[i]; c < first[i + 1]; ++c) {
        const Span& child = spans_[children[c]];
        const uint64_t lo = std::max(child.start_ns, s.start_ns);
        const uint64_t hi = std::min(child.end_ns, s.end_ns);
        if (lo < hi) cover.emplace_back(lo, hi);
      }
      std::sort(cover.begin(), cover.end());
      uint64_t covered = 0, reach = 0;
      for (const auto& [lo, hi] : cover) {
        const uint64_t from = std::max(lo, reach);
        if (hi > from) covered += hi - from;
        reach = std::max(reach, hi);
      }
      self[i] = Duration(s) - covered;
    }
    return self;
  }

  /// Writes the first `max_spans` spans as Chrome trace-event JSON ("X"
  /// events, times in microseconds relative to the first span), loadable
  /// in Perfetto or chrome://tracing. Returns false when the file cannot
  /// be written.
  bool WriteChromeTrace(const std::string& path, size_t max_spans) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", out);
    for (size_t i = 0; i < std::min(max_spans, spans_.size()); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"request\":%u}}\n",
                   i == 0 ? "" : ",", s.name,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(Duration(s)) / 1e3, i, s.parent,
                   s.request);
    }
    std::fputs("]}\n", out);
    return std::fclose(out) == 0;
  }

 private:
  std::vector<Span> spans_;
};

/// RAII span; a null recorder records nothing and reads no clock.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint32_t request,
             int32_t parent = -1)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->Begin(name, request, parent)
                                   : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t index() const { return index_; }

 private:
  SpanRecorder* recorder_;
  int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_RECORDER_H_
