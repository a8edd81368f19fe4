// In-memory span recorder of the traced benchmark run. Spans are recorded
// from the benchmark's own code around calls into each layer's public
// functions (no instrumentation inside the library), kept in memory, and
// written as JSON lines when the run ends.
#ifndef PIS_PERFBENCH_SPAN_LOG_H_
#define PIS_PERFBENCH_SPAN_LOG_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace pis::perfbench {

/// Milliseconds on the steady clock since the first call in this process.
inline double NowMs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double, std::milli>(Clock::now() - origin)
      .count();
}

/// One timed stage of one traced query.
struct Span {
  int64_t id = 0;
  /// Span that caused this one; 0 for a query's root span.
  int64_t parent = 0;
  /// Shared by every span of one query.
  std::string trace_id;
  /// Stage name; matches the program's own span names where a stage
  /// matches (enumerate, range_queries, filter, verify,
  /// shard_query:<endpoint>, shard_verify:<endpoint>).
  std::string name;
  double start_ms = 0;
  double end_ms = 0;

  double dur_ms() const { return end_ms - start_ms; }
};

/// \brief Thread-safe append-only span store.
class SpanLog {
 public:
  /// Reserves an id for a span whose children are recorded before it ends.
  int64_t NewId() PIS_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return ++next_id_;
  }

  /// Records a finished span under a pre-reserved id.
  void Record(Span span) PIS_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    spans_.push_back(std::move(span));
  }

  /// Records a finished span under a new id.
  void Add(const std::string& trace_id, int64_t parent,
           const std::string& name, double start_ms, double end_ms)
      PIS_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    spans_.push_back({++next_id_, parent, trace_id, name, start_ms, end_ms});
  }

  std::vector<Span> Snapshot() const PIS_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return spans_;
  }

  /// Writes one JSON object per span. Returns false when the file cannot
  /// be written.
  bool WriteJsonLines(const std::string& path) const PIS_EXCLUDES(mu_) {
    std::ofstream out(path);
    if (!out) return false;
    for (const Span& s : Snapshot()) {
      JsonValue line = JsonValue::Object();
      line.Set("id", static_cast<int64_t>(s.id));
      line.Set("parent", static_cast<int64_t>(s.parent));
      line.Set("trace_id", s.trace_id);
      line.Set("name", s.name);
      line.Set("start_ms", s.start_ms);
      line.Set("end_ms", s.end_ms);
      out << line.Serialize() << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  mutable Mutex mu_;
  int64_t next_id_ PIS_GUARDED_BY(mu_) = 0;
  std::vector<Span> spans_ PIS_GUARDED_BY(mu_);
};

/// Length of the union of `intervals` clipped to [lo, hi].
inline double CoveredMs(std::vector<std::pair<double, double>> intervals,
                        double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0;
  double cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end <= start) continue;
    covered += end - start;
    cursor = end;
  }
  return covered;
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover. Indexed like `spans`.
inline std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  std::vector<std::pair<int64_t, size_t>> by_id;
  by_id.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) by_id.emplace_back(spans[i].id, i);
  std::sort(by_id.begin(), by_id.end());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    auto it = std::lower_bound(by_id.begin(), by_id.end(),
                               std::make_pair(s.parent, size_t{0}));
    if (it == by_id.end() || it->first != s.parent) continue;
    children[it->second].emplace_back(s.start_ms, s.end_ms);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].dur_ms() -
              CoveredMs(std::move(children[i]), spans[i].start_ms,
                        spans[i].end_ms);
  }
  return self;
}

}  // namespace pis::perfbench

#endif  // PIS_PERFBENCH_SPAN_LOG_H_
