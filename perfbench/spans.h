// Spans recorded by the benchmark around its calls into the program's
// public functions (traced mode only). Spans live in memory and are
// written as JSON lines when the run ends; with recording off every call
// is a branch and nothing else, so the untraced runs time the same code.
//
// A span has a name, a start and an end (ns since the run's epoch), a
// parent (0 for an operation's root) and the id of the operation it
// belongs to. Besides timed spans the recorder accepts derived children:
// a duration the program reported itself (ExecStats::lookup_ms, a metric
// delta) laid at the start of its parent, so the self-time arithmetic
// treats both kinds alike.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  uint64_t op = 0;
  uint32_t id = 0;
  uint32_t parent = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool derived = false;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }

  /// Starts a new operation; later spans carry its id.
  void BeginOp();
  /// Opens a span under the innermost open one; returns its id (0 when
  /// recording is off).
  uint32_t Open(const char* name);
  void Close(uint32_t id);
  /// Adds a child of `parent` lasting `ms`, taken from the program's own
  /// accounting rather than a clock; returns its id (0 when off).
  uint32_t AddDerived(uint32_t parent, const char* name, double ms);

  /// Sum over all spans named `name` of their self time (duration minus
  /// the duration of their direct children), in ms.
  std::map<std::string, double> SelfTimeMs() const;
  /// Sum of the durations of the operation roots named `name`, in ms.
  double RootTotalMs(const std::string& name) const;

  /// Writes one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  int64_t NowNs() const;

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  uint64_t op_ = 0;
  std::vector<Span> spans_;        // index = id - 1
  std::vector<uint32_t> open_;     // stack of open span ids
};

/// Scoped span; does nothing when the recorder is off.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name)
      : rec_(rec), id_(rec->Open(name)) {}
  ~ScopedSpan() { rec_->Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  uint32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
