// In-memory spans recorded by the benchmark around its calls into each
// layer of the program (the program's own spans are not used).
//
// Spans are kept in memory and written once, at the end of the run, as a
// Chrome trace_event JSON document. Each span has a name, start, end, an
// id, and the id of the span that caused it (its parent). A layer's self
// time is its duration minus the time its child spans cover; children
// nest on the parent's thread, so self time is accumulated as each child
// closes. Every span feeds the per-name totals; only the first
// kMaxRecordsPerName of each name are kept for the trace file, so a
// per-batch span on a long run cannot grow memory without bound.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "latency.hpp"

namespace servebench {

class SpanRecorder {
 public:
  static constexpr std::size_t kMaxRecordsPerName = 4096;

  SpanRecorder();

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Opens a span on the calling thread, nested under the thread's
  /// innermost open span. Returns its id.
  std::uint64_t open(const char* name);
  /// Closes span `id`, the calling thread's innermost open span (and any
  /// span left open inside it).
  void close(std::uint64_t id) noexcept;
  /// Records a closed span from two timestamps taken elsewhere (the gap
  /// between two callbacks), as a child of the thread's innermost open
  /// span. `end` must not precede `start`.
  void add(const char* name, Clock::time_point start, Clock::time_point end);

  struct Row {
    std::string name;
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  /// Per-name totals, sorted by name.
  std::vector<Row> table() const;

  /// Writes {"traceEvents":[...]} with one complete ("X") event per kept
  /// span; returns the number written. Throws on an I/O failure.
  std::size_t write_chrome_trace(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint32_t tid;
    Clock::time_point start;
    Clock::time_point end;
  };
  struct Open {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;
    Clock::time_point start;
    double child_s;
  };
  struct Thread {
    std::uint32_t tid;
    std::vector<Open> stack;
  };

  Thread& thread_state();
  void finish(const Open& span, std::uint32_t tid, Clock::time_point end,
              Thread& thread);

  const Clock::time_point epoch_;
  mutable std::mutex mu_;  // guards everything below
  std::uint64_t next_id_ = 1;
  std::map<std::thread::id, Thread> threads_;
  std::map<std::string, Row> rows_;
  std::map<std::string, std::size_t> kept_;
  std::vector<Record> records_;
};

/// RAII span on an optional recorder (null: untraced, no cost).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), id_(recorder ? recorder->open(name) : 0) {}
  ~ScopedSpan() {
    if (recorder_) recorder_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::uint64_t id_;
};

}  // namespace servebench
