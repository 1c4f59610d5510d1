// Timing wrapper around an engine EventSource.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/event_source.hpp"
#include "latency.hpp"
#include "spans.hpp"

namespace servebench {

/// Times every next_batch() on the serve thread and stamps when each
/// batch was handed to the engine. attach() forwards only once, so the
/// benchmark can attach (timed as set-up) before serve() re-attaches.
class TimedSource final : public repl::EventSource {
 public:
  /// `wait_span` names the span recorded around each next_batch() when
  /// `spans` is set.
  TimedSource(repl::EventSource& inner, SpanRecorder* spans,
              const char* wait_span)
      : inner_(inner), spans_(spans), wait_span_(wait_span) {}

  void attach(repl::StreamingEngine& engine) override {
    if (attached_) return;
    inner_.attach(engine);
    attached_ = true;
  }

  bool next_batch(std::vector<repl::LogEvent>& out) override {
    ScopedSpan span(spans_, wait_span_);
    const Clock::time_point start = Clock::now();
    const bool more = inner_.next_batch(out);
    last_return_ = Clock::now();
    wait_s_ += seconds_between(start, last_return_);
    last_batch_events_ = more ? out.size() : 0;
    if (more) ++batches_;
    return more;
  }

  std::uint64_t bytes_consumed() const override {
    return inner_.bytes_consumed();
  }

  /// Serve-thread seconds spent inside next_batch().
  double wait_s() const { return wait_s_; }
  /// When the latest next_batch() returned, and how many events it gave.
  Clock::time_point last_return() const { return last_return_; }
  std::size_t last_batch_events() const { return last_batch_events_; }
  std::uint64_t batches() const { return batches_; }

 private:
  repl::EventSource& inner_;
  SpanRecorder* spans_;
  const char* wait_span_;
  bool attached_ = false;
  double wait_s_ = 0.0;
  Clock::time_point last_return_{};
  std::size_t last_batch_events_ = 0;
  std::uint64_t batches_ = 0;
};

}  // namespace servebench
