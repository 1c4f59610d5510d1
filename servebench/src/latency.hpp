// Latency bookkeeping for the serving benchmark.
//
// The live workload is open-loop: event i is *due* at start + i / rate,
// whether or not the system kept up. An event's latency runs from its
// due time to the first engine on_batch callback whose cumulative
// events_ingested covers it, so time the generator ran late and time
// the serve thread stalled are both inside the number. With a single
// client, admission order equals send order, which makes the
// index -> batch mapping exact.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A quantile and the number of samples it was taken over.
struct Quantile {
  double value = 0.0;
  std::size_t samples = 0;
};

/// Nearest-rank q-quantile (q in [0, 1]) of `values`; {0, 0} when empty.
Quantile quantile(std::vector<double> values, double q);

/// A value that stands for `weight` identical samples (every event of
/// one batch shares the batch's latency).
struct Weighted {
  double value = 0.0;
  std::uint64_t weight = 0;
};

/// Nearest-rank q-quantile over the expanded samples; `samples` is the
/// total weight.
Quantile weighted_quantile(std::vector<Weighted> values, double q);

/// Median of `values` (0 when empty).
double median(std::vector<double> values);

/// One on_batch callback: when it ran and the engine's cumulative event
/// count at that point.
struct BatchMark {
  Clock::time_point at;
  std::uint64_t events_ingested = 0;
};

/// Open-loop schedule: event i is due at start + i / rate.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(Clock::time_point start, double events_per_second);

  Clock::time_point due(std::uint64_t index) const;
  /// Events due at or before `now` (indices [0, result) have come due).
  std::uint64_t due_by(Clock::time_point now) const;
  Clock::time_point start() const { return start_; }

 private:
  Clock::time_point start_;
  double rate_;
};

/// Appends, for each of the first `events` indices (admission order),
/// the seconds from `offered(index)` to the first mark whose
/// events_ingested exceeds the index. Marks must be in callback order
/// (events_ingested non-decreasing). Throws std::runtime_error when the
/// marks do not cover every event.
void offered_to_served_latencies(
    std::uint64_t events,
    const std::function<Clock::time_point(std::uint64_t)>& offered,
    const std::vector<BatchMark>& marks, std::vector<double>& out);

/// offered_to_served_latencies with each event offered at its due time.
void due_to_served_latencies(const OpenLoopSchedule& schedule,
                             std::uint64_t events,
                             const std::vector<BatchMark>& marks,
                             std::vector<double>& out);

/// Records how late a generator sent each event against its schedule.
class LatenessRecorder {
 public:
  /// Events [begin, end) left the generator at `sent`.
  void record(const OpenLoopSchedule& schedule, std::uint64_t begin,
              std::uint64_t end, Clock::time_point sent);
  /// Per-event lateness in seconds (never negative).
  const std::vector<double>& lateness() const { return late_; }

 private:
  std::vector<double> late_;
};

}  // namespace servebench
