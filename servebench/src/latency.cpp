#include "latency.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace servebench {

Quantile quantile(std::vector<double> values, double q) {
  if (values.empty()) return {};
  q = std::clamp(q, 0.0, 1.0);
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  const auto n = values.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return {values[rank - 1], n};
}

Quantile weighted_quantile(std::vector<Weighted> values, double q) {
  std::uint64_t total = 0;
  for (const Weighted& v : values) total += v.weight;
  if (total == 0) return {};
  q = std::clamp(q, 0.0, 1.0);
  auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total)));
  rank = std::clamp<std::uint64_t>(rank, 1, total);
  std::sort(values.begin(), values.end(),
            [](const Weighted& a, const Weighted& b) { return a.value < b.value; });
  std::uint64_t seen = 0;
  for (const Weighted& v : values) {
    seen += v.weight;
    if (seen >= rank) return {v.value, static_cast<std::size_t>(total)};
  }
  return {values.back().value, static_cast<std::size_t>(total)};
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

OpenLoopSchedule::OpenLoopSchedule(Clock::time_point start,
                                   double events_per_second)
    : start_(start), rate_(events_per_second) {
  if (!(rate_ > 0.0)) throw std::invalid_argument("schedule rate must be > 0");
}

Clock::time_point OpenLoopSchedule::due(std::uint64_t index) const {
  return start_ + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(index) / rate_));
}

std::uint64_t OpenLoopSchedule::due_by(Clock::time_point now) const {
  if (now < start_) return 0;
  const double elapsed = seconds_between(start_, now);
  auto n = static_cast<std::uint64_t>(std::floor(elapsed * rate_)) + 1;
  // Guard the floating-point edge: index n-1 must really be due.
  while (n > 0 && due(n - 1) > now) --n;
  return n;
}

void offered_to_served_latencies(
    std::uint64_t events,
    const std::function<Clock::time_point(std::uint64_t)>& offered,
    const std::vector<BatchMark>& marks, std::vector<double>& out) {
  out.reserve(out.size() + events);
  std::size_t m = 0;
  for (std::uint64_t i = 0; i < events; ++i) {
    while (m < marks.size() && marks[m].events_ingested <= i) ++m;
    if (m == marks.size()) {
      throw std::runtime_error("no on_batch covers event " +
                               std::to_string(i) + " of " +
                               std::to_string(events));
    }
    out.push_back(seconds_between(offered(i), marks[m].at));
  }
}

void due_to_served_latencies(const OpenLoopSchedule& schedule,
                             std::uint64_t events,
                             const std::vector<BatchMark>& marks,
                             std::vector<double>& out) {
  offered_to_served_latencies(
      events, [&schedule](std::uint64_t i) { return schedule.due(i); }, marks,
      out);
}

void LatenessRecorder::record(const OpenLoopSchedule& schedule,
                              std::uint64_t begin, std::uint64_t end,
                              Clock::time_point sent) {
  for (std::uint64_t i = begin; i < end; ++i) {
    late_.push_back(std::max(0.0, seconds_between(schedule.due(i), sent)));
  }
}

}  // namespace servebench
