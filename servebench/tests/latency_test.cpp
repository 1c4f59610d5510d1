// Tests of the benchmark's own latency and span bookkeeping.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "latency.hpp"
#include "live.hpp"
#include "spans.hpp"

namespace servebench {
namespace {

using std::chrono::milliseconds;

TEST(Quantile, ReportsItsSampleCount) {
  const Quantile empty = quantile({}, 0.99);
  EXPECT_EQ(empty.samples, 0u);
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) values.push_back(i);
  const Quantile p99 = quantile(values, 0.99);
  EXPECT_EQ(p99.samples, 1000u);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(quantile(values, 0.5).value, 500.0);

  const Quantile weighted =
      weighted_quantile({{2.0, 99}, {7.0, 1}, {1.0, 900}}, 0.99);
  EXPECT_EQ(weighted.samples, 1000u);
  EXPECT_EQ(weighted.value, 2.0);
  EXPECT_EQ(weighted_quantile({{2.0, 99}, {7.0, 1}, {1.0, 900}}, 1.0).value, 7.0);
}

TEST(DueToServed, MapsEachIndexToTheFirstCoveringBatch) {
  const Clock::time_point t0 = Clock::now();
  const OpenLoopSchedule schedule(t0, 1000.0);  // event i due at t0 + i ms
  EXPECT_EQ(schedule.due_by(t0), 1u);
  EXPECT_EQ(schedule.due_by(t0 + milliseconds(2)), 3u);
  // Batches: events [0,2) served at 5 ms, [2,2) nothing new at 6 ms,
  // [2,5) at 9 ms.
  const std::vector<BatchMark> marks = {{t0 + milliseconds(5), 2},
                                        {t0 + milliseconds(6), 2},
                                        {t0 + milliseconds(9), 5}};
  std::vector<double> latencies;
  due_to_served_latencies(schedule, 5, marks, latencies);
  const std::vector<double> expected = {0.005, 0.004, 0.007, 0.006, 0.005};
  ASSERT_EQ(latencies.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(latencies[i], expected[i], 1e-6) << "event " << i;
  }
  std::vector<double> uncovered;
  EXPECT_THROW(due_to_served_latencies(schedule, 6, marks, uncovered),
               std::runtime_error);
}

class LiveSessionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkloadSpec spec;
    spec.name = "latency-test";
    spec.objects = 5000;
    spec.events = 20000;
    generate_log(spec, 7, log_path());
  }
  static void TearDownTestSuite() { std::filesystem::remove(log_path()); }
  static std::string log_path() { return "servebench_latency_test.evlog"; }

  LiveSessionOptions options() const {
    LiveSessionOptions o;
    o.log_path = log_path();
    o.socket_path = "servebench_latency_test.sock";
    return o;
  }
};

TEST_F(LiveSessionTest, ServeThreadStallRaisesEveryEventDueDuringIt) {
  LiveSessionOptions o = options();
  Clock::time_point stall_start{};
  Clock::time_point stall_end{};
  o.hooks.after_batch = [&](std::uint64_t ingested) {
    if (ingested < 5000 || stall_start != Clock::time_point{}) return;
    stall_start = Clock::now();
    std::this_thread::sleep_for(milliseconds(50));
    stall_end = Clock::now();
  };
  const LiveSession s = run_live_session(o);
  ASSERT_NE(stall_start, Clock::time_point{});
  ASSERT_EQ(s.latencies.size(), 20000u);
  const OpenLoopSchedule schedule(s.schedule_start, kLiveEventsPerSecond);
  std::size_t during = 0;
  for (std::uint64_t i = 0; i < s.latencies.size(); ++i) {
    const Clock::time_point due = schedule.due(i);
    if (due < stall_start || due >= stall_end) continue;
    ++during;
    // Nothing due during the stall can be served before it ends.
    EXPECT_GE(s.latencies[i], seconds_between(due, stall_end) - 1e-9)
        << "event " << i;
  }
  EXPECT_GT(during, 1000u);  // ~50 ms at 100k ev/s
  EXPECT_GE(quantile(s.latencies, 0.99).value, 0.040);
}

TEST_F(LiveSessionTest, LateGeneratorShowsInLateness) {
  LiveSessionOptions o = options();
  bool stalled = false;
  o.hooks.before_group = [&](std::uint64_t next) {
    if (next < 2000 || stalled) return;
    stalled = true;
    std::this_thread::sleep_for(milliseconds(30));
  };
  const LiveSession s = run_live_session(o);
  ASSERT_TRUE(stalled);
  ASSERT_EQ(s.lateness.size(), 20000u);
  EXPECT_GE(quantile(s.lateness, 0.99).value, 0.020);
  // Lateness is inside the latency too: it runs from the due time.
  EXPECT_GE(quantile(s.latencies, 0.99).value, 0.020);
}

TEST_F(LiveSessionTest, PacedSessionMatchesFileReplay) {
  const LiveSession s = run_live_session(options());
  auto engine = engine_builder().build();
  repl::EventLogReader reader(log_path());
  EXPECT_EQ(aggregate_line(s.metrics),
            aggregate_line(engine->serve(reader, repl::ServeOptions{})));
  // 20k events at 100k ev/s take ~0.2 s; an unpaced client would not.
  EXPECT_GE(s.serve_s, 0.18);
}

TEST(Spans, SelfTimeExcludesChildren) {
  SpanRecorder recorder;
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan parent(&recorder, "parent");
    recorder.add("child", t0, t0 + milliseconds(20));
    std::this_thread::sleep_for(milliseconds(30));
  }
  const auto rows = recorder.table();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "child");
  EXPECT_NEAR(rows[0].self_s, 0.020, 1e-9);
  EXPECT_EQ(rows[1].name, "parent");
  EXPECT_NEAR(rows[1].self_s, rows[1].total_s - 0.020, 1e-9);
}

}  // namespace
}  // namespace servebench
