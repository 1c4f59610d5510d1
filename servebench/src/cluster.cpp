// cluster-2p: ClusterCoordinator::serve_log over 2 worker processes with
// one engine thread each, 64 shards and no periodic checkpoints, as fast
// as the coordinator can route.
#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "cluster/coordinator.hpp"
#include "common.hpp"
#include "obs/metrics.hpp"

#ifndef SERVEBENCH_WORKER_BIN
#error "SERVEBENCH_WORKER_BIN must name the repl_cluster worker executable"
#endif

namespace servebench {

namespace {

constexpr std::uint32_t kPartitions = 2;
/// Checkpoint/restore cycles per rep.
constexpr int kSnapshotCycles = 2;

/// Polls, while the workers live: each partition's federated
/// repl_events_ingested_total (the served marks of the latency), the
/// workers' peak RSS (VmHWM), and in traced reps the coordinator's
/// in-flight gauge. Worker pids are published by the routing thread,
/// which owns them.
class WorkerPoller {
 public:
  WorkerPoller(repl::ClusterCoordinator& coordinator, bool sample_in_flight)
      : coordinator_(coordinator), sample_in_flight_(sample_in_flight),
        thread_([this] { loop(); }) {}

  ~WorkerPoller() { stop(); }
  WorkerPoller(const WorkerPoller&) = delete;
  WorkerPoller& operator=(const WorkerPoller&) = delete;

  void publish_pid(std::uint32_t partition, int pid) {
    pids_[partition].store(pid, std::memory_order_relaxed);
  }

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  std::uint64_t worker_rss_sum() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t rss : peak_rss_) sum += rss;
    return sum;
  }
  double in_flight_max() const { return in_flight_max_; }
  /// Read after stop().
  const std::vector<BatchMark>& served_marks(std::uint32_t partition) const {
    return marks_[partition];
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stopping_) {
      lock.unlock();
      sample();
      lock.lock();
      cv_.wait_for(lock, std::chrono::milliseconds(1), [this] { return stopping_; });
    }
    lock.unlock();
    sample();
  }

  void sample() {
    const bool rss_due = polls_++ % 4 == 0;
    for (std::uint32_t p = 0; p < kPartitions; ++p) {
      const Clock::time_point now = Clock::now();
      const std::uint64_t served =
          coordinator_.federated_counter(p, "repl_events_ingested_total");
      if (marks_[p].empty() || marks_[p].back().events_ingested != served) {
        marks_[p].push_back({now, served});
      }
      const int pid = pids_[p].load(std::memory_order_relaxed);
      if (rss_due && pid > 0) {
        peak_rss_[p] = std::max(peak_rss_[p], peak_rss_bytes(pid));
      }
    }
    if (!sample_in_flight_ || !rss_due) return;
    for (const repl::obs::Sample& s : coordinator_.registry().collect()) {
      if (s.name == "repl_cluster_events_in_flight") {
        in_flight_max_ = std::max(in_flight_max_, s.value);
      }
    }
  }

  repl::ClusterCoordinator& coordinator_;
  const bool sample_in_flight_;
  std::array<std::atomic<int>, kPartitions> pids_{};
  std::array<std::uint64_t, kPartitions> peak_rss_{};  // poller thread only
  double in_flight_max_ = 0.0;                         // poller thread only
  std::array<std::vector<BatchMark>, kPartitions> marks_;  // poller thread only
  std::uint64_t polls_ = 0;                                // poller thread only
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;  // last: starts once the members above exist
};

double federated_stage_sum(const std::vector<repl::obs::Sample>& samples,
                           const std::string& stage) {
  double sum = 0.0;
  for (const repl::obs::Sample& s : samples) {
    if (s.name != "repl_stage_seconds") continue;
    for (const auto& [key, value] : s.labels) {
      if (key == "stage" && value == stage) sum += s.sum;
    }
  }
  return sum;
}

}  // namespace

RunOutcome run_cluster(const RunContext& ctx) {
  RunOutcome out;
  SpanRecorder recorder;
  Samples plain;
  Samples traced;
  const std::string socket_dir = ctx.work_dir + "/cluster";
  std::uint64_t worker_rss_max = 0;
  std::size_t latency_samples = 0;
  std::uint64_t coordinator_rss = 0;
  for (RepPlan plan(ctx); plan.more();) {
    const bool trace_rep = plan.next_traced();
    Samples& samples = trace_rep ? traced : plain;
    SpanRecorder* spans = rep_spans(trace_rep, recorder);
    ScopedSpan rep_span(spans, "cluster.rep");
    std::filesystem::remove_all(socket_dir);
    std::filesystem::create_directories(socket_dir);

    repl::ClusterCoordinatorOptions options;
    options.num_partitions = kPartitions;
    options.worker_binary = SERVEBENCH_WORKER_BIN;
    options.socket_dir = socket_dir;
    options.config = system_config();
    options.policy_spec = kPolicy;
    options.predictor_spec = kPredictor;
    options.worker_shards = kShards;
    options.worker_threads = kEngineThreads;
    options.checkpoint_every = 0;

    Clock::time_point first_progress{};
    Clock::time_point last_progress{};
    std::uint64_t routed = 0;
    repl::ClusterCoordinator* live = nullptr;
    WorkerPoller* poller = nullptr;
    std::array<std::vector<Clock::time_point>, kPartitions> routed_at;
    options.on_progress = [&](std::uint32_t partition, std::uint64_t) {
      last_progress = Clock::now();
      routed_at[partition].push_back(last_progress);
      if (routed++ == 0) {
        first_progress = last_progress;
        for (std::uint32_t p = 0; p < kPartitions; ++p) {
          poller->publish_pid(p, live->worker_pid(p));
        }
      }
    };
    repl::ClusterCoordinator coordinator(options);
    live = &coordinator;
    WorkerPoller worker_poller(coordinator, trace_rep);
    poller = &worker_poller;

    const Clock::time_point start = Clock::now();
    const repl::ClusterServeResult result = coordinator.serve_log(ctx.log_path);
    const Clock::time_point end = Clock::now();
    worker_poller.stop();
    if (routed == 0) throw std::runtime_error("cluster routed no events");
    if (spans) {
      spans->add("cluster.spawn", start, first_progress);
      spans->add("cluster.route", first_progress, last_progress);
      spans->add("cluster.drain", last_progress, end);
    }

    const std::vector<repl::obs::Sample> fed = coordinator.federated_samples();
    std::uint64_t worker_events = 0;
    std::uint64_t worker_batches = 0;
    std::uint64_t busiest = 0;
    std::uint64_t idlest = ~std::uint64_t{0};
    for (std::uint32_t p = 0; p < kPartitions; ++p) {
      worker_events += coordinator.federated_counter(p, "repl_events_ingested_total");
      worker_batches += coordinator.federated_counter(p, "repl_batches_total");
      busiest = std::max<std::uint64_t>(busiest, result.summaries[p].events);
      idlest = std::min<std::uint64_t>(idlest, result.summaries[p].events);
    }
    // Per event: routed by the coordinator -> its worker's federated
    // ingested count covers it.
    std::vector<double> latencies;
    for (std::uint32_t p = 0; p < kPartitions; ++p) {
      const auto& at = routed_at[p];
      offered_to_served_latencies(
          at.size(), [&at](std::uint64_t i) { return at[i]; },
          worker_poller.served_marks(p), latencies);
    }
    latency_samples = latencies.size();

    // The coordinator's peak RSS is read after its first rep, before any
    // in-process checkpoint pass has grown it.
    if (coordinator_rss == 0) coordinator_rss = peak_rss_bytes();

    // End-of-stream checkpoint and restore of the same log's state, by
    // one in-process engine: the workers take no checkpoints, so their
    // fsyncs stay out of the cluster's throughput. The pass's freed heap
    // stays mapped, so later reps' fork() copies more page tables (a few
    // ms of setup_s); handing it back to the kernel instead made every
    // restore page-fault afresh and restore_s far noisier.
    const ReplayPass pass =
        replay_pass(ctx.log_path, ctx.work_dir + "/cluster.snap", kSnapshotCycles, spans);
    add_checkpoint_samples(pass.snapshots, samples);
    out.count_rep(result.metrics.events,
                  result.respawns == 0 &&
                      aggregate_line(result.metrics) == ctx.reference &&
                      pass.ok && pass.aggregate == ctx.reference);

    const double events = static_cast<double>(result.metrics.events);
    const double setup_s = seconds_between(start, first_progress);
    worker_rss_max = std::max(worker_rss_max, worker_poller.worker_rss_sum());
    samples.add("setup_s", setup_s);
    samples.add("events_per_s", events / (seconds_between(start, end) - setup_s));
    samples.add("latency_p50_ms", 1e3 * quantile(latencies, 0.50).value);
    samples.add("latency_p99_ms", 1e3 * quantile(latencies, 0.99).value);
    const double ingest_s =
        federated_stage_sum(fed, "route") + federated_stage_sum(fed, "execute");
    samples.add("engine.ingest_s", ingest_s);
    samples.add("engine.ingest_ns_per_event", 1e9 * ingest_s / events);
    samples.add("engine.finish_s", federated_stage_sum(fed, "reduce"));
    samples.add("engine.events_per_batch",
                static_cast<double>(worker_events) / static_cast<double>(worker_batches));
    samples.add("engine.objects", static_cast<double>(result.metrics.objects));
    samples.add("cluster.spawn_s", setup_s);
    samples.add("cluster.route_ns_per_event",
                1e9 * seconds_between(first_progress, last_progress) /
                    static_cast<double>(routed));
    samples.add("cluster.drain_s", seconds_between(last_progress, end));
    samples.add("cluster.worker_events_per_batch",
                static_cast<double>(worker_events) / static_cast<double>(worker_batches));
    samples.add("cluster.in_flight_max", worker_poller.in_flight_max());
    samples.add("cluster.partition_skew",
                static_cast<double>(busiest) / static_cast<double>(idlest));
    samples.add("cluster.respawns", static_cast<double>(result.respawns));
    if (trace_rep) {
      out.report.push_back(
          "cluster rep: worker events " + std::to_string(worker_events) +
          " in " + std::to_string(worker_batches) + " worker batches");
    }
  }
  std::filesystem::remove_all(socket_dir);
  const double peak_rss = static_cast<double>(coordinator_rss + worker_rss_max);

  out.report.push_back("latency percentiles: per rep over " +
                       std::to_string(latency_samples) +
                       " events (routed -> federated ingested), median across reps");
  finish_outcome(ctx, plain, traced, recorder, peak_rss, static_cast<double>(worker_rss_max), out);
  return out;
}

}  // namespace servebench
