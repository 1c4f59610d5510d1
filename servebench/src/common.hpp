// Shared configuration and plumbing of the serving benchmark.
//
// Every workload serves drwp(alpha=0.3) x last_gap on 10 servers with
// transfer cost 10, on engines that run one engine thread: on a shared
// 4-core machine a thread pool measures the scheduler, not the program,
// so parallel scaling is left out of this benchmark.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/experiment.hpp"
#include "engine/engine.hpp"
#include "spans.hpp"

namespace servebench {

inline constexpr int kServers = 10;
inline constexpr double kTransferCost = 10.0;
inline constexpr const char* kPolicy = "drwp(alpha=0.3)";
inline constexpr const char* kPredictor = "last_gap";
inline constexpr std::size_t kShards = 64;
inline constexpr int kEngineThreads = 1;

/// Fewest measured repetitions per run, whatever --seconds says, so that
/// every reported median is over at least three values.
inline constexpr int kMinReps = 3;

/// Input shape of one workload; the log is generated from it and the
/// run's seed.
struct WorkloadSpec {
  std::string name;
  std::uint64_t objects = 0;
  std::uint64_t events = 0;
};

/// The workloads, by name; throws std::invalid_argument on an unknown one.
const WorkloadSpec& workload_spec(const std::string& name);

repl::SystemConfig system_config();
/// Builder for every engine the benchmark constructs (fresh or restored).
repl::EngineBuilder engine_builder();

/// Generates the workload's compressed v2 log at `path` (Zipf(1.0)
/// object popularity, Poisson arrivals). Deterministic in (spec, seed).
void generate_log(const WorkloadSpec& spec, std::uint64_t seed,
                  const std::string& path);

/// The canonical aggregate line; costs print as hexfloat, so equal lines
/// mean bit-identical doubles.
std::string aggregate_line(const repl::EngineMetrics& metrics);

/// Peak resident set (VmHWM) of `pid` (0 = this process) in bytes; 0 when
/// unreadable (the process is gone).
std::uint64_t peak_rss_bytes(int pid = 0);

std::uint64_t file_size(const std::string& path);

/// What one run reports: the result line's fields, metric values by name
/// (units live in BENCHMARK.json), and human-readable lines printed
/// before the result.
struct RunOutcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;
  std::vector<std::string> report;

  /// Counts one repetition: `events` sent, all of them failed unless
  /// `ok` (a rep that fails its parity check serves nothing correctly).
  void count_rep(std::uint64_t events, bool ok) {
    attempted += events;
    if (!ok) {
      failed += events;
      correct = false;
    }
  }
  double served_share() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(attempted - failed) /
                                static_cast<double>(attempted);
  }
};

/// Per-rep samples by metric name; each reported value is a median.
class Samples {
 public:
  void add(const std::string& name, double value) {
    series_[name].push_back(value);
  }
  double median_of(const std::string& name) const;
  /// Stores the median of every series into `values`.
  void store_medians(std::map<std::string, double>& values) const;
  /// One line per series: "<name> n=<count>: v1 v2 ...".
  std::vector<std::string> describe() const;

 private:
  std::map<std::string, std::vector<double>> series_;
};

struct RunContext {
  WorkloadSpec spec;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string log_path;
  /// Aggregate line of a single-process file replay of the log.
  std::string reference;
  /// Directory for checkpoints and sockets. Keep it short and relative:
  /// unix socket paths are limited to ~100 bytes.
  std::string work_dir;
  /// Where the traced run writes its Chrome trace.
  std::string trace_path;
};

/// Repetition plan: reps run until --seconds have passed, and at least
/// kMinReps of them. Traced runs alternate untraced and traced reps, at
/// least kMinReps of each, so obs.trace_overhead compares the two under
/// the same conditions.
class RepPlan {
 public:
  RepPlan(const RunContext& ctx);
  /// True while another rep should start.
  bool more() const;
  /// Whether the next rep records spans; advances the plan.
  bool next_traced();
  int reps() const { return reps_; }

 private:
  double seconds_;
  bool trace_;
  int min_reps_;
  int reps_ = 0;
  Clock::time_point start_;
};

/// A rep's recorder when it is traced, null otherwise.
inline SpanRecorder* rep_spans(bool traced, SpanRecorder& recorder) {
  return traced ? &recorder : nullptr;
}

/// Timed checkpoint/restore cycles of one end-of-stream engine state.
struct SnapshotCycles {
  std::vector<double> checkpoint_s;  ///< each checkpoint(), fsync included
  std::vector<double> restore_s;     ///< each restore() into a fresh engine
  std::uint64_t bytes = 0;
  std::uint64_t objects = 0;
  /// finish() of the restored engines; empty when they disagree.
  std::string restored_aggregate;

  double checkpoint_total_s() const;
};

/// Checkpoints `engine` `cycles` times to `path`. Call it from the last
/// on_batch: the state is then the full end-of-stream state.
void write_checkpoints(repl::StreamingEngine& engine, const std::string& path,
                       int cycles, SpanRecorder* spans, SnapshotCycles& out);
/// Restores `path` into a fresh engine once per checkpoint written and
/// finishes each one, then removes the snapshot.
void restore_checkpoints(const std::string& path, SpanRecorder* spans,
                         SnapshotCycles& out);
/// checkpoint_s, restore_s and the checkpoint.* layer samples.
void add_checkpoint_samples(const SnapshotCycles& cycles, Samples& samples);

/// One single-process file replay of a log through serve(LogReplaySource)
/// with async ingest, `cycles` end-of-stream checkpoints from the last
/// on_batch, finish, then as many restores into fresh engines, each
/// finished.
struct ReplayPass {
  bool ok = false;  ///< all events served, every restore == uninterrupted
  std::string aggregate;
  std::uint64_t events = 0;
  std::uint64_t objects = 0;
  std::uint64_t batches = 0;  ///< EngineStats::batches
  double setup_s = 0.0;       ///< engine construction + source attach
  double serve_s = 0.0;       ///< serve() wall, checkpoints excluded
  double ingest_s = 0.0;      ///< next_batch return -> on_batch, summed
  double finish_s = 0.0;      ///< last next_batch return -> serve return
  double wait_s = 0.0;        ///< serve thread inside next_batch
  /// Per batch: next_batch return -> on_batch, weighted by its events.
  std::vector<Weighted> latencies;
  SnapshotCycles snapshots;
};
ReplayPass replay_pass(const std::string& log_path, const std::string& snapshot,
                       int cycles, SpanRecorder* spans);

/// One standalone EventLogReader pass over the log, in MB/s.
double decode_mb_per_s(const std::string& log_path, SpanRecorder* spans);

/// Completes a run's outcome from its samples: medians of the reported
/// set (untraced reps, or traced reps in a traced run),
/// obs.trace_overhead and codec.decode_mb_per_s in a traced run, peak RSS,
/// per-object RSS of the engines (`engine_rss_bytes`), served share; and
/// the sample listing, per-layer self-time table and Chrome trace.
void finish_outcome(const RunContext& ctx, const Samples& plain,
                    const Samples& traced, SpanRecorder& recorder,
                    double peak_rss_bytes, double engine_rss_bytes,
                    RunOutcome& out);

RunOutcome run_replay(const RunContext& ctx);
RunOutcome run_live(const RunContext& ctx);
RunOutcome run_cluster(const RunContext& ctx);

}  // namespace servebench
