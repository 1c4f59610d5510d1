// One open-loop live session: a single in-process EventStreamClient
// streams a log over a unix socket into NetIngestServer ->
// NetIngestSource -> StreamingEngine::serve at a fixed rate, flushing
// after each group of events that has come due.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "engine/engine.hpp"
#include "latency.hpp"
#include "spans.hpp"

namespace servebench {

struct LiveHooks {
  /// Serve thread, after each on_batch has been stamped: a test injects
  /// a serve-thread stall here.
  std::function<void(std::uint64_t events_ingested)> after_batch;
  /// Generator thread, before each group is sent: a test makes the
  /// generator late here.
  std::function<void(std::uint64_t next_index)> before_group;
};

/// The open-loop client's fixed rate, far below the rate one saturated
/// client reaches.
inline constexpr double kLiveEventsPerSecond = 100000.0;

struct LiveSessionOptions {
  std::string log_path;
  std::string socket_path;
  /// When set, the end-of-stream state is checkpointed here
  /// `snapshot_cycles` times from the last on_batch (kept out of serve
  /// time); restore_checkpoints() then times the restores.
  std::string snapshot_path;
  int snapshot_cycles = 1;
  SpanRecorder* spans = nullptr;
  LiveHooks hooks;
};

struct LiveSession {
  repl::EngineMetrics metrics;
  std::uint64_t events = 0;
  /// Start of the open-loop schedule (event 0's due time).
  Clock::time_point schedule_start{};
  /// Server start plus client connect and handshake.
  double setup_s = 0.0;
  /// serve() wall time, end-of-stream checkpoints excluded.
  double serve_s = 0.0;
  SnapshotCycles snapshots;
  /// Per event: due time -> first on_batch covering it.
  std::vector<double> latencies;
  /// Per event: how late the generator sent it.
  std::vector<double> lateness;
  std::vector<BatchMark> marks;
  double ingest_s = 0.0;       // next_batch return -> on_batch
  double finish_s = 0.0;       // last next_batch return -> serve return
  double admit_wait_s = 0.0;   // inside NetIngestSource::next_batch
  double send_s = 0.0;         // client send + flush
  std::uint64_t engine_batches = 0;    // EngineStats::batches
  std::uint64_t admitted_batches = 0;  // NetIngestSource batches
  std::uint64_t queued_events_max = 0;  // sampled only when traced
  std::uint64_t backpressure_stalls = 0;
  std::uint64_t failed_connections = 0;
};

/// Runs one session to completion. Throws if the client or the serve
/// fails.
LiveSession run_live_session(const LiveSessionOptions& options);

}  // namespace servebench
