// live-paced: one open-loop client at a fixed 100k ev/s over a unix
// socket, well below saturation, so latency measures the admission path
// at low queue depth.
#include "live.hpp"

#include <exception>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "net/client.hpp"
#include "net/ingest_server.hpp"
#include "obs/metrics.hpp"
#include "timed_source.hpp"
#include "trace/event_log.hpp"

namespace servebench {

namespace {

constexpr int kSetupProbesPerRep = 8;
constexpr int kSnapshotCycles = 3;

repl::NetServerOptions server_options(const std::string& socket_path) {
  repl::NetServerOptions net;
  net.tcp_port = -1;
  net.unix_path = socket_path;
  net.min_connections = 1;
  return net;
}

std::uint64_t counter_value(const std::vector<repl::obs::Sample>& samples,
                            const std::string& name) {
  for (const repl::obs::Sample& s : samples) {
    if (s.name == name && s.labels.empty()) return s.counter_value;
  }
  return 0;
}

/// Server start plus client handshake, then a clean teardown.
double live_setup_probe(const std::string& socket_path) {
  auto engine = engine_builder().build();
  repl::NetIngestServer server(server_options(socket_path));
  repl::NetIngestSource source(server, static_cast<std::uint32_t>(kServers));
  const Clock::time_point start = Clock::now();
  source.attach(*engine);
  repl::EventStreamClient client(repl::connect_unix(socket_path));
  client.handshake(static_cast<std::uint32_t>(kServers));
  const double seconds = seconds_between(start, Clock::now());
  client.finish();
  server.stop();
  return seconds;
}

/// The generator: reads the log from disk and sends each group of events
/// as it comes due, flushing after every group.
void generate(repl::EventStreamClient& client, const std::string& log_path,
              std::uint64_t total, const OpenLoopSchedule& schedule,
              const LiveSessionOptions& options, LiveSession& session) {
  repl::EventLogReader reader(log_path);
  std::vector<repl::LogEvent> buffer;
  std::size_t next = 0;
  std::uint64_t sent = 0;
  LatenessRecorder lateness;
  while (sent < total) {
    const std::uint64_t due = std::min(schedule.due_by(Clock::now()), total);
    if (due == sent) {
      std::this_thread::sleep_until(schedule.due(sent));
      continue;
    }
    if (options.hooks.before_group) options.hooks.before_group(sent);
    ScopedSpan span(options.spans, "net.send");
    const Clock::time_point start = Clock::now();
    const std::uint64_t begin = sent;
    for (; sent < due; ++sent) {
      if (next == buffer.size()) {
        if (reader.read_batch(buffer, repl::kEventLogBlockEvents) == 0) {
          throw std::runtime_error("log ended before its event count");
        }
        next = 0;
      }
      client.send(buffer[next++]);
    }
    client.flush();
    const Clock::time_point flushed = Clock::now();
    session.send_s += seconds_between(start, flushed);
    lateness.record(schedule, begin, sent, flushed);
  }
  session.lateness = lateness.lateness();
  client.finish();
}

}  // namespace

LiveSession run_live_session(const LiveSessionOptions& options) {
  LiveSession session;
  SpanRecorder* spans = options.spans;
  std::uint64_t total = 0;
  {
    repl::EventLogReader probe(options.log_path);
    total = probe.header().num_events;
  }
  if (total == repl::EventLogHeader::kUnknownCount || total == 0) {
    throw std::runtime_error("live log has no event count");
  }
  session.events = total;

  auto engine = engine_builder().build();
  repl::NetIngestServer server(server_options(options.socket_path));
  repl::NetIngestSource net_source(server, static_cast<std::uint32_t>(kServers));
  TimedSource source(net_source, spans, "net.next_batch");
  std::unique_ptr<repl::EventStreamClient> client;
  {
    ScopedSpan span(spans, "setup");
    const Clock::time_point start = Clock::now();
    source.attach(*engine);
    client = std::make_unique<repl::EventStreamClient>(
        repl::connect_unix(options.socket_path));
    client->handshake(static_cast<std::uint32_t>(kServers));
    session.setup_s = seconds_between(start, Clock::now());
  }

  repl::ServeOptions serve;
  serve.on_batch = [&](const repl::EngineStats& stats) {
    const Clock::time_point now = Clock::now();
    session.marks.push_back({now, stats.events_ingested});
    session.engine_batches = stats.batches;
    session.ingest_s += seconds_between(source.last_return(), now);
    if (spans) {
      spans->add("engine.ingest", source.last_return(), now);
      // events_queued() takes the lock the connection thread enqueues
      // under, so untraced reps leave it alone.
      session.queued_events_max = std::max<std::uint64_t>(
          session.queued_events_max, server.events_queued());
    }
    if (options.hooks.after_batch) options.hooks.after_batch(stats.events_ingested);
    if (!options.snapshot_path.empty() && stats.events_ingested == total) {
      write_checkpoints(*engine, options.snapshot_path, options.snapshot_cycles,
                        spans, session.snapshots);
    }
  };

  // The schedule starts when the generator thread does; serve() is
  // entered right after, on this thread.
  std::exception_ptr client_error;
  const Clock::time_point schedule_start = Clock::now();
  std::thread generator([&] {
    try {
      const OpenLoopSchedule schedule(schedule_start, kLiveEventsPerSecond);
      generate(*client, options.log_path, total, schedule, options, session);
    } catch (...) {
      client_error = std::current_exception();
      client.reset();  // drop the connection so serve() can end
    }
  });
  try {
    ScopedSpan span(spans, "engine.serve");
    const Clock::time_point start = Clock::now();
    session.metrics = engine->serve(source, serve);
    const Clock::time_point end = Clock::now();
    session.serve_s =
        seconds_between(start, end) - session.snapshots.checkpoint_total_s();
    session.finish_s = seconds_between(source.last_return(), end);
  } catch (...) {
    server.stop();
    generator.join();
    throw;
  }
  generator.join();
  if (client_error) std::rethrow_exception(client_error);

  session.admit_wait_s = source.wait_s();
  session.admitted_batches = source.batches();
  const auto samples = server.registry().collect();
  session.backpressure_stalls =
      counter_value(samples, "repl_net_backpressure_stalls_total");
  session.failed_connections =
      counter_value(samples, "repl_net_connections_failed_total");
  session.schedule_start = schedule_start;
  const OpenLoopSchedule schedule(schedule_start, kLiveEventsPerSecond);
  due_to_served_latencies(schedule, session.metrics.events, session.marks,
                          session.latencies);
  return session;
}

RunOutcome run_live(const RunContext& ctx) {
  RunOutcome out;
  SpanRecorder recorder;
  Samples plain;
  Samples traced;
  const std::string socket_path = ctx.work_dir + "/live.sock";
  const std::string snapshot = ctx.work_dir + "/live.snap";
  std::size_t latency_samples = 0;
  for (RepPlan plan(ctx); plan.more();) {
    const bool trace_rep = plan.next_traced();
    Samples& samples = trace_rep ? traced : plain;
    for (int i = 0; i < kSetupProbesPerRep; ++i) {
      samples.add("setup_s", live_setup_probe(socket_path));
    }
    SpanRecorder* spans = rep_spans(trace_rep, recorder);
    ScopedSpan rep_span(spans, "live.rep");
    LiveSessionOptions options;
    options.log_path = ctx.log_path;
    options.socket_path = socket_path;
    options.snapshot_path = snapshot;
    options.snapshot_cycles = kSnapshotCycles;
    options.spans = spans;
    LiveSession s = run_live_session(options);
    restore_checkpoints(snapshot, spans, s.snapshots);
    const std::string aggregate = aggregate_line(s.metrics);
    out.count_rep(s.events, aggregate == ctx.reference &&
                                s.snapshots.restored_aggregate == aggregate);

    const Quantile p50 = quantile(s.latencies, 0.50);
    const Quantile p99 = quantile(s.latencies, 0.99);
    latency_samples = p99.samples;
    const double events = static_cast<double>(s.metrics.events);
    const double objects = static_cast<double>(s.metrics.objects);
    samples.add("setup_s", s.setup_s);
    samples.add("events_per_s", events / s.serve_s);
    samples.add("latency_p50_ms", 1e3 * p50.value);
    samples.add("latency_p99_ms", 1e3 * p99.value);
    add_checkpoint_samples(s.snapshots, samples);
    samples.add("engine.ingest_s", s.ingest_s);
    samples.add("engine.ingest_ns_per_event", 1e9 * s.ingest_s / events);
    samples.add("engine.finish_s", s.finish_s);
    samples.add("engine.events_per_batch",
                events / static_cast<double>(s.engine_batches));
    samples.add("engine.objects", objects);
    samples.add("net.send_s", s.send_s);
    samples.add("net.admit_wait_s", s.admit_wait_s);
    samples.add("net.events_per_admitted_batch",
                events / static_cast<double>(s.admitted_batches));
    samples.add("net.queued_events_max", static_cast<double>(s.queued_events_max));
    samples.add("net.backpressure_stalls", static_cast<double>(s.backpressure_stalls));
    samples.add("net.failed_connections", static_cast<double>(s.failed_connections));
    samples.add("gen.late_p99_ms", 1e3 * quantile(s.lateness, 0.99).value);
  }
  const double peak_rss = static_cast<double>(peak_rss_bytes());

  out.report.push_back("latency percentiles: per rep over " +
                       std::to_string(latency_samples) +
                       " events, median across reps");
  finish_outcome(ctx, plain, traced, recorder, peak_rss, peak_rss, out);
  return out;
}

}  // namespace servebench
