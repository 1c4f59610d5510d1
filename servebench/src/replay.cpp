// replay-1m: file replay of a 10^6-object log through
// serve(LogReplaySource) with async ingest, then an end-of-stream
// checkpoint, finish, restore into a fresh engine and finish again. The
// replay pass and the checkpoint cycles are shared with cluster-2p.
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "common.hpp"
#include "engine/event_source.hpp"
#include "timed_source.hpp"
#include "trace/event_log.hpp"

namespace servebench {

namespace {

/// Engine construction plus source attach, undone at once. Probes add
/// set-up samples without serving, so setup_s is a median over many.
constexpr int kSetupProbesPerRep = 8;

double replay_setup_probe(const std::string& log_path) {
  const Clock::time_point start = Clock::now();
  auto engine = engine_builder().build();
  repl::EventLogReader reader(log_path);
  const repl::ServeOptions defaults;
  repl::LogReplaySource source(reader, defaults.batch_events,
                               defaults.async_ingest);
  source.attach(*engine);
  return seconds_between(start, Clock::now());
}

}  // namespace

double SnapshotCycles::checkpoint_total_s() const {
  double total = 0.0;
  for (const double v : checkpoint_s) total += v;
  return total;
}

void write_checkpoints(repl::StreamingEngine& engine, const std::string& path,
                       int cycles, SpanRecorder* spans, SnapshotCycles& out) {
  for (int i = 0; i < cycles; ++i) {
    ScopedSpan span(spans, "checkpoint.write");
    const Clock::time_point start = Clock::now();
    engine.checkpoint(path);
    out.checkpoint_s.push_back(seconds_between(start, Clock::now()));
  }
  out.objects = engine.object_count();
}

void restore_checkpoints(const std::string& path, SpanRecorder* spans,
                         SnapshotCycles& out) {
  if (out.checkpoint_s.empty()) {
    throw std::runtime_error("no end-of-stream checkpoint was written");
  }
  out.bytes = file_size(path);
  for (std::size_t i = 0; i < out.checkpoint_s.size(); ++i) {
    std::unique_ptr<repl::StreamingEngine> restored;
    {
      ScopedSpan span(spans, "checkpoint.restore");
      const Clock::time_point start = Clock::now();
      restored = engine_builder().restore(path);
      out.restore_s.push_back(seconds_between(start, Clock::now()));
    }
    ScopedSpan span(spans, "engine.finish");
    const std::string aggregate = aggregate_line(restored->finish());
    if (i == 0) {
      out.restored_aggregate = aggregate;
    } else if (aggregate != out.restored_aggregate) {
      out.restored_aggregate.clear();
    }
  }
  std::filesystem::remove(path);
}

void add_checkpoint_samples(const SnapshotCycles& cycles, Samples& samples) {
  const double mb = static_cast<double>(cycles.bytes) / 1e6;
  samples.add("checkpoint.bytes_per_object",
              static_cast<double>(cycles.bytes) / static_cast<double>(cycles.objects));
  for (const double s : cycles.checkpoint_s) {
    samples.add("checkpoint_s", s);
    samples.add("checkpoint.write_mb_per_s", mb / s);
  }
  for (const double s : cycles.restore_s) {
    samples.add("restore_s", s);
    samples.add("checkpoint.restore_mb_per_s", mb / s);
  }
}

ReplayPass replay_pass(const std::string& log_path, const std::string& snapshot,
                       int cycles, SpanRecorder* spans) {
  const repl::ServeOptions defaults;
  ReplayPass pass;

  std::unique_ptr<repl::StreamingEngine> engine;
  std::unique_ptr<repl::EventLogReader> reader;
  std::unique_ptr<repl::LogReplaySource> replay;
  std::unique_ptr<TimedSource> source;
  {
    ScopedSpan span(spans, "setup");
    const Clock::time_point start = Clock::now();
    engine = engine_builder().build();
    reader = std::make_unique<repl::EventLogReader>(log_path);
    replay = std::make_unique<repl::LogReplaySource>(
        *reader, defaults.batch_events, defaults.async_ingest);
    source = std::make_unique<TimedSource>(*replay, spans, "trace.next_batch");
    source->attach(*engine);
    pass.setup_s = seconds_between(start, Clock::now());
  }
  const std::uint64_t total = reader->header().num_events;
  if (total == repl::EventLogHeader::kUnknownCount || total == 0) {
    throw std::runtime_error("replay log has no event count");
  }

  repl::ServeOptions serve = defaults;
  serve.on_batch = [&](const repl::EngineStats& stats) {
    const Clock::time_point now = Clock::now();
    const double gap = seconds_between(source->last_return(), now);
    pass.ingest_s += gap;
    pass.latencies.push_back({gap, source->last_batch_events()});
    pass.batches = stats.batches;
    if (spans) spans->add("engine.ingest", source->last_return(), now);
    if (stats.events_ingested == total) {
      write_checkpoints(*engine, snapshot, cycles, spans, pass.snapshots);
    }
  };

  repl::EngineMetrics served;
  {
    ScopedSpan span(spans, "engine.serve");
    const Clock::time_point start = Clock::now();
    served = engine->serve(*source, serve);
    const Clock::time_point end = Clock::now();
    pass.serve_s =
        seconds_between(start, end) - pass.snapshots.checkpoint_total_s();
    pass.finish_s = seconds_between(source->last_return(), end);
  }
  pass.wait_s = source->wait_s();
  source.reset();
  replay.reset();
  reader.reset();
  engine.reset();

  restore_checkpoints(snapshot, spans, pass.snapshots);
  pass.events = total;
  pass.objects = served.objects;
  pass.aggregate = aggregate_line(served);
  pass.ok = served.events == total &&
            pass.snapshots.restored_aggregate == pass.aggregate;
  return pass;
}

double decode_mb_per_s(const std::string& log_path, SpanRecorder* spans) {
  ScopedSpan span(spans, "codec.decode_pass");
  const Clock::time_point start = Clock::now();
  repl::EventLogReader reader(log_path);
  std::vector<repl::LogEvent> batch;
  while (reader.read_batch(batch, std::size_t{1} << 16) > 0) {
  }
  const double seconds = seconds_between(start, Clock::now());
  return static_cast<double>(file_size(log_path)) / 1e6 / seconds;
}

RunOutcome run_replay(const RunContext& ctx) {
  RunOutcome out;
  SpanRecorder recorder;
  Samples plain;
  Samples traced;
  std::string first_aggregate;
  std::size_t latency_samples = 0;
  for (RepPlan plan(ctx); plan.more();) {
    const bool trace_rep = plan.next_traced();
    Samples& samples = trace_rep ? traced : plain;
    for (int i = 0; i < kSetupProbesPerRep; ++i) {
      samples.add("setup_s", replay_setup_probe(ctx.log_path));
    }
    SpanRecorder* spans = rep_spans(trace_rep, recorder);
    ScopedSpan rep_span(spans, "replay.rep");
    const ReplayPass pass =
        replay_pass(ctx.log_path, ctx.work_dir + "/replay.snap", 1, spans);
    if (first_aggregate.empty()) first_aggregate = pass.aggregate;
    // Every rep must also reproduce the first rep's aggregates exactly.
    out.count_rep(pass.events, pass.ok && pass.aggregate == first_aggregate);

    const double events = static_cast<double>(pass.events);
    samples.add("setup_s", pass.setup_s);
    samples.add("events_per_s", events / pass.serve_s);
    samples.add("latency_p50_ms",
                1e3 * weighted_quantile(pass.latencies, 0.50).value);
    samples.add("latency_p99_ms",
                1e3 * weighted_quantile(pass.latencies, 0.99).value);
    add_checkpoint_samples(pass.snapshots, samples);
    samples.add("engine.ingest_s", pass.ingest_s);
    samples.add("engine.ingest_ns_per_event", 1e9 * pass.ingest_s / events);
    samples.add("engine.finish_s", pass.finish_s);
    samples.add("engine.events_per_batch",
                events / static_cast<double>(pass.batches));
    samples.add("engine.objects", static_cast<double>(pass.objects));
    samples.add("trace.wait_s", pass.wait_s);
    latency_samples = weighted_quantile(pass.latencies, 0.99).samples;
  }
  const double peak_rss = static_cast<double>(peak_rss_bytes());

  out.report.push_back("aggregate " + first_aggregate);
  out.report.push_back("latency percentiles: per rep over " +
                       std::to_string(latency_samples) +
                       " events (one value per batch), median across reps");
  finish_outcome(ctx, plain, traced, recorder, peak_rss, peak_rss, out);
  return out;
}

}  // namespace servebench
