#include "common.hpp"

#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "trace/stream_gen.hpp"

namespace servebench {

const WorkloadSpec& workload_spec(const std::string& name) {
  // One rep takes 2 to 6 seconds on a shared 4-vCPU Xeon VM, so a
  // 30-second run holds several. cluster-2p's log is long enough that
  // the workers' queues fill and stay full for most of the rep.
  static const std::vector<WorkloadSpec> specs = {
      {"replay-1m", 1000000, 1000000},
      {"live-paced", 50000, 200000},
      {"cluster-2p", 50000, 400000},
  };
  for (const WorkloadSpec& spec : specs) {
    if (spec.name == name) return spec;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

repl::SystemConfig system_config() {
  repl::SystemConfig config;
  config.num_servers = kServers;
  config.transfer_cost = kTransferCost;
  return config;
}

repl::EngineBuilder engine_builder() {
  repl::EngineOptions options;
  options.num_shards = kShards;
  options.num_threads = kEngineThreads;
  repl::EngineBuilder builder;
  builder.config(system_config());
  builder.options(options);
  builder.policy(kPolicy).predictor(kPredictor);
  return builder;
}

void generate_log(const WorkloadSpec& spec, std::uint64_t seed,
                  const std::string& path) {
  repl::StreamWorkloadConfig config;
  config.num_objects = spec.objects;
  config.num_servers = kServers;
  config.object_zipf_s = 1.0;
  config.arrivals = repl::StreamWorkloadConfig::Arrivals::kPoisson;
  config.rate = static_cast<double>(spec.objects) / 64.0;
  config.max_events = spec.events;
  repl::generate_event_log(config, seed, path,
                           repl::EventLogFormat::kCompressed);
}

std::string aggregate_line(const repl::EngineMetrics& metrics) {
  std::ostringstream out;
  out << "AGGREGATE objects=" << metrics.objects
      << " events=" << metrics.events << " local=" << metrics.num_local
      << " transfers=" << metrics.num_transfers << std::hexfloat
      << " online_cost=" << metrics.online_cost
      << " lower_bound=" << metrics.lower_bound;
  return out.str();
}

std::uint64_t peak_rss_bytes(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      std::uint64_t kib = 0;
      fields >> kib;
      return kib * 1024;
    }
  }
  return 0;
}

std::uint64_t file_size(const std::string& path) {
  return static_cast<std::uint64_t>(std::filesystem::file_size(path));
}

RepPlan::RepPlan(const RunContext& ctx)
    : seconds_(ctx.seconds),
      trace_(ctx.trace),
      min_reps_(ctx.trace ? 2 * kMinReps : kMinReps),
      start_(Clock::now()) {}

bool RepPlan::more() const {
  // Traced runs end on a whole untraced/traced pair.
  if (trace_ && reps_ % 2 == 1) return true;
  return reps_ < min_reps_ || seconds_between(start_, Clock::now()) < seconds_;
}

bool RepPlan::next_traced() {
  const bool traced = trace_ && reps_ % 2 == 1;
  ++reps_;
  return traced;
}

double Samples::median_of(const std::string& name) const {
  const auto it = series_.find(name);
  return it == series_.end() ? 0.0 : median(it->second);
}

void Samples::store_medians(std::map<std::string, double>& values) const {
  for (const auto& [name, series] : series_) values[name] = median(series);
}

std::vector<std::string> Samples::describe() const {
  std::vector<std::string> lines;
  for (const auto& [name, series] : series_) {
    std::ostringstream line;
    line << name << " n=" << series.size() << ":" << std::setprecision(6);
    for (const double v : series) line << " " << v;
    lines.push_back(line.str());
  }
  return lines;
}

void finish_outcome(const RunContext& ctx, const Samples& plain,
                    const Samples& traced, SpanRecorder& recorder,
                    double peak_rss_bytes, double engine_rss_bytes,
                    RunOutcome& out) {
  const Samples& reported = ctx.trace ? traced : plain;
  reported.store_medians(out.values);
  if (ctx.trace) {
    out.values["obs.trace_overhead"] =
        plain.median_of("events_per_s") / traced.median_of("events_per_s") - 1.0;
    out.values["codec.decode_mb_per_s"] = decode_mb_per_s(ctx.log_path, &recorder);
  }
  out.values["peak_rss_mb"] = peak_rss_bytes / (1024.0 * 1024.0);
  out.values["engine.rss_bytes_per_object"] =
      engine_rss_bytes / reported.median_of("engine.objects");
  out.values["served_share"] = out.served_share();
  for (const std::string& line : reported.describe()) out.report.push_back(line);
  if (!ctx.trace) return;
  std::ostringstream head;
  head << std::left << std::setw(28) << "span" << std::right << std::setw(10)
       << "count" << std::setw(14) << "total_s" << std::setw(14) << "self_s";
  out.report.push_back(head.str());
  for (const SpanRecorder::Row& row : recorder.table()) {
    std::ostringstream line;
    line << std::left << std::setw(28) << row.name << std::right
         << std::setw(10) << row.count << std::fixed << std::setprecision(6)
         << std::setw(14) << row.total_s << std::setw(14) << row.self_s;
    out.report.push_back(line.str());
  }
  const std::size_t spans = recorder.write_chrome_trace(ctx.trace_path);
  out.report.push_back("chrome trace: " + ctx.trace_path + " (" +
                       std::to_string(spans) + " spans)");
}

}  // namespace servebench
