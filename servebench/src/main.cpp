// Serving benchmark harness.
//
//   servebench prepare --workload W --seed N --data DIR
//       generates the workload's log from the seed (cached in DIR) and, for
//       the workloads gated on it, the aggregate line of a single-process
//       file replay of that log;
//   servebench measure --workload W --seed N --seconds S --trace 0|1
//                      --data DIR --work DIR [--trace-out FILE]
//       runs the workload for about S seconds and prints report lines,
//       then one JSON line with every measured value by name.
//
// servebench/run.py builds this and drives both steps; see README.md.
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "common.hpp"
#include "trace/event_log.hpp"
#include "util/json.hpp"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE ""
#endif

namespace {

using namespace servebench;

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --flag value, got '" + arg + "'");
    }
    flags[arg.substr(2)] = argv[++i];
  }
  return flags;
}

std::string flag(const std::map<std::string, std::string>& flags,
                 const std::string& name) {
  const auto it = flags.find(name);
  if (it == flags.end()) throw std::invalid_argument("missing --" + name);
  return it->second;
}

bool needs_reference(const WorkloadSpec& spec) { return spec.name != "replay-1m"; }

std::string data_stem(const WorkloadSpec& spec, std::uint64_t seed,
                      const std::string& data_dir) {
  return data_dir + "/" + spec.name + "-o" + std::to_string(spec.objects) +
         "-e" + std::to_string(spec.events) + "-s" + std::to_string(seed);
}

/// Writes `path` through a private temporary and a rename, so a killed
/// run never leaves a half-written cache entry behind.
template <typename Write>
void write_atomically(const std::string& path, Write write) {
  const std::string tmp = path + ".tmp" + std::to_string(::getpid());
  write(tmp);
  std::filesystem::rename(tmp, path);
}

int prepare(const std::map<std::string, std::string>& flags) {
  const WorkloadSpec& spec = workload_spec(flag(flags, "workload"));
  const std::uint64_t seed = std::stoull(flag(flags, "seed"));
  const std::string data_dir = flag(flags, "data");
  std::filesystem::create_directories(data_dir);
  const std::string stem = data_stem(spec, seed, data_dir);
  if (!std::filesystem::exists(stem + ".evlog")) {
    write_atomically(stem + ".evlog", [&](const std::string& tmp) {
      generate_log(spec, seed, tmp);
    });
  }
  if (needs_reference(spec) && !std::filesystem::exists(stem + ".ref")) {
    auto engine = engine_builder().build();
    repl::EventLogReader reader(stem + ".evlog");
    const std::string line = aggregate_line(engine->serve(reader, repl::ServeOptions{}));
    write_atomically(stem + ".ref", [&](const std::string& tmp) {
      std::ofstream out(tmp);
      out << line << "\n";
      out.close();
      if (!out) throw std::runtime_error("cannot write " + tmp);
    });
  }
  return 0;
}

int measure(const std::map<std::string, std::string>& flags) {
  RunContext ctx;
  ctx.spec = workload_spec(flag(flags, "workload"));
  ctx.seed = std::stoull(flag(flags, "seed"));
  ctx.seconds = std::stod(flag(flags, "seconds"));
  const std::string trace = flag(flags, "trace");
  if (trace != "0" && trace != "1") throw std::invalid_argument("--trace is 0 or 1");
  ctx.trace = trace == "1";
  const std::string stem = data_stem(ctx.spec, ctx.seed, flag(flags, "data"));
  ctx.log_path = stem + ".evlog";
  if (!std::filesystem::exists(ctx.log_path)) {
    throw std::runtime_error("no prepared log " + ctx.log_path);
  }
  if (needs_reference(ctx.spec)) {
    std::ifstream in(stem + ".ref");
    std::getline(in, ctx.reference);
    if (ctx.reference.empty()) throw std::runtime_error("no reference for " + stem);
  }
  ctx.work_dir = flag(flags, "work");
  std::filesystem::create_directories(ctx.work_dir);
  if (ctx.trace) ctx.trace_path = flag(flags, "trace-out");

  RunOutcome outcome;
  if (ctx.spec.name == "replay-1m") {
    outcome = run_replay(ctx);
  } else if (ctx.spec.name == "live-paced") {
    outcome = run_live(ctx);
  } else {
    outcome = run_cluster(ctx);
  }

  for (const std::string& line : outcome.report) std::cout << line << "\n";
  // Every value measured, by name; run.py picks the metrics BENCHMARK.json
  // lists for this mode and attaches their units.
  repl::JsonWriter json;
  json.begin_object();
  json.key("correct").value(outcome.correct);
  json.key("attempted").value(outcome.attempted);
  json.key("failed").value(outcome.failed);
  json.key("values").begin_object();
  for (const auto& [name, value] : outcome.values) {
    if (!std::isfinite(value)) {
      throw std::runtime_error("metric " + name + " is not finite");
    }
    json.key(name).value(value);
  }
  json.end_object();
  json.end_object();
  std::cout << json.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (std::string(SERVEBENCH_BUILD_TYPE) != "Release") {
      std::cerr << "servebench: refusing to run a '" << SERVEBENCH_BUILD_TYPE
                << "' build; configure with -DCMAKE_BUILD_TYPE=Release\n";
      return 2;
    }
    const std::string role = argc > 1 ? argv[1] : "";
    const auto flags = parse_flags(argc, argv);
    if (role == "prepare") return prepare(flags);
    if (role == "measure") return measure(flags);
    std::cerr << "usage: servebench prepare|measure --flag value ...\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "servebench: " << e.what() << "\n";
    return 1;
  }
}
