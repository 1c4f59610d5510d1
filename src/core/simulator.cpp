#include "core/simulator.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace repl {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The per-event logs of one run, allocated only when
/// SimulationOptions::record_events is on.
struct EventLogs {
  std::vector<ServeRecord> serves;
  std::vector<CopySegment> segments;
  std::vector<TransferRecord> transfers;
};

/// The canonical event sink: validates the event stream and accumulates
/// costs, copy segments, and transfers.
///
/// `billing_horizon` bounds which costs are billed: transfers at
/// time <= horizon, and the portion of each copy segment within
/// [0, horizon]. When the cost horizon is "the final request time" it is
/// unknown while the run is still streaming, so it starts at +inf (every
/// in-run transfer happens no later than the final request and is billed
/// either way, and every in-run segment closes no later than the final
/// request) and is pinned to the resolved horizon just before the
/// post-trace flush.
///
/// Storage cost accumulates incrementally as segments close — one
/// addition per segment, in close order, the exact sequence a post-hoc
/// sweep over the segment list would perform — so a streaming consumer
/// (the engine, checkpoints) needs only this scalar, and the segment
/// list itself is retained only when per-event recording is on.
class Recorder final : public EventSink {
 public:
  /// `logs` receives segments and transfers; null when recording is off.
  Recorder(const SystemConfig& config, EventLogs* logs,
           double billing_horizon)
      : config_(config),
        logs_(logs),
        billing_horizon_(billing_horizon),
        open_(std::make_unique<OpenCopy[]>(
            static_cast<std::size_t>(config.num_servers))) {}

  void set_billing_horizon(double horizon) { billing_horizon_ = horizon; }

  void on_create(int server, double time) override {
    check_time(time);
    OpenCopy& copy = open_at(server);
    REPL_CHECK_MSG(!copy.holding, "create at server already holding a copy");
    copy.holding = true;
    copy.begin = time;
    ++count_;
  }

  void on_drop(int server, double time) override {
    check_time(time);
    OpenCopy& copy = open_at(server);
    REPL_CHECK_MSG(copy.holding, "drop at server without a copy");
    copy.holding = false;
    --count_;
    REPL_CHECK_MSG(count_ >= 1,
                   "at-least-one-copy requirement violated at t=" << time);
    close_segment(server, time);
  }

  void on_mark_special(int server, double time) override {
    check_time(time);
    REPL_CHECK_MSG(open_at(server).holding, "mark_special without a copy");
    REPL_CHECK_MSG(count_ == 1,
                   "special copy must be the only copy (Proposition 1)");
    REPL_CHECK_MSG(special_server_ != server, "copy marked special twice");
    // The only copy is open, so no other segment can be special.
    REPL_CHECK(special_server_ < 0);
    special_server_ = server;
    special_since_ = time;
  }

  void on_transfer(int src, int dst, double time) override {
    check_time(time);
    REPL_CHECK_MSG(src != dst, "self-transfer");
    REPL_CHECK_MSG(open_at(src).holding,
                   "transfer from a server without a copy");
    ++transfer_count_;
    // Transfers after the cost horizon (e.g. post-trace home migrations
    // during the flush) are recorded but not billed.
    if (time <= billing_horizon_) ++billed_transfer_count_;
    if (logs_ != nullptr) {
      logs_->transfers.push_back(TransferRecord{src, dst, time});
    }
  }

  void on_set_duration(int server, double time, double duration) override {
    check_time(time);
    REPL_CHECK(open_at(server).holding);
    REPL_CHECK(duration > 0.0);
    if (std::isnan(initial_intended_)) initial_intended_ = duration;
    // A renewed intended duration un-marks a special copy.
    if (special_server_ == server) clear_special();
  }

  /// Closes all still-open segments with end = +inf. No further events
  /// may follow.
  void finish() {
    for (int s = 0; s < config_.num_servers; ++s) {
      OpenCopy& copy = open_at(s);
      if (copy.holding) {
        close_segment(s, kInf);
        copy.holding = false;
      }
    }
  }

  int count() const { return count_; }
  std::size_t transfer_count() const { return transfer_count_; }
  std::size_t billed_transfer_count() const { return billed_transfer_count_; }
  double last_time() const { return last_time_; }
  double initial_intended() const { return initial_intended_; }

  /// Storage cost within [0, horizon], weighted by per-server rates.
  /// Must be called after finish() (all segments closed and billed).
  double storage_cost() const { return storage_cost_; }

  /// Checkpoint protocol: the cost accumulators and per-server open-copy
  /// state. The event logs (segments/transfers) are observability, not
  /// cost state, and restart empty after a restore.
  void save_state(StateWriter& out) const {
    out.i32(count_);
    out.u64(static_cast<std::uint64_t>(transfer_count_));
    out.u64(static_cast<std::uint64_t>(billed_transfer_count_));
    out.f64(last_time_);
    out.f64(initial_intended_);
    out.f64(storage_cost_);
    out.u64(static_cast<std::uint64_t>(config_.num_servers));
    for (int s = 0; s < config_.num_servers; ++s) {
      const OpenCopy& copy = open_[static_cast<std::size_t>(s)];
      out.boolean(copy.holding);
      out.f64(copy.begin);
      out.f64(s == special_server_ ? special_since_ : kInf);
    }
  }

  void load_state(StateReader& in) {
    count_ = in.i32();
    transfer_count_ = static_cast<std::size_t>(in.u64());
    billed_transfer_count_ = static_cast<std::size_t>(in.u64());
    last_time_ = in.f64();
    initial_intended_ = in.f64();
    storage_cost_ = in.f64();
    if (in.u64() != static_cast<std::uint64_t>(config_.num_servers)) {
      in.fail("recorder server count mismatch");
    }
    clear_special();
    for (int s = 0; s < config_.num_servers; ++s) {
      OpenCopy& copy = open_[static_cast<std::size_t>(s)];
      copy.holding = in.boolean();
      copy.begin = in.f64();
      const double special_since = in.f64();
      if (special_since == kInf) continue;
      if (!copy.holding) in.fail("recorder special copy not held");
      if (special_server_ >= 0) in.fail("recorder has two special copies");
      special_server_ = s;
      special_since_ = special_since;
    }
    if (count_ < 1 || count_ > config_.num_servers) {
      in.fail("recorder copy count " + std::to_string(count_) +
              " out of range");
    }
    if (logs_ != nullptr) {
      logs_->segments.clear();
      logs_->transfers.clear();
    }
  }

 private:
  /// A server's open copy: whether it holds one, and since when (kept
  /// after a drop, as the snapshot layout records it).
  struct OpenCopy {
    double begin = 0.0;
    bool holding = false;
  };

  OpenCopy& open_at(int server) {
    REPL_CHECK(server >= 0 && server < config_.num_servers);
    return open_[static_cast<std::size_t>(server)];
  }

  void clear_special() {
    special_server_ = -1;
    special_since_ = kInf;
  }

  void check_time(double time) {
    REPL_CHECK_MSG(time >= last_time_,
                   "event times must be non-decreasing: " << time << " after "
                                                          << last_time_);
    last_time_ = time;
  }

  void close_segment(int server, double end) {
    const double begin = open_[static_cast<std::size_t>(server)].begin;
    // Bill the segment's storage as it closes. `billing_horizon_` is +inf
    // until finish() pins it, and every in-run close happens at or before
    // the final request time, so capping here computes the same value the
    // final horizon would — in the same operation order as a post-hoc
    // sweep, keeping costs bit-identical to the pre-streaming code path.
    const double capped = std::min(end, billing_horizon_);
    if (capped > begin) {
      storage_cost_ += config_.storage_rate(server) * (capped - begin);
    }
    const bool special = server == special_server_;
    if (logs_ != nullptr) {
      logs_->segments.push_back(
          CopySegment{server, begin, special ? special_since_ : kInf, end});
    }
    if (special) clear_special();
  }

  const SystemConfig& config_;
  EventLogs* logs_;
  double billing_horizon_;
  std::unique_ptr<OpenCopy[]> open_;
  /// The one copy that is special (-1: none) and since when. A copy is
  /// marked special only while it is the only copy, so there is at most
  /// one (Proposition 1).
  int special_server_ = -1;
  double special_since_ = kInf;
  int count_ = 0;
  std::size_t transfer_count_ = 0;
  std::size_t billed_transfer_count_ = 0;
  double storage_cost_ = 0.0;
  double last_time_ = 0.0;
  double initial_intended_ = std::numeric_limits<double>::quiet_NaN();
};

/// Validates before any member sizes containers from config fields.
const SystemConfig& validated(const SystemConfig& config) {
  config.validate();
  return config;
}

}  // namespace

struct OnlineSimulation::Impl {
  Impl(const SystemConfig& cfg, const SimulationOptions& opts,
       ReplicationPolicy& pol, Predictor& pred)
      : config(validated(cfg)),
        horizon(opts.horizon),
        logs(opts.record_events ? std::make_unique<EventLogs>() : nullptr),
        policy(pol),
        predictor(pred),
        recorder(config, logs.get(), horizon < 0.0 ? kInf : horizon) {
    predictor.reset();
    initial_prediction = predictor.predict(PredictionQuery{
        -1, config.initial_server, 0.0, config.transfer_cost});
    policy.reset(config, initial_prediction, recorder);
    policy_name = policy.name();
    predictor_name = predictor.name();
  }

  const SystemConfig& config;
  double horizon;
  std::unique_ptr<EventLogs> logs;
  ReplicationPolicy& policy;
  Predictor& predictor;
  Recorder recorder;
  /// The prediction issued for the dummy request r0.
  Prediction initial_prediction;
  std::size_t num_local = 0;
  /// Captured at construction: name() formats on every call.
  std::string policy_name;
  std::string predictor_name;
  std::size_t index = 0;
  double last_request_time = 0.0;
  bool finished = false;
};

OnlineSimulation::OnlineSimulation(const SystemConfig& config,
                                   const SimulationOptions& options,
                                   ReplicationPolicy& policy,
                                   Predictor& predictor)
    : impl_(std::make_unique<Impl>(config, options, policy, predictor)) {}

OnlineSimulation::~OnlineSimulation() = default;
OnlineSimulation::OnlineSimulation(OnlineSimulation&&) noexcept = default;
OnlineSimulation& OnlineSimulation::operator=(OnlineSimulation&&) noexcept =
    default;

void OnlineSimulation::step(int server, double time) {
  Impl& im = *impl_;
  REPL_CHECK(!im.finished);
  REPL_REQUIRE_MSG(server >= 0 && server < im.config.num_servers,
                   "request server " << server << " out of range");
  REPL_REQUIRE_MSG(time > 0.0 && time > im.last_request_time,
                   "request times must be strictly increasing and positive: "
                       << time << " after " << im.last_request_time);
  im.last_request_time = time;

  im.policy.advance_to(time, im.recorder);
  const Prediction pred = im.predictor.predict(PredictionQuery{
      static_cast<long>(im.index), server, time, im.config.transfer_cost});
  const std::size_t transfers_before = im.recorder.transfer_count();
  const ServeAction action =
      im.policy.on_request(server, time, pred, im.recorder);
  // Cross-check the action against the event stream.
  const std::size_t new_transfers =
      im.recorder.transfer_count() - transfers_before;
  REPL_CHECK(action.extra_transfers >= 0);
  REPL_CHECK_MSG(
      new_transfers ==
          (action.local ? 0u : 1u) +
              static_cast<std::size_t>(action.extra_transfers),
      "serve action inconsistent with emitted transfers");
  if (action.local) ++im.num_local;

  if (im.logs) {
    ServeRecord record;
    record.index = im.index;
    record.server = server;
    record.time = time;
    record.local = action.local;
    record.source = action.source;
    record.source_special = action.source_special;
    record.special_since = action.special_since;
    record.intended_duration = action.intended_duration;
    record.prediction = pred;
    im.logs->serves.push_back(record);
  }
  ++im.index;
}

void OnlineSimulation::reserve(std::size_t num_requests) {
  if (impl_->logs) impl_->logs->serves.reserve(num_requests);
}

std::size_t OnlineSimulation::steps() const { return impl_->index; }

double OnlineSimulation::last_time() const {
  return impl_->last_request_time;
}

void OnlineSimulation::save_state(StateWriter& out) const {
  const Impl& im = *impl_;
  REPL_CHECK_MSG(!im.finished, "save_state after finish()");
  out.str(im.policy_name);
  out.str(im.predictor_name);
  // Config cross-checks: every component below prices against the same
  // SystemConfig, so a snapshot restored under a different λ, initial
  // server, or storage-rate vector must be rejected, not silently
  // continued with diverging durations/costs.
  out.f64(im.config.transfer_cost);
  out.i32(im.config.initial_server);
  for (int s = 0; s < im.config.num_servers; ++s) {
    out.f64(im.config.storage_rate(s));
  }
  out.u64(static_cast<std::uint64_t>(im.index));
  out.f64(im.last_request_time);
  out.u64(static_cast<std::uint64_t>(im.num_local));
  out.boolean(im.initial_prediction.within_lambda);
  im.recorder.save_state(out);
  im.policy.save_state(out);
  im.predictor.save_state(out);
}

void OnlineSimulation::load_state(StateReader& in) {
  Impl& im = *impl_;
  REPL_CHECK_MSG(!im.finished, "load_state after finish()");
  REPL_CHECK_MSG(im.index == 0,
                 "load_state requires a freshly constructed simulation");
  const std::string policy_name = in.str();
  if (policy_name != im.policy_name) {
    in.fail("policy mismatch: snapshot has '" + policy_name + "', have '" +
            im.policy_name + "'");
  }
  const std::string predictor_name = in.str();
  if (predictor_name != im.predictor_name) {
    in.fail("predictor mismatch: snapshot has '" + predictor_name +
            "', have '" + im.predictor_name + "'");
  }
  if (in.f64() != im.config.transfer_cost) {
    in.fail("transfer cost (lambda) mismatch");
  }
  if (in.i32() != im.config.initial_server) {
    in.fail("initial server mismatch");
  }
  for (int s = 0; s < im.config.num_servers; ++s) {
    if (in.f64() != im.config.storage_rate(s)) {
      in.fail("storage rate mismatch at server " + std::to_string(s));
    }
  }
  im.index = static_cast<std::size_t>(in.u64());
  im.last_request_time = in.f64();
  im.num_local = static_cast<std::size_t>(in.u64());
  im.initial_prediction.within_lambda = in.boolean();
  im.recorder.load_state(in);
  im.policy.load_state(in);
  im.predictor.load_state(in);
}

SimulationResult OnlineSimulation::finish() {
  Impl& im = *impl_;
  REPL_CHECK_MSG(!im.finished, "OnlineSimulation::finish() called twice");
  im.finished = true;

  const double lambda = im.config.transfer_cost;
  const double horizon =
      im.horizon < 0.0 ? im.last_request_time : im.horizon;
  im.recorder.set_billing_horizon(horizon);

  // Flush pending expiries past the horizon so the post-trace segments
  // (needed by the Proposition-2 allocation analysis) are materialized.
  // The flush window is bounded because some policies (e.g. Wang et al.'s
  // home renewal) re-arm expiries forever; two maximum TTLs past the end
  // is enough to expose every copy's fate under all implemented policies.
  double min_rate = 1.0;
  for (int s = 0; s < im.config.num_servers; ++s) {
    min_rate = std::min(min_rate, im.config.storage_rate(s));
  }
  const double flush_time = std::max(horizon, im.last_request_time) +
                            4.0 * lambda / min_rate + 1.0;
  im.policy.advance_to(flush_time, im.recorder);
  REPL_CHECK_MSG(im.policy.copy_count() == im.recorder.count(),
                 "policy copy count disagrees with event stream");
  REPL_CHECK(im.recorder.count() >= 1);

  im.recorder.finish();
  SimulationResult result;
  result.config = im.config;
  result.horizon = horizon;
  result.storage_cost = im.recorder.storage_cost();
  result.num_local = im.num_local;
  result.num_transfers = im.recorder.billed_transfer_count();
  result.transfer_cost = lambda * static_cast<double>(result.num_transfers);
  result.initial_intended_duration = im.recorder.initial_intended();
  result.initial_prediction = im.initial_prediction;
  result.policy_name = std::move(im.policy_name);
  result.predictor_name = std::move(im.predictor_name);

  if (im.logs) {
    result.serves = std::move(im.logs->serves);
    result.segments = std::move(im.logs->segments);
    std::sort(result.segments.begin(), result.segments.end(),
              [](const CopySegment& a, const CopySegment& b) {
                if (a.begin != b.begin) return a.begin < b.begin;
                return a.server < b.server;
              });
    result.transfers = std::move(im.logs->transfers);
  }
  return result;
}

Simulator::Simulator(SystemConfig config, SimulationOptions options)
    : config_(std::move(config)), options_(options) {
  config_.validate();
}

SimulationResult Simulator::run(ReplicationPolicy& policy, const Trace& trace,
                                Predictor& predictor) const {
  REPL_REQUIRE_MSG(trace.num_servers() == config_.num_servers,
                   "trace has " << trace.num_servers()
                                << " servers, config expects "
                                << config_.num_servers);
  OnlineSimulation sim(config_, options_, policy, predictor);
  sim.reserve(trace.size());
  for (const Request& r : trace.requests()) sim.step(r.server, r.time);
  return sim.finish();
}

SimulationResult simulate(const SystemConfig& config,
                          ReplicationPolicy& policy, const Trace& trace,
                          Predictor& predictor, SimulationOptions options) {
  return Simulator(config, options).run(policy, trace, predictor);
}

}  // namespace repl
