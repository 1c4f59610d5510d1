// Algorithm 1 of the paper: Dynamic Replication With Predictions (DRWP).
//
// Per-server state: the intended expiry E_j of the regular copy and the
// keep-tag K_j marking a special copy (a copy kept beyond its intended
// duration because it is the only copy in the system). On each request the
// server keeps its copy for an intended duration of
//
//      λ    if the next local request is predicted within λ,
//      α·λ  otherwise,
//
// where α ∈ (0, 1] is the distrust hyper-parameter. When a regular copy
// expires it is dropped, unless it is the only copy, in which case it
// becomes special and survives until the next request: served locally it
// turns regular again; serving a transfer it is dropped right after
// (Algorithm 1 lines 15–19).
//
// Proven bounds (reproduced by the test suite empirically):
// (5+α)/3-consistent and (1 + 1/α)-robust.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/policy.hpp"

namespace repl {

class DrwpPolicy : public ReplicationPolicy {
 public:
  /// `alpha` > 0. alpha -> 0 trusts predictions fully; alpha = 1 ignores
  /// them (both branches give duration λ); the proven bounds assume
  /// alpha in (0, 1], but larger values run fine (copies on "beyond"
  /// predictions are held longer than λ) and the experiment grid sweeps
  /// them.
  explicit DrwpPolicy(double alpha);

  void reset(const SystemConfig& config, const Prediction& pred0,
             EventSink& sink) override;
  void advance_to(double time, EventSink& sink) override;
  ServeAction on_request(int server, double time, const Prediction& pred,
                         EventSink& sink) override;
  double next_transition_time() const override;
  bool holds(int server) const override;
  int copy_count() const override { return copy_count_; }
  std::string name() const override;
  std::unique_ptr<ReplicationPolicy> clone() const override;

  /// Serializes the per-server automaton state (E_j, K_j, bookkeeping)
  /// and the clock. E_j and the special-since time are written although
  /// they are derived (see ServerState), and load_state rejects a record
  /// whose stored values disagree with the derivation. alpha and the
  /// server count are written as cross-checks only.
  void save_state(StateWriter& out) const override;
  void load_state(StateReader& in) override;

  double alpha() const { return alpha_; }
  double lambda() const { return config_.transfer_cost; }

  /// Intended expiry of `server`'s regular copy (+inf for a special copy,
  /// -inf when no copy is held). Exposed for tests and the adversary.
  double intended_expiry(int server) const;
  bool is_special(int server) const;

 protected:
  /// Everything known about the request just served, before the new
  /// intended duration is chosen. Subclasses (adapted Algorithm 1,
  /// weighted extension) override choose_duration.
  struct ServeContext {
    int server = -1;
    double time = 0.0;
    bool local = false;
    bool source_special = false;
    double special_since = std::numeric_limits<double>::infinity();
    /// Intended duration set after the preceding request at this server
    /// (the analysis' l_i); NaN if this is the server's first request.
    double prev_intended = std::numeric_limits<double>::quiet_NaN();
    /// Time of the preceding request at this server (0 for the initial
    /// server's dummy r0); NaN if none.
    double prev_request_time = std::numeric_limits<double>::quiet_NaN();
  };

  /// Default: pred.within_lambda ? λ : α·λ (Algorithm 1 lines 10–13).
  virtual double choose_duration(const Prediction& pred,
                                 const ServeContext& ctx);

  const SystemConfig& config() const { return config_; }

 private:
  /// E_j is not stored: set_intended sets it together with the request
  /// time, so it is always last_request_time + last_intended (-inf
  /// before the server's first request). The special-since time is not
  /// stored per server either: at most one copy is special at a time
  /// (Proposition 1), so it lives in `special_since_`.
  struct ServerState {
    bool has_copy = false;
    bool special = false;  // K_j
    double last_intended = std::numeric_limits<double>::quiet_NaN();
    double last_request_time = std::numeric_limits<double>::quiet_NaN();
    /// Durations set so far; kept in the snapshot layout.
    std::uint64_t generation = 0;

    double expiry() const {
      return std::isnan(last_intended)
                 ? -std::numeric_limits<double>::infinity()
                 : last_request_time + last_intended;
    }
  };

  void set_intended(int server, double time, double duration,
                    EventSink& sink);
  void process_expiry(int server, double time, EventSink& sink);
  /// The held regular copy that expires next: lowest (E_j, server), -1
  /// when every copy is special.
  int next_expiring() const;
  int pick_transfer_source(int requester) const;
  double special_since(const ServerState& st) const {
    return st.special ? special_since_
                      : std::numeric_limits<double>::infinity();
  }

  double alpha_;
  SystemConfig config_;
  std::vector<ServerState> servers_;
  int copy_count_ = 0;
  double now_ = 0.0;
  /// When the special copy became special; +inf while there is none.
  double special_since_ = std::numeric_limits<double>::infinity();
};

/// The prediction-less 2-competitive baseline: Algorithm 1 with α = 1
/// (both prediction branches yield duration λ, so forecasts are ignored).
/// The paper notes this matches the best possible deterministic online
/// ratio for the problem.
class ConventionalPolicy final : public DrwpPolicy {
 public:
  ConventionalPolicy() : DrwpPolicy(1.0) {}
  std::string name() const override { return "conventional"; }
  std::unique_ptr<ReplicationPolicy> clone() const override {
    return std::make_unique<ConventionalPolicy>(*this);
  }
};

}  // namespace repl
