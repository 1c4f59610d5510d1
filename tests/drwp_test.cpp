// Algorithm-1 (DRWP) behavioural tests: hand-simulated scenarios checked
// step by step against the pseudocode, tie-breaking conventions, the
// paper's Figure-5/Figure-6 walkthroughs, and API contracts.
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/request_types.hpp"
#include "checkpoint/state_io.hpp"
#include "core/drwp.hpp"
#include "core/simulator.hpp"
#include "predictor/fixed.hpp"
#include "test_util.hpp"
#include "trace/paper_instances.hpp"

namespace repl {
namespace {

using testing::make_config;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Prediction kBeyond{false};
constexpr Prediction kWithin{true};

TEST(Drwp, RejectsBadAlpha) {
  EXPECT_THROW(DrwpPolicy(0.0), std::invalid_argument);
  EXPECT_THROW(DrwpPolicy(-0.5), std::invalid_argument);
  EXPECT_THROW(DrwpPolicy(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(DrwpPolicy(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_NO_THROW(DrwpPolicy(1.0));
  EXPECT_NO_THROW(DrwpPolicy(0.01));
  // alpha > 1 is outside the analysis' range but runs (the spec grid
  // sweeps it: see api/registry.hpp).
  EXPECT_NO_THROW(DrwpPolicy(1.5));
}

TEST(Drwp, InitialCopyDurationFollowsDummyPrediction) {
  NullEventSink sink;
  const SystemConfig config = make_config(2, 4.0);
  DrwpPolicy policy(0.5);
  policy.reset(config, kBeyond, sink);
  EXPECT_DOUBLE_EQ(policy.intended_expiry(0), 2.0);  // alpha * lambda
  policy.reset(config, kWithin, sink);
  EXPECT_DOUBLE_EQ(policy.intended_expiry(0), 4.0);  // lambda
  EXPECT_TRUE(policy.holds(0));
  EXPECT_FALSE(policy.holds(1));
  EXPECT_EQ(policy.copy_count(), 1);
}

TEST(Drwp, SingleServerLifecycle) {
  // lambda=4, alpha=0.5, always-beyond: durations 2.
  NullEventSink sink;
  const SystemConfig config = make_config(1, 4.0);
  DrwpPolicy policy(0.5);
  policy.reset(config, kBeyond, sink);

  policy.advance_to(1.0, sink);
  ServeAction a = policy.on_request(0, 1.0, kBeyond, sink);
  EXPECT_TRUE(a.local);
  EXPECT_FALSE(a.source_special);  // regular copy: Type-3
  EXPECT_DOUBLE_EQ(a.intended_duration, 2.0);
  EXPECT_DOUBLE_EQ(policy.intended_expiry(0), 3.0);

  policy.advance_to(2.0, sink);
  a = policy.on_request(0, 2.0, kBeyond, sink);
  EXPECT_TRUE(a.local);
  EXPECT_FALSE(a.source_special);

  // The copy expires at 4; being the only copy it turns special.
  EXPECT_DOUBLE_EQ(policy.next_transition_time(), 4.0);
  policy.advance_to(10.0, sink);
  EXPECT_TRUE(policy.is_special(0));
  EXPECT_EQ(policy.copy_count(), 1);
  EXPECT_DOUBLE_EQ(policy.intended_expiry(0), kInf);

  // Served by the special copy: Type-4, special since 4.
  a = policy.on_request(0, 10.0, kBeyond, sink);
  EXPECT_TRUE(a.local);
  EXPECT_TRUE(a.source_special);
  EXPECT_DOUBLE_EQ(a.special_since, 4.0);
  EXPECT_FALSE(policy.is_special(0));  // renewed as regular
}

TEST(Drwp, TwoServerScenarioCostsAndTypes) {
  // Hand-simulated scenario B (see file comment): lambda=4, alpha=0.5,
  // always-beyond predictions. Requests: (1, s1), (2, s0), (9, s1).
  const SystemConfig config = make_config(2, 4.0);
  const Trace trace(2, {{1.0, 1}, {2.0, 0}, {9.0, 1}});
  FixedPredictor beyond = always_beyond_predictor();
  DrwpPolicy policy(0.5);
  const SimulationResult result =
      Simulator(config).run(policy, trace, beyond);

  EXPECT_EQ(result.num_transfers, 2u);
  EXPECT_EQ(result.num_local, 1u);
  EXPECT_DOUBLE_EQ(result.transfer_cost, 8.0);
  EXPECT_DOUBLE_EQ(result.storage_cost, 11.0);  // s0: 9, s1: [1,3]
  EXPECT_DOUBLE_EQ(result.total_cost(), 19.0);

  const auto types = classify_requests(result);
  ASSERT_EQ(types.size(), 3u);
  EXPECT_EQ(types[0], RequestType::kType1);
  EXPECT_EQ(types[1], RequestType::kType3);
  EXPECT_EQ(types[2], RequestType::kType2);
  EXPECT_DOUBLE_EQ(result.serves[2].special_since, 4.0);

  // Segment check: s0 holds [0,9] and is dropped right after the
  // outgoing transfer from its special copy.
  bool found_s0 = false;
  for (const CopySegment& seg : result.segments) {
    if (seg.server == 0 && seg.begin == 0.0) {
      found_s0 = true;
      EXPECT_DOUBLE_EQ(seg.end, 9.0);
      EXPECT_DOUBLE_EQ(seg.special_from, 4.0);
    }
  }
  EXPECT_TRUE(found_s0);
}

TEST(Drwp, SpecialCopyDroppedAfterOutgoingTransferOnly) {
  // Algorithm 1 lines 15-19: a special copy serving a transfer is
  // dropped; a regular copy serving a transfer is kept.
  NullEventSink sink;
  const SystemConfig config = make_config(2, 4.0);
  DrwpPolicy policy(0.5);
  policy.reset(config, kBeyond, sink);

  // Regular source: s0's copy (E=2) serves a transfer at t=1 and stays.
  policy.advance_to(1.0, sink);
  ServeAction a = policy.on_request(1, 1.0, kBeyond, sink);
  EXPECT_FALSE(a.local);
  EXPECT_EQ(a.source, 0);
  EXPECT_FALSE(a.source_special);
  EXPECT_TRUE(policy.holds(0));  // kept
  EXPECT_EQ(policy.copy_count(), 2);
}

TEST(Drwp, ExpiryAtRequestTimeServesLocally) {
  // Tie convention: t_i <= E_j means a local serve even when t_i == E_j.
  NullEventSink sink;
  const SystemConfig config = make_config(1, 4.0);
  DrwpPolicy policy(0.5);
  policy.reset(config, kBeyond, sink);  // E = 2
  policy.advance_to(2.0, sink);
  EXPECT_TRUE(policy.holds(0));
  const ServeAction a = policy.on_request(0, 2.0, kBeyond, sink);
  EXPECT_TRUE(a.local);
  EXPECT_FALSE(a.source_special);
}

TEST(Drwp, SimultaneousExpiriesResolveByServerIndex) {
  // Two regular copies expiring at the same instant: the lower-indexed
  // server drops (copies remain), the higher-indexed one becomes special.
  NullEventSink sink;
  const SystemConfig config = make_config(3, 4.0);
  DrwpPolicy policy(0.5);
  policy.reset(config, kBeyond, sink);  // s0: E=2
  policy.advance_to(0.5, sink);
  policy.on_request(1, 0.5, kWithin, sink);  // s1: E = 0.5 + 4 = 4.5
  policy.advance_to(2.5, sink);              // s0 dropped at 2 (c=2)
  EXPECT_FALSE(policy.holds(0));
  policy.on_request(2, 2.5, kBeyond, sink);  // s2: E = 2.5 + 2 = 4.5
  EXPECT_EQ(policy.copy_count(), 2);

  policy.advance_to(100.0, sink);
  EXPECT_FALSE(policy.holds(1));      // dropped first (lower index)
  EXPECT_TRUE(policy.holds(2));
  EXPECT_TRUE(policy.is_special(2));  // became the special survivor
}

/// Records the drop / mark-special events a policy emits, in order.
class ExpirySink final : public EventSink {
 public:
  void on_create(int, double) override {}
  void on_drop(int server, double time) override {
    events.push_back("drop " + std::to_string(server) + " @" +
                     std::to_string(time));
  }
  void on_mark_special(int server, double time) override {
    events.push_back("special " + std::to_string(server) + " @" +
                     std::to_string(time));
  }
  void on_transfer(int, int, double) override {}
  void on_set_duration(int, double, double) override {}

  std::vector<std::string> events;
};

TEST(Drwp, BitEqualExpiriesFireLowestServerFirstWhateverTheSetOrder) {
  // The higher server's E_j is set first, the lower one's later; both
  // are exactly 4.5. Expiries still fire in (E_j, server) order: the
  // lower copy drops while another remains, the higher becomes special.
  // The same holds for a policy restored from the state before the tie.
  const SystemConfig config = make_config(3, 4.0);
  ExpirySink setup;
  DrwpPolicy policy(0.5);
  policy.reset(config, kBeyond, setup);       // s0: E = 2
  policy.advance_to(0.5, setup);
  policy.on_request(2, 0.5, kWithin, setup);  // s2: E = 0.5 + 4 = 4.5
  policy.advance_to(2.5, setup);              // s0 dropped at 2
  policy.on_request(1, 2.5, kBeyond, setup);  // s1: E = 2.5 + 2 = 4.5
  ASSERT_EQ(policy.intended_expiry(1), policy.intended_expiry(2));
  EXPECT_EQ(policy.next_transition_time(), 4.5);

  StateWriter out;
  policy.save_state(out);
  DrwpPolicy restored(0.5);
  restored.reset(config, kBeyond, setup);
  StateReader in(out.buffer().data(), out.size(), "tie");
  restored.load_state(in);
  in.expect_end();

  const std::vector<std::string> expected = {"drop 1 @4.500000",
                                             "special 2 @4.500000"};
  for (DrwpPolicy* p : {&policy, &restored}) {
    ExpirySink sink;
    p->advance_to(100.0, sink);
    EXPECT_EQ(sink.events, expected);
    EXPECT_FALSE(p->holds(1));
    EXPECT_TRUE(p->is_special(2));
  }
}

/// Overwrites the f64 at byte `offset` of a saved state.
void patch_f64(std::vector<unsigned char>& bytes, std::size_t offset,
               double value) {
  ASSERT_LE(offset + sizeof(double), bytes.size());
  std::memcpy(bytes.data() + offset, &value, sizeof(double));
}

TEST(Drwp, LoadRejectsStoredValuesThatDisagreeWithTheDerivedOnes) {
  // E_j and the special-since time are derived on load; a record whose
  // stored values differ was not written by save_state.
  const SystemConfig config = make_config(2, 4.0);
  NullEventSink sink;
  DrwpPolicy policy(0.5);
  policy.reset(config, kBeyond, sink);  // s0: E = 2
  StateWriter out;
  policy.save_state(out);
  // Layout: alpha f64, servers i32, copies i32, now f64, then per server
  // has_copy u8, special u8, E_j f64, special_since f64, ...
  constexpr std::size_t kServer0 = 8 + 4 + 4 + 8;
  constexpr std::size_t kExpiry = kServer0 + 2;
  constexpr std::size_t kSpecialSince = kExpiry + 8;

  const auto load = [&](const std::vector<unsigned char>& bytes) {
    DrwpPolicy fresh(0.5);
    fresh.reset(config, kBeyond, sink);
    StateReader in(bytes.data(), bytes.size(), "drwp");
    fresh.load_state(in);
  };
  EXPECT_NO_THROW(load(out.buffer()));

  std::vector<unsigned char> bad_expiry = out.buffer();
  patch_f64(bad_expiry, kExpiry, 2.5);
  try {
    load(bad_expiry);
    FAIL() << "an inconsistent E_j was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("drwp expiry inconsistent"),
              std::string::npos)
        << e.what();
  }

  std::vector<unsigned char> bad_special = out.buffer();
  patch_f64(bad_special, kSpecialSince, 1.0);
  EXPECT_THROW(load(bad_special), std::runtime_error);
}

TEST(Drwp, TransferSourcePrefersSpecialAndIsDeterministic) {
  NullEventSink sink;
  const SystemConfig config = make_config(3, 4.0);
  DrwpPolicy policy(0.5);
  policy.reset(config, kBeyond, sink);
  // s0 regular until 2, then special (only copy).
  policy.advance_to(5.0, sink);
  EXPECT_TRUE(policy.is_special(0));
  const ServeAction a = policy.on_request(2, 5.0, kBeyond, sink);
  EXPECT_EQ(a.source, 0);
  EXPECT_TRUE(a.source_special);
  EXPECT_DOUBLE_EQ(a.special_since, 2.0);
  EXPECT_FALSE(policy.holds(0));  // dropped after the outgoing transfer
  EXPECT_TRUE(policy.holds(2));
  EXPECT_EQ(policy.copy_count(), 1);
}

TEST(Drwp, WithinPredictionExtendsDuration) {
  NullEventSink sink;
  const SystemConfig config = make_config(1, 10.0);
  DrwpPolicy policy(0.3);
  policy.reset(config, kWithin, sink);
  EXPECT_DOUBLE_EQ(policy.intended_expiry(0), 10.0);
  policy.advance_to(1.0, sink);
  const ServeAction a = policy.on_request(0, 1.0, kBeyond, sink);
  EXPECT_DOUBLE_EQ(a.intended_duration, 3.0);
  EXPECT_DOUBLE_EQ(policy.intended_expiry(0), 4.0);
}

TEST(Drwp, CloneIsIndependent) {
  NullEventSink sink;
  const SystemConfig config = make_config(2, 4.0);
  DrwpPolicy policy(0.5);
  policy.reset(config, kBeyond, sink);
  auto clone = policy.clone();
  // Advance the clone far: its copy goes special; the original must be
  // unaffected.
  clone->advance_to(50.0, sink);
  EXPECT_TRUE(dynamic_cast<DrwpPolicy*>(clone.get())->is_special(0));
  EXPECT_FALSE(policy.is_special(0));
  EXPECT_DOUBLE_EQ(policy.next_transition_time(), 2.0);
}

TEST(Drwp, RequiresAdvanceBeforeRequest) {
  NullEventSink sink;
  const SystemConfig config = make_config(1, 4.0);
  DrwpPolicy policy(0.5);
  policy.reset(config, kBeyond, sink);
  // Expiry at 2 is still pending; requesting at 5 without advancing must
  // trip the internal check.
  EXPECT_THROW(policy.on_request(0, 5.0, kBeyond, sink), CheckFailure);
}

TEST(Drwp, AdvanceBackwardsRejected) {
  NullEventSink sink;
  const SystemConfig config = make_config(1, 4.0);
  DrwpPolicy policy(0.5);
  policy.reset(config, kBeyond, sink);
  policy.advance_to(1.5, sink);
  EXPECT_THROW(policy.advance_to(1.0, sink), CheckFailure);
}

TEST(Drwp, Figure6WalkthroughExactCosts) {
  // The paper's tight consistency example (Figure 6), lambda=10,
  // alpha=0.5, eps=1: total online cost is 5λ + αλ = 55, the optimum is
  // 3λ + 2ε = 32, and the request types are Type-2, Type-1, Type-2.
  const double lambda = 10.0, alpha = 0.5, eps = 1.0;
  const SystemConfig config = make_config(2, lambda);
  const Trace trace = make_figure6_trace(lambda, eps, 1);
  FixedPredictor beyond = always_beyond_predictor();  // correct here
  DrwpPolicy policy(alpha);
  const SimulationResult result =
      Simulator(config).run(policy, trace, beyond);

  EXPECT_DOUBLE_EQ(result.total_cost(), 5.0 * lambda + alpha * lambda);
  EXPECT_EQ(result.num_transfers, 3u);

  const auto types = classify_requests(result);
  ASSERT_EQ(types.size(), 3u);
  EXPECT_EQ(types[0], RequestType::kType2);
  EXPECT_EQ(types[1], RequestType::kType1);
  EXPECT_EQ(types[2], RequestType::kType2);

  // r1 is served from the special copy that formed at αλ = 5.
  EXPECT_DOUBLE_EQ(result.serves[0].special_since, alpha * lambda);
  // r3 is served from the special copy that formed at t2 + αλ = 16.
  EXPECT_DOUBLE_EQ(result.serves[2].special_since,
                   lambda + eps + alpha * lambda);
}

TEST(Drwp, Figure5WalkthroughAllTransfers) {
  // The paper's tight robustness example (Figure 5): with always-"beyond"
  // predictions every request is served by a transfer.
  const double lambda = 10.0, alpha = 0.5, eps = 1.0;
  const int m = 6;
  const SystemConfig config = make_config(2, lambda);
  const Trace trace = make_figure5_trace(alpha, lambda, m, eps);
  FixedPredictor beyond = always_beyond_predictor();
  DrwpPolicy policy(alpha);
  const SimulationResult result =
      Simulator(config).run(policy, trace, beyond);

  EXPECT_EQ(result.num_transfers, static_cast<std::size_t>(m));
  EXPECT_EQ(result.num_local, 0u);
  const auto types = classify_requests(result);
  for (const RequestType type : types) {
    EXPECT_EQ(type, RequestType::kType1);
  }
  // Cost: m transfers + the initial copy's αλ + (m-1) regular copies of
  // αλ each, clipped at t_m (the final copy contributes nothing).
  EXPECT_DOUBLE_EQ(result.total_cost(),
                   m * lambda + m * alpha * lambda);
}

TEST(Conventional, IgnoresPredictions) {
  const SystemConfig config = make_config(4, 25.0);
  const Trace trace = testing::random_trace(4, 0.05, 5000.0, 31);
  FixedPredictor within = always_within_predictor();
  FixedPredictor beyond = always_beyond_predictor();
  ConventionalPolicy a, b;
  const double cost_within =
      Simulator(config).run(a, trace, within).total_cost();
  const double cost_beyond =
      Simulator(config).run(b, trace, beyond).total_cost();
  EXPECT_DOUBLE_EQ(cost_within, cost_beyond);
  EXPECT_EQ(a.name(), "conventional");
}

TEST(Conventional, MatchesDrwpAlphaOne) {
  const SystemConfig config = make_config(4, 25.0);
  const Trace trace = testing::random_trace(4, 0.05, 5000.0, 37);
  FixedPredictor beyond = always_beyond_predictor();
  ConventionalPolicy conventional;
  DrwpPolicy drwp(1.0);
  const double a =
      Simulator(config).run(conventional, trace, beyond).total_cost();
  const double b = Simulator(config).run(drwp, trace, beyond).total_cost();
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(Drwp, NameIncludesAlpha) {
  EXPECT_EQ(DrwpPolicy(0.25).name(), "drwp(alpha=0.25)");
}

}  // namespace
}  // namespace repl
