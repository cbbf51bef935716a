// Wireless-interference scheduling (Conjecture 5).
//
// The base model assumes all links fire simultaneously.  Under node-
// exclusive interference (the matching model of Wu–Srikant [2]) a node can
// take part in at most one transmission per step, so the fired set E_t must
// be a matching.  The conjecture posits that an *oracle* choosing an
// optimal E_t keeps LGG stable; we implement
//   * the identity scheduler (no interference),
//   * greedy maximal matching by gradient weight,
//   * exact maximum-weight matching (bitmask DP, n <= kExactMatchingMaxNodes)
//     — the checkable instantiation of the oracle,
//   * a distance-2 variant where transmissions conflict when their endpoint
//     sets touch or are adjacent.
#pragma once

#include <iosfwd>
#include <span>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "core/protocol.hpp"

namespace lgg::obs {
class Counter;
}  // namespace lgg::obs

namespace lgg::core {

class Scheduler {
 public:
  virtual ~Scheduler() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Sets keep[i] = 0 for every transmission suppressed by interference
  /// and returns how many it suppressed.  `keep` arrives all-1 with size
  /// txs.size().
  virtual std::size_t schedule(const StepView& view,
                               std::span<const Transmission> txs, Rng& rng,
                               std::vector<char>& keep) = 0;

  /// Checkpoint hooks (core/checkpoint.hpp).  All shipped schedulers are
  /// trajectory-stateless (OracleOrGreedy's counters are observability
  /// only), so the defaults suffice.
  virtual void save_state(std::ostream&) const {}
  virtual void load_state(std::istream&) {}

  /// Registers scheduler-specific metrics (obs/registry.hpp) when
  /// telemetry is attached.  Default: nothing to register.
  virtual void register_metrics(obs::MetricRegistry&) {}
};

/// All proposed transmissions fire (the paper's base model).
class NoInterference final : public Scheduler {
 public:
  [[nodiscard]] std::string_view name() const override { return "none"; }
  std::size_t schedule(const StepView&, std::span<const Transmission>, Rng&,
                       std::vector<char>&) override {
    return 0;
  }
};

/// Gradient weight of a transmission: q(from) − q'(to), the potential drop
/// it realizes.  All schedulers below maximize (greedily or exactly) the
/// total weight of the fired matching.
PacketCount transmission_weight(const StepView& view, const Transmission& tx);

/// Greedy maximal matching: sort by weight descending, keep a transmission
/// iff both endpoints are still free.  2-approximation of the max-weight
/// matching.
class GreedyMatchingScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "greedy_matching";
  }
  std::size_t schedule(const StepView& view,
                       std::span<const Transmission> txs, Rng& rng,
                       std::vector<char>& keep) override;
};

inline constexpr NodeId kExactMatchingMaxNodes = 20;

/// Exact maximum-weight matching over the proposed transmissions via DP on
/// node subsets.  Only usable when the number of *distinct endpoints* is at
/// most kExactMatchingMaxNodes; throws otherwise.
class ExactMatchingScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "oracle_matching";
  }
  std::size_t schedule(const StepView& view,
                       std::span<const Transmission> txs, Rng& rng,
                       std::vector<char>& keep) override;
};

/// The practical oracle: exact max-weight matching when the step's
/// endpoint set is small enough, greedy matching otherwise.  This is how
/// the Conjecture-5 experiments scale past kExactMatchingMaxNodes.
class OracleOrGreedyScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "oracle_or_greedy";
  }
  std::size_t schedule(const StepView& view,
                       std::span<const Transmission> txs, Rng& rng,
                       std::vector<char>& keep) override;

  /// Steps resolved exactly / greedily so far (observability for benches).
  [[nodiscard]] std::int64_t exact_steps() const { return exact_steps_; }
  [[nodiscard]] std::int64_t greedy_steps() const { return greedy_steps_; }

  /// Mirrors the two counters above into scheduler.exact_steps /
  /// scheduler.greedy_steps registry counters.
  void register_metrics(obs::MetricRegistry& registry) override;

 private:
  ExactMatchingScheduler exact_;
  GreedyMatchingScheduler greedy_;
  std::int64_t exact_steps_ = 0;
  std::int64_t greedy_steps_ = 0;
  obs::Counter* exact_counter_ = nullptr;
  obs::Counter* greedy_counter_ = nullptr;
};

/// Distance-2 conflict: two transmissions conflict when they share an
/// endpoint or any endpoint of one is adjacent to an endpoint of the other.
/// Greedy by weight.
class Distance2GreedyScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "greedy_distance2";
  }
  std::size_t schedule(const StepView& view,
                       std::span<const Transmission> txs, Rng& rng,
                       std::vector<char>& keep) override;
};

/// Checks the node-exclusive (matching) property of a kept set — used by
/// tests.  Returns true iff no node appears in two kept transmissions.
bool is_matching(std::span<const Transmission> txs,
                 std::span<const char> keep, NodeId node_count);

}  // namespace lgg::core
