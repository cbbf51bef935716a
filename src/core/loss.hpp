// Packet-loss models.
//
// The model of Section II allows any transmission to fail silently: the
// packet leaves the sender's queue and never arrives.  Stability must hold
// under *every* loss pattern (that is the content of Conjecture 1), so
// besides i.i.d. losses we implement targeted adversaries that concentrate
// a per-step loss budget where it hurts most.
#pragma once

#include <iosfwd>
#include <span>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "core/protocol.hpp"

namespace lgg::core {

class LossModel {
 public:
  virtual ~LossModel() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Marks lost[i] = 1 for every transmission that fails this step.
  /// `lost` arrives zero-initialized with size txs.size().
  virtual void mark_losses(const StepView& view,
                           std::span<const Transmission> txs, Rng& rng,
                           std::vector<char>& lost) = 0;

  /// Checkpoint hooks (core/checkpoint.hpp): serialize/restore cross-step
  /// internal state (e.g. PeriodicLoss's transmission counter).
  virtual void save_state(std::ostream&) const {}
  virtual void load_state(std::istream&) {}
};

/// The lossless channel.
class NoLoss final : public LossModel {
 public:
  [[nodiscard]] std::string_view name() const override { return "none"; }
  void mark_losses(const StepView&, std::span<const Transmission>, Rng&,
                   std::vector<char>&) override {}
};

/// Each transmission independently fails with probability p.  Marks
/// exactly the transmissions Rng::bernoulli(p) would, draw for draw, but
/// compares each raw engine word with a threshold found once per p.
class BernoulliLoss final : public LossModel {
 public:
  explicit BernoulliLoss(double p);
  [[nodiscard]] std::string_view name() const override { return "bernoulli"; }
  void mark_losses(const StepView&, std::span<const Transmission>, Rng& rng,
                   std::vector<char>& lost) override;

  /// The raw-word threshold T for 0 < p < 1:
  /// std::bernoulli_distribution(p) returns true exactly for the engine
  /// words below T.  The distribution compares generate_canonical(g) < p,
  /// which is monotone in the raw word, so a binary search over that
  /// same call finds T exactly.
  [[nodiscard]] static std::uint64_t raw_threshold(double p);

 private:
  double p_;
  std::uint64_t threshold_ = 0;
};

/// Deterministic pattern: every `period`-th transmission (counting across
/// the whole run, offset by `phase`) is lost.
class PeriodicLoss final : public LossModel {
 public:
  explicit PeriodicLoss(std::int64_t period, std::int64_t phase = 0);
  [[nodiscard]] std::string_view name() const override { return "periodic"; }
  void mark_losses(const StepView&, std::span<const Transmission>, Rng&,
                   std::vector<char>& lost) override;

  // The run-wide transmission counter persists across steps.
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

 private:
  std::int64_t period_;
  std::int64_t counter_;
};

/// Adversary: loses up to `budget` transmissions per step, preferring those
/// that cross from the given node set A into its complement (e.g. a minimum
/// cut's source side) — the pattern that starves the downstream part.
class TargetedCutLoss final : public LossModel {
 public:
  TargetedCutLoss(std::vector<char> side_a, int budget_per_step);
  [[nodiscard]] std::string_view name() const override { return "cut_adversary"; }
  void mark_losses(const StepView&, std::span<const Transmission>, Rng&,
                   std::vector<char>& lost) override;

 private:
  std::vector<char> side_a_;
  int budget_;
};

/// Adversary: loses the `budget` transmissions with the largest queue drop
/// q(from) − q(to) — destroys the most useful gradient moves first.
class MaxGradientLoss final : public LossModel {
 public:
  explicit MaxGradientLoss(int budget_per_step);
  [[nodiscard]] std::string_view name() const override {
    return "gradient_adversary";
  }
  void mark_losses(const StepView& view, std::span<const Transmission> txs,
                   Rng&, std::vector<char>& lost) override;

 private:
  int budget_;
};

}  // namespace lgg::core
