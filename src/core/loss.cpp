#include "core/loss.hpp"

#include <algorithm>
#include <numeric>
#include <random>

#include "common/binio.hpp"
#include "common/require.hpp"

namespace lgg::core {

BernoulliLoss::BernoulliLoss(double p) : p_(p) {
  LGG_REQUIRE(p >= 0.0 && p <= 1.0, "BernoulliLoss: p in [0,1]");
  if (p > 0.0 && p < 1.0) threshold_ = raw_threshold(p);
}

std::uint64_t BernoulliLoss::raw_threshold(double p) {
  LGG_REQUIRE(p > 0.0 && p < 1.0, "BernoulliLoss::raw_threshold: 0 < p < 1");
  // An engine that yields one fixed word, so the distribution's own
  // arithmetic decides each probe.
  struct FixedWord {
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~std::uint64_t{0}; }
    result_type operator()() const { return word; }
    result_type word;
  };
  const auto fires = [p](std::uint64_t word) {
    FixedWord engine{word};
    return std::bernoulli_distribution(p)(engine);
  };
  // fires(0) holds (0 < p) and fires(max) does not (the canonical value
  // of the top word is the largest double below 1, which is >= p), so
  // the invariant fires(lo) && !fires(hi) brackets T = hi.
  std::uint64_t lo = 0;
  std::uint64_t hi = ~std::uint64_t{0};
  LGG_ASSERT(fires(lo) && !fires(hi));
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (fires(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

void BernoulliLoss::mark_losses(const StepView&,
                                std::span<const Transmission> txs, Rng& rng,
                                std::vector<char>& lost) {
  // Rng::bernoulli draws nothing at p = 0 or p = 1; neither does this.
  if (p_ <= 0.0) return;
  if (p_ >= 1.0) {
    std::fill_n(lost.begin(), txs.size(), 1);
    return;
  }
  SplitMix64Engine& engine = rng.engine();
  for (std::size_t i = 0; i < txs.size(); ++i) {
    lost[i] |= static_cast<char>(engine() < threshold_);
  }
}

PeriodicLoss::PeriodicLoss(std::int64_t period, std::int64_t phase)
    : period_(period), counter_(phase % std::max<std::int64_t>(period, 1)) {
  LGG_REQUIRE(period >= 1, "PeriodicLoss: period >= 1");
}

void PeriodicLoss::mark_losses(const StepView&,
                               std::span<const Transmission> txs, Rng&,
                               std::vector<char>& lost) {
  for (std::size_t i = 0; i < txs.size(); ++i) {
    if (++counter_ >= period_) {
      counter_ = 0;
      lost[i] = 1;
    }
  }
}

void PeriodicLoss::save_state(std::ostream& os) const {
  binio::write_i64(os, counter_);
}

void PeriodicLoss::load_state(std::istream& is) {
  counter_ = binio::read_i64(is);
}

TargetedCutLoss::TargetedCutLoss(std::vector<char> side_a,
                                 int budget_per_step)
    : side_a_(std::move(side_a)), budget_(budget_per_step) {
  LGG_REQUIRE(budget_ >= 0, "TargetedCutLoss: budget >= 0");
}

void TargetedCutLoss::mark_losses(const StepView&,
                                  std::span<const Transmission> txs, Rng&,
                                  std::vector<char>& lost) {
  int remaining = budget_;
  for (std::size_t i = 0; i < txs.size() && remaining > 0; ++i) {
    const Transmission& tx = txs[i];
    const bool crossing =
        static_cast<std::size_t>(tx.from) < side_a_.size() &&
        static_cast<std::size_t>(tx.to) < side_a_.size() &&
        side_a_[static_cast<std::size_t>(tx.from)] &&
        !side_a_[static_cast<std::size_t>(tx.to)];
    if (crossing) {
      lost[i] = 1;
      --remaining;
    }
  }
}

MaxGradientLoss::MaxGradientLoss(int budget_per_step)
    : budget_(budget_per_step) {
  LGG_REQUIRE(budget_ >= 0, "MaxGradientLoss: budget >= 0");
}

void MaxGradientLoss::mark_losses(const StepView& view,
                                  std::span<const Transmission> txs, Rng&,
                                  std::vector<char>& lost) {
  if (budget_ <= 0 || txs.empty()) return;
  std::vector<std::size_t> order(txs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    const auto drop = [&](std::size_t i) {
      return view.queue[static_cast<std::size_t>(txs[i].from)] -
             view.queue[static_cast<std::size_t>(txs[i].to)];
    };
    return drop(a) > drop(b);
  });
  const std::size_t kill =
      std::min<std::size_t>(static_cast<std::size_t>(budget_), txs.size());
  for (std::size_t i = 0; i < kill; ++i) lost[order[i]] = 1;
}

}  // namespace lgg::core
