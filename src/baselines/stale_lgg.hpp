// LGG with stale neighbourhood information — an ablation of the paper's
// "localized" assumption.  Real distributed deployments learn neighbour
// queue lengths through periodic beacons, so node u compares against the
// declared queues from `delay` steps ago instead of the current ones.
// delay = 0 recovers Algorithm 1 exactly.
#pragma once

#include <deque>

#include "core/lgg_protocol.hpp"

namespace lgg::baselines {

class StaleLggProtocol final : public core::RoutingProtocol {
 public:
  explicit StaleLggProtocol(int delay,
                            core::TieBreak tie_break = core::TieBreak::kById);

  [[nodiscard]] std::string_view name() const override { return "stale_lgg"; }
  [[nodiscard]] int delay() const { return delay_; }

  void select_transmissions(const core::StepView& view, Rng& rng,
                            std::vector<core::Transmission>& out) override;

  void reset() override { history_.clear(); }

  // The declaration history is the protocol's memory; without it a resumed
  // run would compare against the wrong (empty) past.
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

 private:
  int delay_;
  core::TieBreak tie_break_;
  std::deque<std::vector<PacketCount>> history_;  // declared snapshots
  core::LggProtocol by_id_{core::TieBreak::kById};  // kById selection
  std::vector<graph::IncidentLink> scratch_;        // kRandomShuffle only
};

}  // namespace lgg::baselines
