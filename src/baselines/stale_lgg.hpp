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
  void size_to(const core::SdNetwork& net) override;

  // The declaration history is the protocol's memory; without it a resumed
  // run would compare against the wrong (empty) past.  load_state throws
  // std::runtime_error on a history deeper than delay + 1 or a snapshot
  // whose length is not the sized node count, before sizing anything from
  // the blob.
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

 private:
  int delay_;
  core::TieBreak tie_break_;
  std::deque<std::vector<PacketCount>> history_;  // declared snapshots
  std::uint32_t node_count_ = 0;                  // set by size_to
  core::LggProtocol by_id_{core::TieBreak::kById};  // kById selection
  std::vector<graph::IncidentLink> scratch_;        // kRandomShuffle only
};

}  // namespace lgg::baselines
