#include "baselines/stale_lgg.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/binio.hpp"
#include "common/require.hpp"

namespace lgg::baselines {

StaleLggProtocol::StaleLggProtocol(int delay, core::TieBreak tie_break)
    : delay_(delay), tie_break_(tie_break) {
  LGG_REQUIRE(delay >= 0, "StaleLggProtocol: delay >= 0");
}

void StaleLggProtocol::select_transmissions(
    const core::StepView& view, Rng& rng,
    std::vector<core::Transmission>& out) {
  // Record this step's declarations, then look `delay_` steps back.
  history_.emplace_back(view.declared.begin(), view.declared.end());
  while (static_cast<int>(history_.size()) > delay_ + 1) {
    history_.pop_front();
  }
  const std::vector<PacketCount>& stale = history_.front();

  if (tie_break_ == core::TieBreak::kById) {
    // LGG's filter-first selection against the stale declarations: its
    // (declared, neighbour, edge) order restricted to the downhill links
    // is exactly a full sort by (stale, neighbour, edge) cut off at q(u).
    core::StepView stale_view = view;
    stale_view.declared = stale;
    by_id_.select_transmissions(stale_view, rng, out);
    return;
  }

  // kRandomShuffle draws from the shared stream, so it keeps its own loop:
  // LGG's addressed per-node shuffle would change the trajectory.
  const NodeId n = view.net->node_count();
  for (NodeId u = 0; u < n; ++u) {
    PacketCount budget = view.queue[static_cast<std::size_t>(u)];
    if (budget <= 0) continue;
    const PacketCount qu = view.queue[static_cast<std::size_t>(u)];

    scratch_.clear();
    for (const graph::IncidentLink& link : view.incidence->incident(u)) {
      if (view.active != nullptr && !view.active->active(link.edge)) continue;
      scratch_.push_back(link);
    }
    if (scratch_.empty()) continue;
    auto stale_of = [&stale](NodeId v) {
      return stale[static_cast<std::size_t>(v)];
    };
    std::shuffle(scratch_.begin(), scratch_.end(), rng.engine());
    std::stable_sort(scratch_.begin(), scratch_.end(),
                     [&](const graph::IncidentLink& a,
                         const graph::IncidentLink& b) {
                       return stale_of(a.neighbor) < stale_of(b.neighbor);
                     });
    for (const graph::IncidentLink& link : scratch_) {
      if (budget <= 0) break;
      if (qu > stale_of(link.neighbor)) {
        out.push_back(core::Transmission{link.edge, u, link.neighbor});
        --budget;
      }
    }
  }
}

void StaleLggProtocol::save_state(std::ostream& os) const {
  binio::write_u32(os, static_cast<std::uint32_t>(history_.size()));
  for (const std::vector<PacketCount>& snapshot : history_) {
    binio::write_u32(os, static_cast<std::uint32_t>(snapshot.size()));
    for (const PacketCount q : snapshot) binio::write_i64(os, q);
  }
}

void StaleLggProtocol::size_to(const core::SdNetwork& net) {
  node_count_ = static_cast<std::uint32_t>(net.node_count());
}

void StaleLggProtocol::load_state(std::istream& is) {
  // Every count comes from the blob, so each is checked before anything is
  // sized from it: selection indexes the oldest snapshot by node id.
  const std::uint32_t depth = binio::read_u32(is);
  const std::uint64_t max_depth = static_cast<std::uint64_t>(delay_) + 1;
  if (depth > max_depth) {
    throw std::runtime_error("stale_lgg: history of " + std::to_string(depth) +
                             " snapshots exceeds delay + 1 = " +
                             std::to_string(max_depth));
  }
  std::deque<std::vector<PacketCount>> history;
  for (std::uint32_t i = 0; i < depth; ++i) {
    const std::uint32_t n = binio::read_u32(is);
    if (binio::remaining(is) / sizeof(PacketCount) < n) {
      throw std::runtime_error("stale_lgg: snapshot of " + std::to_string(n) +
                               " nodes overruns the blob");
    }
    if (n != node_count_) {
      throw std::runtime_error("stale_lgg: snapshot of " + std::to_string(n) +
                               " nodes, network has " +
                               std::to_string(node_count_));
    }
    std::vector<PacketCount> snapshot(n);
    for (std::uint32_t v = 0; v < n; ++v) snapshot[v] = binio::read_i64(is);
    history.push_back(std::move(snapshot));
  }
  history_ = std::move(history);
}

}  // namespace lgg::baselines
