// Algorithm 1 of the paper: the Local Greedy Gradient protocol.
//
// At each step, every node u orders its (active) incident links by
// increasing declared queue length of the far endpoint, then sends one
// packet over each link whose far endpoint is strictly lower than u's own
// (true) queue, stopping once q_t(u) packets have been committed — i.e. u
// serves its q_t(u) lowest neighbours first.  The paper notes the tie-break
// among equal neighbours does not affect stability; both deterministic and
// randomized tie-breaks are provided so experiments can confirm it.
//
// Only downhill links (declared < q_t(u)) can carry a packet, and the
// order puts all of them first, so selection filters before it sorts: one
// O(deg u) scan keeps the active downhill links, and only those D links
// are sorted.  The rest of the list is never ordered.  The scan packs each
// kept link into one integer key, declared << 32 | rank, where rank is the
// link's position in u's list; ranks are unique, so sorting the keys gives
// exactly the (declared, rank) order below.  D ≤ 16 keys (nearly every
// node at average degree 8) go through a branch-free compare-swap
// network built for that D (Batcher's 2/4/8/16-input networks pruned to
// D inputs); hubs use std::sort.  A node whose kept declarations may not
// fit 32 bits (q_t(u) > 2^32, or a negative declaration through the
// public StepView) runs the same scan with a 128-bit key and std::sort.
//
// The per-node order of the emitted transmissions is a contract, not an
// implementation detail: loss models mark losses by list index, and the
// flight recorder and StepObserver record the list as proposed.  It is the
// old full sort's order restricted to the downhill links: (declared queue,
// neighbour id, edge id) for kById; for kRandomShuffle, a shuffle of u's
// active links in insertion order, then a stable sort by declared queue.
//
// Only downhill links carry a packet, so under truthful declarations LGG
// never proposes both directions of one link: downhill_only() is true and
// the simulator skips link-conflict resolution for it (DESIGN.md §5,
// decision 4).
//
// Selection is local by construction (each node needs only its own queue
// and its neighbours' declarations), and the randomized tie-break draws
// from the node's addressed stream (StepView::draw_seed), so the shard
// engine can select disjoint node ranges concurrently and reproduce the
// serial trajectory bit for bit.
#pragma once

#include "core/protocol.hpp"

namespace lgg::obs {
class Counter;
}  // namespace lgg::obs

namespace lgg::core {

enum class TieBreak {
  kById,           ///< (declared queue, neighbour id, edge id) ascending
  kRandomShuffle,  ///< random order, then stable sort by declared queue
};

class LggProtocol final : public RoutingProtocol {
 public:
  explicit LggProtocol(TieBreak tie_break = TieBreak::kById)
      : tie_break_(tie_break) {}

  [[nodiscard]] std::string_view name() const override { return "lgg"; }

  void select_transmissions(const StepView& view, Rng& rng,
                            std::vector<Transmission>& out) override;

  [[nodiscard]] bool local_selection() const override { return true; }
  /// Algorithm 1 sends u→v only when declared(v) < q(u).
  [[nodiscard]] bool downhill_only() const override { return true; }
  std::uint64_t select_for_nodes(const StepView& view,
                                 std::span<const NodeId> nodes,
                                 std::vector<Transmission>& out) override;
  void note_selection_work(std::uint64_t active) override;

  /// Registers protocol.active_nodes — cumulative count of nodes that held
  /// packets when transmissions were chosen (the per-step work LGG scans).
  void register_metrics(obs::MetricRegistry& registry) override;

 private:
  TieBreak tie_break_;
  obs::Counter* active_nodes_ = nullptr;
};

}  // namespace lgg::core
