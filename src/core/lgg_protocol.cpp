#include "core/lgg_protocol.hpp"

#include <algorithm>

#include "core/profiler.hpp"
#include "obs/registry.hpp"

namespace lgg::core {

namespace {

/// An active downhill link of the node being selected: the far end's
/// declared queue and the link's position in the scanned list.
struct Candidate {
  PacketCount declared;
  std::uint32_t rank;
};

struct Scratch {
  std::vector<Candidate> downhill;
  std::vector<Candidate> merged;              ///< sort_by_declared buffer
  std::vector<graph::IncidentLink> shuffled;  ///< kRandomShuffle only
};

/// Shards select concurrently, so each thread owns its scratch.  It stops
/// growing once it has seen the largest degree, which keeps selection
/// allocation-free in steady state.
Scratch& thread_scratch() {
  thread_local Scratch scratch;
  return scratch;
}

/// Stable sort of scratch.downhill[0, d) by declared queue alone.
/// Candidates arrive in rank order, so stability yields the (declared, rank)
/// order with one compare per step.  Runs of 16 are insertion-sorted in
/// place (a whole node, at typical degrees), then merged pairwise through
/// scratch.merged: O(D log D) even for a hub whose every link is downhill,
/// and allocation-free once grown.
void sort_by_declared(Scratch& scratch, std::size_t d) {
  constexpr std::size_t kRun = 16;
  const auto by_declared = [](const Candidate& a, const Candidate& b) {
    return a.declared < b.declared;
  };
  Candidate* const c = scratch.downhill.data();
  for (std::size_t lo = 0; lo < d; lo += kRun) {
    const std::size_t hi = std::min(lo + kRun, d);
    for (std::size_t i = lo + 1; i < hi; ++i) {
      const Candidate x = c[i];
      std::size_t j = i;
      for (; j > lo && by_declared(x, c[j - 1]); --j) c[j] = c[j - 1];
      c[j] = x;
    }
  }
  if (d <= kRun) return;
  if (scratch.merged.size() < d) scratch.merged.resize(d);
  Candidate* src = c;
  Candidate* dst = scratch.merged.data();
  for (std::size_t width = kRun; width < d; width *= 2) {
    for (std::size_t lo = 0; lo < d; lo += 2 * width) {
      const std::size_t mid = std::min(lo + width, d);
      const std::size_t hi = std::min(lo + 2 * width, d);
      std::merge(src + lo, src + mid, src + mid, src + hi, dst + lo,
                 by_declared);
    }
    std::swap(src, dst);
  }
  if (src != c) std::copy(src, src + d, c);
}

/// One node's selection into `out`.  Returns 1 when the node was active
/// (held packets), 0 otherwise.
std::uint64_t select_node(TieBreak tie_break, const StepView& view, NodeId u,
                          Scratch& scratch, std::vector<Transmission>& out) {
  // u compares its own true queue against the neighbours' declarations.
  const PacketCount qu = view.queue[static_cast<std::size_t>(u)];
  if (qu <= 0) return 0;
  const graph::EdgeMask* const mask = view.active;
  const std::span<const NodeId> nbrs = view.incidence->ordered_neighbors(u);
  const std::span<const EdgeId> edges = view.incidence->ordered_edges(u);
  if (scratch.downhill.size() < nbrs.size()) {
    scratch.downhill.resize(nbrs.size());
  }
  Candidate* const c = scratch.downhill.data();

  // Filter: keep the active downhill links of u's list, in list order.
  // Each slot is written unconditionally and kept by advancing `d`, so the
  // scan carries no data-dependent branch.
  std::size_t d = 0;
  if (tie_break == TieBreak::kById) {
    // The list is the neighbour-ordered CSR arrays.
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const PacketCount q = view.declared[static_cast<std::size_t>(nbrs[i])];
      c[d] = {q, static_cast<std::uint32_t>(i)};
      d += static_cast<std::size_t>(q < qu) &
           static_cast<std::size_t>(mask == nullptr || mask->active(edges[i]));
    }
  } else {
    // The list is a shuffle of every active link in insertion order.  It
    // draws from u's addressed stream, never a shared one, so the
    // tie-break is identical whether u is visited serially or from a shard.
    scratch.shuffled.clear();
    for (const graph::IncidentLink& link : view.incidence->incident(u)) {
      if (mask == nullptr || mask->active(link.edge)) {
        scratch.shuffled.push_back(link);
      }
    }
    Rng rng = draw_rng(view.draw_seed, static_cast<std::uint64_t>(view.t),
                       static_cast<std::uint64_t>(StepPhase::kSelection),
                       static_cast<std::uint64_t>(u));
    std::shuffle(scratch.shuffled.begin(), scratch.shuffled.end(),
                 rng.engine());
    for (std::size_t i = 0; i < scratch.shuffled.size(); ++i) {
      const PacketCount q = view.declared[static_cast<std::size_t>(
          scratch.shuffled[i].neighbor)];
      c[d] = {q, static_cast<std::uint32_t>(i)};
      d += static_cast<std::size_t>(q < qu);
    }
  }

  // Sort only the D downhill links and serve the lowest min(q(u), D).
  sort_by_declared(scratch, d);
  const std::size_t sent =
      std::min(d, static_cast<std::size_t>(static_cast<std::uint64_t>(qu)));
  for (std::size_t k = 0; k < sent; ++k) {
    const std::size_t r = c[k].rank;
    out.push_back(tie_break == TieBreak::kById
                      ? Transmission{edges[r], u, nbrs[r]}
                      : Transmission{scratch.shuffled[r].edge, u,
                                     scratch.shuffled[r].neighbor});
  }
  return 1;
}

}  // namespace

void LggProtocol::select_transmissions(const StepView& view, Rng&,
                                       std::vector<Transmission>& out) {
  const NodeId n = view.net->node_count();
  Scratch& scratch = thread_scratch();
  std::uint64_t active = 0;
  for (NodeId u = 0; u < n; ++u) {
    active += select_node(tie_break_, view, u, scratch, out);
  }
  if (active_nodes_ != nullptr) active_nodes_->add(active);
}

std::uint64_t LggProtocol::select_for_nodes(const StepView& view,
                                            std::span<const NodeId> nodes,
                                            std::vector<Transmission>& out) {
  Scratch& scratch = thread_scratch();
  std::uint64_t active = 0;
  for (const NodeId u : nodes) {
    active += select_node(tie_break_, view, u, scratch, out);
  }
  return active;
}

void LggProtocol::note_selection_work(std::uint64_t active) {
  if (active_nodes_ != nullptr) active_nodes_->add(active);
}

void LggProtocol::register_metrics(obs::MetricRegistry& registry) {
  active_nodes_ = &registry.counter("protocol.active_nodes");
}

}  // namespace lgg::core
