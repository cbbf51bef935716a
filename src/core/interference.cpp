#include "core/interference.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <numeric>

#include "obs/registry.hpp"

namespace lgg::core {

PacketCount transmission_weight(const StepView& view, const Transmission& tx) {
  return view.queue[static_cast<std::size_t>(tx.from)] -
         view.declared[static_cast<std::size_t>(tx.to)];
}

namespace {

std::vector<std::size_t> by_weight_desc(const StepView& view,
                                        std::span<const Transmission> txs) {
  std::vector<std::size_t> order(txs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return transmission_weight(view, txs[a]) >
                            transmission_weight(view, txs[b]);
                   });
  return order;
}

}  // namespace

std::size_t GreedyMatchingScheduler::schedule(
    const StepView& view, std::span<const Transmission> txs, Rng&,
    std::vector<char>& keep) {
  std::vector<char> busy(static_cast<std::size_t>(view.net->node_count()), 0);
  std::size_t suppressed = 0;
  for (const std::size_t i : by_weight_desc(view, txs)) {
    const Transmission& tx = txs[i];
    if (busy[static_cast<std::size_t>(tx.from)] ||
        busy[static_cast<std::size_t>(tx.to)]) {
      keep[i] = 0;
      ++suppressed;
    } else {
      busy[static_cast<std::size_t>(tx.from)] = 1;
      busy[static_cast<std::size_t>(tx.to)] = 1;
    }
  }
  return suppressed;
}

std::size_t ExactMatchingScheduler::schedule(
    const StepView& view, std::span<const Transmission> txs, Rng&,
    std::vector<char>& keep) {
  if (txs.empty()) return 0;
  // Compact the endpoints actually used into a small index space.
  std::map<NodeId, int> index;
  for (const Transmission& tx : txs) {
    index.emplace(tx.from, 0);
    index.emplace(tx.to, 0);
  }
  LGG_REQUIRE(static_cast<NodeId>(index.size()) <= kExactMatchingMaxNodes,
              "ExactMatchingScheduler: too many distinct endpoints for the "
              "exact oracle (use GreedyMatchingScheduler)");
  int next = 0;
  for (auto& [node, idx] : index) idx = next++;

  struct Candidate {
    std::uint32_t nodes;  // bitmask over compacted endpoints
    PacketCount weight;
    std::size_t tx_index;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(txs.size());
  for (std::size_t i = 0; i < txs.size(); ++i) {
    const auto a = static_cast<std::uint32_t>(index[txs[i].from]);
    const auto b = static_cast<std::uint32_t>(index[txs[i].to]);
    candidates.push_back(
        {(1u << a) | (1u << b), transmission_weight(view, txs[i]), i});
  }

  // dp[mask] = best total weight using only endpoints outside `mask`;
  // choice[mask] = candidate picked first, or -1 for "skip lowest node".
  const auto n = static_cast<std::uint32_t>(index.size());
  const std::size_t size = std::size_t{1} << n;
  std::vector<PacketCount> dp(size, std::numeric_limits<PacketCount>::min());
  std::vector<std::int32_t> choice(size, -1);
  // Group candidates by their lowest endpoint for the classic "decide the
  // lowest free node" recursion, iterative over decreasing free sets.
  std::vector<std::vector<std::int32_t>> by_low(n);
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    const auto low = static_cast<std::uint32_t>(
        std::countr_zero(candidates[c].nodes));
    by_low[low].push_back(static_cast<std::int32_t>(c));
  }
  dp[size - 1] = 0;  // all endpoints used: nothing more to gain
  for (std::size_t mask = size - 1; mask-- > 0;) {
    // Lowest endpoint not yet used.
    const auto low = static_cast<std::uint32_t>(
        std::countr_zero(~static_cast<std::uint32_t>(mask) &
                         ((1u << n) - 1)));
    // Option 1: leave `low` unmatched.
    PacketCount best = dp[mask | (1u << low)];
    std::int32_t best_choice = -1;
    // Option 2: fire a candidate whose lowest endpoint is `low` and whose
    // other endpoint is also free.
    for (const std::int32_t c : by_low[low]) {
      const Candidate& cand = candidates[static_cast<std::size_t>(c)];
      if ((cand.nodes & static_cast<std::uint32_t>(mask)) != 0) continue;
      const PacketCount total = cand.weight + dp[mask | cand.nodes];
      if (total > best) {
        best = total;
        best_choice = c;
      }
    }
    dp[mask] = best;
    choice[mask] = best_choice;
  }

  // Recover the optimal matching and suppress everything else.
  std::fill(keep.begin(), keep.end(), 0);
  std::size_t fired = 0;
  std::uint32_t mask = 0;
  while (mask != (1u << n) - 1) {
    const std::int32_t c = choice[mask];
    const auto low = static_cast<std::uint32_t>(
        std::countr_zero(~mask & ((1u << n) - 1)));
    if (c < 0) {
      mask |= 1u << low;
    } else {
      const Candidate& cand = candidates[static_cast<std::size_t>(c)];
      keep[cand.tx_index] = 1;
      ++fired;
      mask |= cand.nodes;
    }
  }
  return txs.size() - fired;
}

std::size_t OracleOrGreedyScheduler::schedule(
    const StepView& view, std::span<const Transmission> txs, Rng& rng,
    std::vector<char>& keep) {
  if (txs.empty()) return 0;
  std::map<NodeId, int> endpoints;
  for (const Transmission& tx : txs) {
    endpoints.emplace(tx.from, 0);
    endpoints.emplace(tx.to, 0);
  }
  if (static_cast<NodeId>(endpoints.size()) <= kExactMatchingMaxNodes) {
    ++exact_steps_;
    if (exact_counter_ != nullptr) exact_counter_->add(1);
    return exact_.schedule(view, txs, rng, keep);
  }
  ++greedy_steps_;
  if (greedy_counter_ != nullptr) greedy_counter_->add(1);
  return greedy_.schedule(view, txs, rng, keep);
}

void OracleOrGreedyScheduler::register_metrics(obs::MetricRegistry& registry) {
  exact_counter_ = &registry.counter("scheduler.exact_steps");
  greedy_counter_ = &registry.counter("scheduler.greedy_steps");
}

std::size_t Distance2GreedyScheduler::schedule(
    const StepView& view, std::span<const Transmission> txs, Rng&,
    std::vector<char>& keep) {
  // blocked[v]: v or one of its neighbours already participates.
  std::vector<char> busy(static_cast<std::size_t>(view.net->node_count()), 0);
  std::vector<char> near_busy(busy.size(), 0);
  const graph::Multigraph& g = view.net->topology();
  const auto occupy = [&](NodeId v) {
    busy[static_cast<std::size_t>(v)] = 1;
    near_busy[static_cast<std::size_t>(v)] = 1;
    for (const graph::IncidentLink& l : g.incident(v)) {
      near_busy[static_cast<std::size_t>(l.neighbor)] = 1;
    }
  };
  std::size_t suppressed = 0;
  for (const std::size_t i : by_weight_desc(view, txs)) {
    const Transmission& tx = txs[i];
    if (near_busy[static_cast<std::size_t>(tx.from)] ||
        near_busy[static_cast<std::size_t>(tx.to)]) {
      keep[i] = 0;
      ++suppressed;
    } else {
      occupy(tx.from);
      occupy(tx.to);
    }
  }
  return suppressed;
}

bool is_matching(std::span<const Transmission> txs,
                 std::span<const char> keep, NodeId node_count) {
  std::vector<char> busy(static_cast<std::size_t>(node_count), 0);
  for (std::size_t i = 0; i < txs.size(); ++i) {
    if (!keep[i]) continue;
    if (busy[static_cast<std::size_t>(txs[i].from)] ||
        busy[static_cast<std::size_t>(txs[i].to)]) {
      return false;
    }
    busy[static_cast<std::size_t>(txs[i].from)] = 1;
    busy[static_cast<std::size_t>(txs[i].to)] = 1;
  }
  return true;
}

}  // namespace lgg::core
