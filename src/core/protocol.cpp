#include "core/protocol.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

namespace lgg::core {

namespace {

template <typename... Parts>
std::string describe(const Parts&... parts) {
  std::ostringstream err;
  (err << ... << parts);
  return err.str();
}

}  // namespace

std::string check_transmission_contract(const StepView& view,
                                        std::span<const Transmission> txs,
                                        ContractScratch& scratch) {
  const graph::Multigraph& g = view.net->topology();
  const auto directions = 2 * static_cast<std::size_t>(g.edge_count());
  if (scratch.stamp.size() < directions) scratch.stamp.resize(directions, 0);
  if (scratch.current == std::numeric_limits<std::uint32_t>::max()) {
    // Epoch wraparound: stale stamps could alias the new epoch; start over.
    std::fill(scratch.stamp.begin(), scratch.stamp.end(), 0);
    scratch.current = 0;
  }
  const std::uint32_t epoch = ++scratch.current;
  scratch.sent.assign(static_cast<std::size_t>(g.node_count()), 0);
  for (const Transmission& tx : txs) {
    if (!g.valid_edge(tx.edge)) return describe("invalid edge id ", tx.edge);
    const graph::Endpoints ep = g.endpoints(tx.edge);
    const bool matches = (ep.u == tx.from && ep.v == tx.to) ||
                         (ep.v == tx.from && ep.u == tx.to);
    if (!matches) {
      return describe("transmission endpoints do not match edge ", tx.edge);
    }
    if (view.active != nullptr && !view.active->active(tx.edge)) {
      return describe("transmission on inactive edge ", tx.edge);
    }
    auto& used = scratch.stamp[2 * static_cast<std::size_t>(tx.edge) +
                               (tx.from == ep.u ? 0 : 1)];
    if (used == epoch) {
      return describe("edge ", tx.edge, " used twice in the same direction");
    }
    used = epoch;
    ++scratch.sent[static_cast<std::size_t>(tx.from)];
  }
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    if (scratch.sent[i] > view.queue[i]) {
      return describe("node ", v, " sends ", scratch.sent[i],
                      " packets but holds only ", view.queue[i]);
    }
  }
  return {};
}

std::string check_transmission_contract(const StepView& view,
                                        std::span<const Transmission> txs) {
  ContractScratch scratch;
  return check_transmission_contract(view, txs, scratch);
}

}  // namespace lgg::core
