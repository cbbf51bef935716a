#include "core/sd_network.hpp"

#include <algorithm>
#include <sstream>

namespace lgg::core {

namespace {

/// Keeps `ids` a sorted set: v is present iff `member`.
void sync_membership(std::vector<NodeId>& ids, NodeId v, bool member) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), v);
  const bool present = it != ids.end() && *it == v;
  if (member && !present) {
    ids.insert(it, v);
  } else if (!member && present) {
    ids.erase(it);
  }
}

}  // namespace

void SdNetwork::update_role_index(NodeId v) {
  certificate_.drop();
  const NodeSpec& s = specs_[static_cast<std::size_t>(v)];
  sync_membership(source_ids_, v, s.in > 0);
  sync_membership(sink_ids_, v, s.out > 0);
  sync_membership(retention_ids_, v, s.retention > 0);
}

void SdNetwork::set_source(NodeId v, Cap in_rate) {
  LGG_REQUIRE(graph_.valid_node(v), "set_source: bad node");
  LGG_REQUIRE(in_rate > 0, "set_source: in(s) must be positive");
  specs_[static_cast<std::size_t>(v)] = NodeSpec{in_rate, 0, 0};
  update_role_index(v);
}

void SdNetwork::set_sink(NodeId v, Cap out_rate) {
  LGG_REQUIRE(graph_.valid_node(v), "set_sink: bad node");
  LGG_REQUIRE(out_rate > 0, "set_sink: out(d) must be positive");
  specs_[static_cast<std::size_t>(v)] = NodeSpec{0, out_rate, 0};
  update_role_index(v);
}

void SdNetwork::set_generalized(NodeId v, Cap in_rate, Cap out_rate,
                                Cap retention) {
  LGG_REQUIRE(graph_.valid_node(v), "set_generalized: bad node");
  LGG_REQUIRE(in_rate >= 0 && out_rate >= 0 && retention >= 0,
              "set_generalized: rates and retention must be non-negative");
  LGG_REQUIRE(in_rate > 0 || out_rate > 0 || retention > 0,
              "set_generalized: use clear_role for a plain relay");
  specs_[static_cast<std::size_t>(v)] = NodeSpec{in_rate, out_rate, retention};
  update_role_index(v);
}

void SdNetwork::clear_role(NodeId v) {
  LGG_REQUIRE(graph_.valid_node(v), "clear_role: bad node");
  specs_[static_cast<std::size_t>(v)] = NodeSpec{};
  update_role_index(v);
}

void SdNetwork::set_spec(NodeId v, NodeSpec spec) {
  LGG_REQUIRE(graph_.valid_node(v), "set_spec: bad node");
  LGG_REQUIRE(spec.in >= 0 && spec.out >= 0 && spec.retention >= 0,
              "set_spec: rates and retention must be non-negative");
  specs_[static_cast<std::size_t>(v)] = spec;
  update_role_index(v);
}

std::vector<NodeId> SdNetwork::special_nodes() const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < node_count(); ++v) {
    const NodeSpec& s = specs_[static_cast<std::size_t>(v)];
    if (s.in > 0 || s.out > 0 || s.retention > 0) out.push_back(v);
  }
  return out;
}

Cap SdNetwork::arrival_rate() const {
  Cap total = 0;
  for (const NodeSpec& s : specs_) total += s.in;
  return total;
}

Cap SdNetwork::extraction_rate() const {
  Cap total = 0;
  for (const NodeSpec& s : specs_) total += s.out;
  return total;
}

Cap SdNetwork::max_out() const {
  Cap best = 0;
  for (const NodeSpec& s : specs_) best = std::max(best, s.out);
  return best;
}

Cap SdNetwork::max_retention() const {
  Cap best = 0;
  for (const NodeSpec& s : specs_) best = std::max(best, s.retention);
  return best;
}

bool SdNetwork::is_generalized() const {
  for (const NodeSpec& s : specs_) {
    if (s.retention > 0) return true;
    if (s.in > 0 && s.out > 0) return true;
  }
  return false;
}

std::vector<flow::RatedNode> SdNetwork::source_rates() const {
  std::vector<flow::RatedNode> out;
  for (NodeId v = 0; v < node_count(); ++v) {
    const Cap in = specs_[static_cast<std::size_t>(v)].in;
    if (in > 0) out.push_back({v, in});
  }
  return out;
}

std::vector<flow::RatedNode> SdNetwork::sink_rates() const {
  std::vector<flow::RatedNode> out;
  for (NodeId v = 0; v < node_count(); ++v) {
    const Cap o = specs_[static_cast<std::size_t>(v)].out;
    if (o > 0) out.push_back({v, o});
  }
  return out;
}

void SdNetwork::validate() const {
  LGG_REQUIRE(node_count() >= 1, "SdNetwork: empty graph");
  LGG_REQUIRE(!sources().empty(), "SdNetwork: no sources (some in(v) > 0)");
  LGG_REQUIRE(!sinks().empty(), "SdNetwork: no sinks (some out(v) > 0)");
}

flow::FeasibilityReport analyze(const SdNetwork& net) {
  if (const auto report = net.certificate_.get()) return *report;
  net.validate();
  const auto src = net.source_rates();
  const auto dst = net.sink_rates();
  return *net.certificate_.publish(
      std::make_shared<const flow::FeasibilityReport>(
          flow::analyze_feasibility(net.topology(), src, dst)));
}

std::string describe(const SdNetwork& net,
                     const flow::FeasibilityReport& report) {
  std::ostringstream os;
  os << "n=" << net.node_count() << " delta=" << net.max_degree()
     << " |S|=" << net.sources().size() << " |D|=" << net.sinks().size()
     << " rate=" << report.arrival_rate << " f*=" << report.fstar
     << (report.feasible ? " feasible" : " INFEASIBLE")
     << (report.unsaturated ? " unsaturated" : " saturated")
     << " eps=" << report.epsilon;
  if (net.is_generalized()) os << " R=" << net.max_retention();
  return os.str();
}

}  // namespace lgg::core
