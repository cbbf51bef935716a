#include "flow/max_flow.hpp"

#include "flow/dinic.hpp"
#include "flow/edmonds_karp.hpp"
#include "flow/push_relabel.hpp"

namespace lgg::flow {

std::string_view algorithm_name(FlowAlgorithm algo) {
  switch (algo) {
    case FlowAlgorithm::kDinic:
      return "dinic";
    case FlowAlgorithm::kPushRelabelFifo:
      return "push_relabel_fifo";
    case FlowAlgorithm::kPushRelabelHighest:
      return "push_relabel_highest";
    case FlowAlgorithm::kEdmondsKarp:
      return "edmonds_karp";
  }
  return "unknown";
}

Cap solve_max_flow(FlowNetwork& net, NodeId source, NodeId sink,
                   FlowAlgorithm algo) {
  switch (algo) {
    case FlowAlgorithm::kDinic:
      return dinic_max_flow(net, source, sink);
    case FlowAlgorithm::kPushRelabelFifo:
      return push_relabel_max_flow(net, source, sink,
                                   PushRelabelRule::kFifo);
    case FlowAlgorithm::kPushRelabelHighest:
      return push_relabel_max_flow(net, source, sink,
                                   PushRelabelRule::kHighestLabel);
    case FlowAlgorithm::kEdmondsKarp:
      return edmonds_karp_max_flow(net, source, sink);
  }
  LGG_REQUIRE(false, "solve_max_flow: unknown algorithm");
  return 0;
}

bool flow_is_valid(const FlowNetwork& net, NodeId source, NodeId sink) {
  for (ArcId a = 0; a < net.arc_count(); ++a) {
    if (net.residual(a) < 0) return false;
  }
  // excess_at reads only v's own slots: one pass over the arcs in all.
  for (NodeId v = 0; v < net.node_count(); ++v) {
    if (v == source || v == sink) continue;
    if (net.excess_at(v) != 0) return false;
  }
  return true;
}

}  // namespace lgg::flow
