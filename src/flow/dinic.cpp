#include "flow/dinic.hpp"

#include <algorithm>
#include <limits>
#include <vector>

namespace lgg::flow {

namespace {

/// Runs on the slot arrays, visiting each node's arcs in insertion order.
///
/// Each phase labels nodes by residual distance to the sink, with a BFS
/// backwards from the sink over a flat queue whose relaxation is
/// branch-free, and then pushes a blocking flow by a current-arc DFS from
/// the source along arcs that step one label closer.  That DFS enters
/// exactly the nodes on shortest source-sink paths.  A DFS over the
/// textbook source-distance levels scans the same arcs of those nodes in
/// the same order and also enters the dead ends around them, which push
/// nothing; so both push the same flow, arc for arc, and these labels
/// only save the dead-end walks.
class DinicSolver {
 public:
  DinicSolver(FlowNetwork& net, NodeId source, NodeId sink)
      : slots_(net.slots()),
        source_(source),
        sink_(sink),
        label_(static_cast<std::size_t>(net.node_count())),
        iter_(static_cast<std::size_t>(net.node_count())),
        queue_(static_cast<std::size_t>(net.node_count()) + 1) {}

  Cap run() {
    Cap total = 0;
    while (build_labels()) {
      std::copy(slots_.begin, slots_.begin + iter_.size(), iter_.begin());
      while (const Cap pushed = augment(source_, kInf)) total += pushed;
    }
    return total;
  }

 private:
  static constexpr Cap kInf = std::numeric_limits<Cap>::max();

  /// Residual distance to the sink.  The BFS stops once the source is
  /// labelled: the DFS only ever moves to smaller labels from there.
  bool build_labels() {
    // Saturated source arcs end most solves; that needs no BFS.
    bool source_open = false;
    for (SlotId s = slots_.begin[source_]; s < slots_.end[source_]; ++s) {
      source_open |= slots_.residual[s] > 0;
    }
    if (!source_open) return false;
    std::fill(label_.begin(), label_.end(), -1);
    int* const label = label_.data();
    NodeId* const queue = queue_.data();
    label[sink_] = 0;
    queue[0] = sink_;
    std::size_t tail = 1;
    for (std::size_t head = 0; head < tail && label[source_] < 0; ++head) {
      const NodeId v = queue[head];
      const int next = label[v] + 1;
      // Slot s of v holds the twin of arc (u -> v).
      for (SlotId s = slots_.begin[v], end = slots_.end[v]; s < end; ++s) {
        const NodeId u = slots_.head[s];
        const bool take =
            (slots_.residual[slots_.twin[s]] > 0) & (label[u] < 0);
        label[u] = take ? next : label[u];
        queue[tail] = u;
        tail += take ? 1 : 0;
      }
    }
    return label[source_] >= 0;
  }

  Cap augment(NodeId u, Cap limit) {
    if (u == sink_) return limit;
    const int next = label_[static_cast<std::size_t>(u)] - 1;
    const SlotId end = slots_.end[u];
    for (SlotId& s = iter_[static_cast<std::size_t>(u)]; s < end; ++s) {
      const Cap r = slots_.residual[s];
      // One branch per arc: most arcs fail, and on either test.
      if ((r > 0) & (label_[static_cast<std::size_t>(slots_.head[s])] ==
                     next)) {
        const Cap pushed = augment(slots_.head[s], std::min(limit, r));
        if (pushed > 0) {
          slots_.residual[s] -= pushed;
          slots_.residual[slots_.twin[s]] += pushed;
          return pushed;
        }
      }
    }
    return 0;
  }

  FlowNetwork::Slots<Cap> slots_;
  NodeId source_;
  NodeId sink_;
  std::vector<int> label_;
  std::vector<SlotId> iter_;
  std::vector<NodeId> queue_;
};

}  // namespace

Cap dinic_max_flow(FlowNetwork& net, NodeId source, NodeId sink) {
  LGG_REQUIRE(net.valid_node(source) && net.valid_node(sink),
              "dinic: bad terminal");
  LGG_REQUIRE(source != sink, "dinic: source == sink");
  return DinicSolver(net, source, sink).run();
}

}  // namespace lgg::flow
