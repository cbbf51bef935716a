#include "flow/edmonds_karp.hpp"

#include <algorithm>
#include <limits>
#include <vector>

namespace lgg::flow {

Cap edmonds_karp_max_flow(FlowNetwork& net, NodeId source, NodeId sink) {
  LGG_REQUIRE(net.valid_node(source) && net.valid_node(sink),
              "edmonds_karp: bad terminal");
  LGG_REQUIRE(source != sink, "edmonds_karp: source == sink");
  constexpr SlotId kUnseen = -1;
  const auto slots = net.slots();
  const auto n = static_cast<std::size_t>(net.node_count());
  Cap total = 0;
  std::vector<SlotId> parent(n);
  std::vector<NodeId> queue(n);
  while (true) {
    std::fill(parent.begin(), parent.end(), kUnseen);
    parent[static_cast<std::size_t>(source)] = -2;  // visited sentinel
    queue[0] = source;
    std::size_t tail = 1;
    bool reached = false;
    for (std::size_t head = 0; head < tail && !reached; ++head) {
      const NodeId u = queue[head];
      for (SlotId s = slots.begin[u], end = slots.end[u]; s < end; ++s) {
        const NodeId v = slots.head[s];
        if (slots.residual[s] > 0 &&
            parent[static_cast<std::size_t>(v)] == kUnseen) {
          parent[static_cast<std::size_t>(v)] = s;
          if (v == sink) {
            reached = true;
            break;
          }
          queue[tail++] = v;
        }
      }
    }
    if (!reached) break;
    // Bottleneck along the path, then augment.
    Cap bottleneck = std::numeric_limits<Cap>::max();
    for (NodeId v = sink; v != source;) {
      const SlotId s = parent[static_cast<std::size_t>(v)];
      bottleneck = std::min(bottleneck, slots.residual[s]);
      v = slots.head[slots.twin[s]];
    }
    for (NodeId v = sink; v != source;) {
      const SlotId s = parent[static_cast<std::size_t>(v)];
      slots.residual[s] -= bottleneck;
      slots.residual[slots.twin[s]] += bottleneck;
      v = slots.head[slots.twin[s]];
    }
    total += bottleneck;
  }
  return total;
}

}  // namespace lgg::flow
