#include "flow/min_cut.hpp"

#include <utility>

namespace lgg::flow {

namespace {

/// Residual reachability closure of the marked nodes, forwards (along arcs
/// with residual > 0) or backwards (to the marked nodes, along the same
/// arcs reversed).  A flat queue; the relaxation is branch-free.
template <bool kBackward>
std::vector<char> residual_bfs(const FlowNetwork& net, std::vector<char> seen) {
  LGG_REQUIRE(static_cast<NodeId>(seen.size()) == net.node_count(),
              "residual closure: indicator size mismatch");
  const auto slots = net.slots();
  std::vector<NodeId> queue(seen.size() + 1);
  std::size_t tail = 0;
  for (NodeId v = 0; v < net.node_count(); ++v) {
    if (seen[static_cast<std::size_t>(v)]) queue[tail++] = v;
  }
  for (std::size_t head = 0; head < tail; ++head) {
    const NodeId u = queue[head];
    for (SlotId s = slots.begin[u], end = slots.end[u]; s < end; ++s) {
      // Backwards, slot s of u is the twin of arc (v -> u).
      const Cap r = slots.residual[kBackward ? slots.twin[s] : s];
      const NodeId v = slots.head[s];
      const bool take = (r > 0) & !seen[static_cast<std::size_t>(v)];
      seen[static_cast<std::size_t>(v)] |= static_cast<char>(take);
      queue[tail] = v;
      tail += take ? 1 : 0;
    }
  }
  return seen;
}

std::vector<char> single(const FlowNetwork& net, NodeId v) {
  std::vector<char> seen(static_cast<std::size_t>(net.node_count()), 0);
  seen[static_cast<std::size_t>(v)] = 1;
  return seen;
}

}  // namespace

std::vector<char> residual_closure(const FlowNetwork& net,
                                   std::vector<char> seeds) {
  return residual_bfs<false>(net, std::move(seeds));
}

CutSides min_cut_sides(const FlowNetwork& net, NodeId source, NodeId sink) {
  LGG_REQUIRE(net.valid_node(source) && net.valid_node(sink),
              "min_cut_sides: bad terminal");
  CutSides sides;
  sides.min_side = residual_closure(net, single(net, source));
  LGG_REQUIRE(!sides.min_side[static_cast<std::size_t>(sink)],
              "min_cut_sides: network does not hold a maximum flow");
  const auto reaches_sink = residual_bfs<true>(net, single(net, sink));
  sides.max_side.assign(static_cast<std::size_t>(net.node_count()), 0);
  for (NodeId v = 0; v < net.node_count(); ++v) {
    sides.max_side[static_cast<std::size_t>(v)] =
        reaches_sink[static_cast<std::size_t>(v)] ? 0 : 1;
  }
  return sides;
}

Cap cut_capacity(const FlowNetwork& net, const std::vector<char>& side_a) {
  LGG_REQUIRE(static_cast<NodeId>(side_a.size()) == net.node_count(),
              "cut_capacity: indicator size mismatch");
  Cap total = 0;
  for (ArcId a = 0; a < net.arc_count(); a += 2) {
    const NodeId u = net.from(a);
    const NodeId v = net.to(a);
    if (side_a[static_cast<std::size_t>(u)] &&
        !side_a[static_cast<std::size_t>(v)]) {
      total += net.capacity(a);
    }
  }
  return total;
}

CutLocation cut_location(const FlowNetwork& net, NodeId source, NodeId sink) {
  const CutSides sides = min_cut_sides(net, source, sink);
  const auto n = net.node_count();
  CutLocation loc;

  auto count_side = [n](const std::vector<char>& side) {
    NodeId c = 0;
    for (NodeId v = 0; v < n; ++v) c += side[static_cast<std::size_t>(v)] ? 1 : 0;
    return c;
  };
  const NodeId min_count = count_side(sides.min_side);
  const NodeId max_count = count_side(sides.max_side);

  loc.at_source = (min_count == 1);    // A_min == {source}
  loc.at_sink = (max_count == n - 1);  // B_max == {sink}
  // Every min cut's source side lies between A_min and A_max; the cut at
  // the source is unique iff the extremes coincide there.
  loc.unique_at_source = loc.at_source && (max_count == 1);

  // An internal min cut exists iff the residual closure of A_min together
  // with some real node x stays clear of the sink while leaving a real
  // node on the far side: that closure is then the source side of a min
  // cut (no residual arc leaves a reachability-closed set).
  for (NodeId x = 0; x < n && !loc.internal; ++x) {
    if (x == source || x == sink) continue;
    if (!sides.max_side[static_cast<std::size_t>(x)]) continue;  // closure
                                                                 // would hit
                                                                 // the sink
    std::vector<char> seed = sides.min_side;
    if (seed[static_cast<std::size_t>(x)]) {
      // x already on the minimal source side: A_min itself is internal if
      // it also leaves a real node outside.
      if (min_count > 1 && n - min_count > 1) loc.internal = true;
      continue;
    }
    seed[static_cast<std::size_t>(x)] = 1;
    const std::vector<char> closure = residual_closure(net, std::move(seed));
    if (closure[static_cast<std::size_t>(sink)]) continue;
    const NodeId closure_count = count_side(closure);
    if (closure_count > 1 && n - closure_count > 1) loc.internal = true;
  }
  return loc;
}

}  // namespace lgg::flow
