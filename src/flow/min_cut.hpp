// Minimum-cut extraction from a solved flow network.
//
// After a maximum flow, the family of minimum cuts forms a lattice; its
// extreme elements are recovered from residual reachability:
//   * smallest source side  A_min = { v reachable from s in the residual }
//   * largest source side   A_max = V \ { v that can reach t in the residual }
// Section V of the paper branches on where minimum cuts sit (only at s*,
// also at d*, or strictly inside G) — cut_location() computes exactly that
// classification.
#pragma once

#include <vector>

#include "flow/flow_network.hpp"

namespace lgg::flow {

struct CutSides {
  /// min_side[v] != 0 iff v is on the source side of the smallest min cut.
  std::vector<char> min_side;
  /// max_side[v] != 0 iff v is on the source side of the largest min cut.
  std::vector<char> max_side;
};

/// The nodes reachable from the marked `seeds` along arcs with positive
/// residual, seeds included.
std::vector<char> residual_closure(const FlowNetwork& net,
                                   std::vector<char> seeds);

/// Requires `net` to hold a maximum s-t flow.
CutSides min_cut_sides(const FlowNetwork& net, NodeId source, NodeId sink);

/// Capacity of the cut defined by the indicator `side_a` (arcs from A to B).
Cap cut_capacity(const FlowNetwork& net, const std::vector<char>& side_a);

/// Where minimum cuts sit relative to the terminals (Section V cases).
struct CutLocation {
  /// The smallest min cut is ({source}, rest) — paper case 1 when unique.
  bool at_source = false;
  /// The largest min cut is (rest, {sink}) — paper case 2.
  bool at_sink = false;
  /// Some minimum cut has non-terminal nodes on both sides — paper case 3.
  bool internal = false;
  /// at_source && the cut at the source is the *unique* min cut.
  bool unique_at_source = false;
};

CutLocation cut_location(const FlowNetwork& net, NodeId source, NodeId sink);

}  // namespace lgg::flow
