// The per-step churn summary handed from the fault injector to everyone
// downstream (admission control, telemetry).
//
// Random edge churn and scheduled churn events (core/faults.hpp:
// random_churn, edge_add/edge_remove/node_join/node_leave/nudge) mutate
// the live topology and rate declarations at the top of a step.  The injector records exactly what changed into a TopologyDelta so
// consumers can react in O(|delta|) instead of re-deriving the mutation by
// diffing full snapshots: the admission governor patches its warm-started
// feasibility certificate per entry, and the simulator emits one flight
// event per entry.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "core/sd_network.hpp"

namespace lgg::core {

struct TopologyDelta {
  /// One edge whose random-off or scheduled-removed bit flipped this step.
  /// `active` is that source's new state (false for edge_remove and a
  /// random failure, true for edge_add and a random recovery); the edge is
  /// live only if no other source holds it down.
  struct EdgeChange {
    EdgeId edge = kInvalidEdge;
    bool active = true;
  };

  /// One node whose NodeSpec changed this step (capacity nudge, or the
  /// spec wipe/restore of a node_leave/node_join).
  struct RateChange {
    NodeId node = kInvalidNode;
    NodeSpec before;
    NodeSpec after;
  };

  std::vector<EdgeChange> edges;
  std::vector<RateChange> rates;
  std::vector<NodeId> joined;  ///< nodes re-entering via node_join
  std::vector<NodeId> left;    ///< nodes departing via node_leave

  [[nodiscard]] bool empty() const {
    return edges.empty() && rates.empty() && joined.empty() && left.empty();
  }

  void clear() {
    edges.clear();
    rates.clear();
    joined.clear();
    left.clear();
  }
};

}  // namespace lgg::core
