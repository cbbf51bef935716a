// The routing-protocol interface shared by LGG and every baseline.
//
// A protocol sees the step-start snapshot (true queues for its own node,
// *declared* queues for neighbours — R-generalized nodes may lie, Def. 7)
// and proposes a set of single-packet transmissions.  The simulator then
// applies interference scheduling, link-conflict resolution (skipped for a
// downhill_only() protocol under truthful declarations), losses, and
// extraction.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/sd_network.hpp"

namespace lgg::obs {
class MetricRegistry;
}  // namespace lgg::obs

namespace lgg::core {

/// One packet moved across one link in one step.
struct Transmission {
  EdgeId edge;
  NodeId from;
  NodeId to;

  friend bool operator==(const Transmission&, const Transmission&) = default;
};

/// Read-only view of the network at the moment transmissions are chosen
/// (after injection).
struct StepView {
  const SdNetwork* net = nullptr;
  const graph::CsrIncidence* incidence = nullptr;
  /// Null when every link is active (the simulator passes null whenever
  /// its routed mask is all-up); every reader must treat null that way.
  const graph::EdgeMask* active = nullptr;
  std::span<const PacketCount> queue;     ///< true queue lengths q_t
  std::span<const PacketCount> declared;  ///< declared queue lengths q'_t
  TimeStep t = 0;
  /// Incremented whenever the active edge set changes; protocols holding
  /// topology-derived caches (distances, flow paths) rekey on it.
  std::uint64_t topology_version = 0;
  /// Master seed for addressed draws (common/rng.hpp draw_key): a protocol
  /// that randomizes per node derives that node's stream from
  /// (draw_seed, t, phase, node) instead of consuming the shared stream,
  /// so its selections are identical under any sharding of the node set.
  std::uint64_t draw_seed = 0;
};

class RoutingProtocol {
 public:
  virtual ~RoutingProtocol() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Appends this step's proposed transmissions to `out` (left non-cleared
  /// so callers can compose).  Contract: per link at most one transmission
  /// per direction, only active links, and for every node u at most
  /// queue[u] transmissions leaving u.
  virtual void select_transmissions(const StepView& view, Rng& rng,
                                    std::vector<Transmission>& out) = 0;

  /// True when selection decomposes into independent per-node work whose
  /// randomness is addressed (StepView::draw_seed) rather than drawn from
  /// the shared stream.  The shard engine runs such protocols via
  /// select_for_nodes on one node range per shard; everything else is
  /// selected serially on the merged view.
  [[nodiscard]] virtual bool local_selection() const { return false; }

  /// True when every proposal u→v has declared(v) < q(u): the protocol
  /// only ever sends strictly downhill.  Under truthful declarations no
  /// link can then carry proposals in both directions (that would need
  /// q(u) > q(v) and q(v) > q(u)), so the simulator skips link-conflict
  /// resolution for it whenever the declarations are the true queues.
  /// Debug builds still run the resolver there and assert that it drops
  /// nothing.  Default: false (no claim).
  [[nodiscard]] virtual bool downhill_only() const { return false; }

  /// Selection restricted to `nodes` (ascending node ids).  Appends the
  /// transmissions of exactly those senders to `out`, grouped per node in
  /// the order given, and returns the number of active nodes (nodes that
  /// held packets) — the work counter select_transmissions would have
  /// accumulated for them.  Must be thread-safe across disjoint node sets
  /// (no shared mutable scratch) and must not touch protocol metrics; the
  /// caller folds the returned counts via note_selection_work.  Only
  /// meaningful when local_selection() is true.
  virtual std::uint64_t select_for_nodes(const StepView&,
                                         std::span<const NodeId>,
                                         std::vector<Transmission>&) {
    return 0;
  }

  /// Folds a per-shard active-node count back into protocol metrics after
  /// a parallel selection (called once per step, deterministic total).
  virtual void note_selection_work(std::uint64_t) {}

  /// Drops protocol-internal caches (called when the simulator is reset).
  virtual void reset() {}

  /// Sizes per-node state to `net` (the Simulator calls it once, at
  /// construction); load_state rejects state sized for another network.
  /// Default: nothing to size.
  virtual void size_to(const SdNetwork&) {}

  /// Registers protocol-specific metrics (obs/registry.hpp) when telemetry
  /// is attached.  Handles must be null-guarded: a protocol runs without a
  /// registry by default.  Default: nothing to register.
  virtual void register_metrics(obs::MetricRegistry&) {}

  /// Serializes cross-step internal state that a checkpoint must capture
  /// (core/checkpoint.hpp).  Topology-derived caches that rebuild
  /// deterministically without touching the RNG need not be saved — only
  /// state whose loss would change the trajectory (e.g. StaleLgg's
  /// declaration history).  Default: stateless.
  virtual void save_state(std::ostream&) const {}
  /// Restores state written by save_state on an identically configured
  /// instance.  Called after reset().  Default: stateless.
  virtual void load_state(std::istream&) {}
};

/// Reusable scratch for check_transmission_contract.  Each (edge,
/// direction) slot is epoch-stamped, so a check costs O(transmissions +
/// nodes) and allocates nothing once the scratch has grown.
struct ContractScratch {
  std::vector<std::uint32_t> stamp;  ///< epoch that last used (edge, dir)
  std::vector<PacketCount> sent;     ///< per-node sends of this check
  std::uint32_t current = 0;
};

/// Debug/test helper: verifies the protocol contract for a proposed set.
/// Returns an empty string when valid, else a description of the violation.
std::string check_transmission_contract(const StepView& view,
                                        std::span<const Transmission> txs,
                                        ContractScratch& scratch);
/// As above with a call-local scratch.
std::string check_transmission_contract(const StepView& view,
                                        std::span<const Transmission> txs);

}  // namespace lgg::core
