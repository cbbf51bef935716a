// Fault injection: the one component that decides which links are up.
// Node crashes, sink outages, source surges, Byzantine declaration
// corruption, scheduled topology churn and random edge churn, driven by a
// scriptable, seed-deterministic schedule.
//
// The paper's stability claims (Lemma 1, Conjectures 1/4) are adversarial:
// P_t stays bounded under *every* silent-loss pattern and, conjecturally,
// under dynamic edge sets.  The loss component drops packets on links;
// this module takes links and whole nodes out so experiments can measure
// the potential's recovery after failures:
//
//   * crash (wipe)   — the node goes down and its queue is destroyed; the
//                      wiped packets are accounted as `crash_wiped` in the
//                      step stats so the conservation audit still balances.
//   * crash (freeze) — the node goes down but keeps its packets; they thaw
//                      when it recovers.
//   * sink outage    — a window where out(d) behaves as 0 (no extraction).
//   * source surge   — a window where a source injects `extra` packets per
//                      step on top of its arrival process.
//   * byzantine      — the node declares a fixed queue value to neighbours,
//                      violating Definition 7's R-bound whenever it differs
//                      from the true queue above R.
//
// While a node is down every incident link is inactive, it neither injects
// nor extracts, and no transmissions touch it.
//
// On top of the windowed faults, the schedule can script *churn*: live,
// instantaneous topology and rate mutations that model nodes and links
// joining and leaving the network (Conjecture 4's dynamic edge sets made
// concrete):
//
//   * edge_remove / edge_add — sets or clears an edge's scheduled-removed
//                      bit; a removed edge stays down until a matching
//                      edge_add clears it.
//   * node_leave     — the node departs: its spec is parked (it stops
//                      being a source/sink), its queue is wiped (accounted
//                      as crash_wiped so conservation balances), and its
//                      incident edges go down.
//   * node_join      — a departed node re-enters with its parked spec.
//   * nudge          — in(v)/out(v) move by din/dout, clamped at 0.
//
// Each churn event fires exactly once, at step `at`, draws from no RNG,
// and reports what changed through a TopologyDelta so downstream consumers
// (admission certificates, telemetry) can react in O(|delta|).
//
// Random edge churn (`random_churn`) is memoryless: every step each
// unprotected edge whose random-off bit is clear sets it with probability
// p_off, and each one whose bit is set clears it with probability p_on.
// Its flips go into the same TopologyDelta.  The random-off bit and the
// scheduled-removed bit are kept apart, so an edge_add never revives an
// edge random churn holds down, nor the other way round.
//
// Liveness rule: an edge is live iff neither of its two bits is set and
// neither endpoint is down or departed.  live_mask() writes that rule into
// the simulator's one edge mask; the simulator calls it only on steps
// where a bit or the down-set changed.
//
// Determinism: scheduled events are pure functions of the step index,
// random edge churn draws from the simulator's addressed stream of the
// step's dynamics phase (edges in id order), and the random-crash process
// draws from the injector's own RNG (seeded at construction), so a faulted
// run is a pure function of (network, components, seed, schedule,
// fault_seed) — and the injector's state checkpoints alongside the
// simulator's (save_state/load_state; the random-off bits travel in the
// checkpoint's edge-mask slot).
#pragma once

#include <functional>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/sd_network.hpp"
#include "core/topology_delta.hpp"

namespace lgg::obs {
class Counter;
class MetricRegistry;
}  // namespace lgg::obs

namespace lgg::core {

enum class FaultKind : std::uint8_t {
  kCrash,        ///< node down for the window; mode decides wipe vs freeze
  kSinkOutage,   ///< out(node) = 0 for the window
  kSourceSurge,  ///< node injects `extra` additional packets per step
  kByzantine,    ///< node declares `declare` regardless of its true queue
  // Churn events below are instantaneous (fire once, at step `at`).
  kEdgeRemove,     ///< edge leaves the live topology until re-added
  kEdgeAdd,        ///< a removed edge re-enters the live topology
  kNodeLeave,      ///< node departs: spec parked, queue wiped, links cut
  kNodeJoin,       ///< a departed node re-enters with its parked spec
  kCapacityNudge,  ///< in(node) += din, out(node) += dout, clamped at 0
};

/// True for the instantaneous topology-churn kinds.
[[nodiscard]] constexpr bool is_churn(FaultKind kind) {
  return kind == FaultKind::kEdgeRemove || kind == FaultKind::kEdgeAdd ||
         kind == FaultKind::kNodeLeave || kind == FaultKind::kNodeJoin ||
         kind == FaultKind::kCapacityNudge;
}

enum class CrashMode : std::uint8_t {
  kWipe,    ///< queue destroyed on crash (counted as crash_wiped)
  kFreeze,  ///< queue kept; reappears on recovery
};

[[nodiscard]] std::string_view to_string(FaultKind kind);
[[nodiscard]] std::string_view to_string(CrashMode mode);

/// One scheduled fault.  For windowed kinds the window is [at, at +
/// duration); duration < 0 means "until the end of the run".  Churn kinds
/// (is_churn) are instantaneous: they fire exactly once at step `at` and
/// ignore `duration`.
struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  NodeId node = kInvalidNode;
  TimeStep at = 0;
  TimeStep duration = -1;
  CrashMode mode = CrashMode::kWipe;
  PacketCount extra = 0;     ///< surge packets per step (kSourceSurge)
  PacketCount declare = 0;   ///< declared queue value (kByzantine)
  EdgeId edge = kInvalidEdge;  ///< target edge (kEdgeRemove / kEdgeAdd)
  Cap din = 0;               ///< in-rate delta (kCapacityNudge)
  Cap dout = 0;              ///< out-rate delta (kCapacityNudge)
};

/// Memoryless random crashes on top of the scheduled events: each up node
/// independently crashes with probability `p_per_step`, staying down for a
/// uniform duration in [min_down, max_down].
struct RandomCrashConfig {
  double p_per_step = 0.0;
  TimeStep min_down = 1;
  TimeStep max_down = 1;
  CrashMode mode = CrashMode::kWipe;
};

/// Memoryless random edge churn (see the header comment).  Protected
/// edges take no draw and are never held down, so protecting the edges of
/// a feasible flow keeps the network feasible at every instant — the
/// precondition of Conjecture 4.
struct RandomChurnConfig {
  double p_off = 0.0;
  double p_on = 0.0;
  std::vector<EdgeId> protected_edges;
};

class FaultSchedule {
 public:
  FaultSchedule& add(FaultEvent event);
  FaultSchedule& set_random_crashes(RandomCrashConfig config);
  FaultSchedule& set_random_churn(RandomChurnConfig config);

  [[nodiscard]] const std::vector<FaultEvent>& events() const {
    return events_;
  }
  [[nodiscard]] const RandomCrashConfig& random_crashes() const {
    return random_;
  }
  /// Null unless set_random_churn was called.
  [[nodiscard]] const RandomChurnConfig* random_churn() const {
    return churn_.has_value() ? &*churn_ : nullptr;
  }
  [[nodiscard]] bool empty() const {
    return events_.empty() && random_.p_per_step <= 0.0 && !churn_;
  }

  [[nodiscard]] bool has_churn_events() const { return churn_events_ > 0; }

  /// Throws ContractViolation if any event or protected edge references a
  /// node or edge outside `net`, surges a non-source, outages a non-sink,
  /// or a random-churn probability lies outside [0, 1].
  void validate(const SdNetwork& net) const;

  /// Everything validate() checks, plus structural sanity the tools enforce
  /// before a run starts (exit code 2 on failure): no duplicate events, no
  /// overlapping scheduled crash windows on one node, every node_join
  /// strictly after a matching node_leave, and every edge_add strictly
  /// after a matching edge_remove.
  void validate_strict(const SdNetwork& net) const;

 private:
  std::vector<FaultEvent> events_;
  RandomCrashConfig random_;
  std::optional<RandomChurnConfig> churn_;
  std::size_t churn_events_ = 0;  ///< count of is_churn entries in events_
};

/// Parses the `--faults` spec grammar: semicolon-separated clauses
///
///   crash:node=3,at=100,for=50,mode=wipe|freeze
///   sink_outage:node=5,at=200,for=30
///   surge:node=0,at=10,for=5,extra=4
///   byzantine:node=2,at=0,for=1000,declare=0
///   random_crashes:p=0.001,down=20..50,mode=freeze
///   random_churn:off=0.02,on=0.3,protect=0/3/9
///   edge_remove:edge=7,at=100
///   edge_add:edge=7,at=250
///   node_leave:node=3,at=100
///   node_join:node=3,at=400
///   nudge:node=2,at=50,din=1,dout=-1
///
/// `for` defaults to -1 (until the end of the run) and is rejected on the
/// instantaneous churn clauses.  random_churn's `protect` lists edge ids
/// separated by '/' and is optional.  Throws ContractViolation with a
/// one-line description on any malformed clause.
FaultSchedule parse_fault_spec(const std::string& spec);

/// Round-trips a schedule back to the spec grammar (crash dumps, logs):
/// parse_fault_spec(to_string(s)) rebuilds every schedule the parser
/// accepts.
std::string to_string(const FaultSchedule& schedule);

/// Per-step driver the Simulator consults; owns the fault RNG stream.
class FaultInjector {
 public:
  explicit FaultInjector(FaultSchedule schedule, std::uint64_t seed = 0xFA);

  /// Applies start-of-step transitions for step t (monotonically increasing
  /// across calls except after load_state).  `wipe` is invoked once for
  /// every node whose queue must be destroyed by a wipe-mode crash.
  /// Returns true when the down set changed at this step.  Costs
  /// O(log events + events starting at t + windowed events), plus O(n)
  /// while a node is down or a crash is pending.
  bool begin_step(TimeStep t, const SdNetwork& net,
                  const std::function<void(NodeId)>& wipe);

  /// Fires the churn events scheduled at step t, mutating `net`'s specs
  /// (node_leave/node_join/nudge) and the injector's edge/departure
  /// overlays, and appends every mutation to `delta` (which the caller
  /// clears).  `wipe` destroys a departing node's queue, accounted exactly
  /// like a wipe-mode crash.  Call before begin_step(t, ...) so the step's
  /// windowed effects see the post-churn roles.  Returns true if anything
  /// changed.  Draws from no RNG; costs O(log events + events at t).
  bool apply_churn(TimeStep t, SdNetwork& net, TopologyDelta& delta,
                   const std::function<void(NodeId)>& wipe);

  /// One random-churn round for the current step: draws from `rng` (the
  /// simulator's dynamics-phase stream) per unprotected edge in id order,
  /// re-raises any protected edge held down, and appends every flip to
  /// `delta`.  Call before apply_churn.  Returns true if a bit flipped.
  bool apply_random_churn(Rng& rng, TopologyDelta& delta);

  /// The scheduled-removed bit (edge_remove / edge_add).
  [[nodiscard]] bool edge_removed(EdgeId e) const;
  /// The random-off bit (random_churn).
  [[nodiscard]] bool edge_random_off(EdgeId e) const;
  [[nodiscard]] bool node_departed(NodeId v) const;

  // Queries about the step most recently passed to begin_step.
  [[nodiscard]] bool node_down(NodeId v) const;
  [[nodiscard]] bool sink_out(NodeId v) const;
  [[nodiscard]] PacketCount surge_extra(NodeId v) const;
  /// Sources with an active surge window this step (schedule order,
  /// duplicate-free).  The sparse injection path unions these with the
  /// arrival process's active-source set so a surge is never missed when
  /// the arrival process itself skips the node.
  [[nodiscard]] const std::vector<NodeId>& surging_sources() const {
    return surge_nodes_;
  }
  /// Nodes whose down-state flipped at the most recent begin_step, in
  /// node-id order (telemetry: flight-recorder fault-transition events).
  [[nodiscard]] const std::vector<NodeId>& went_down() const {
    return went_down_;
  }
  [[nodiscard]] const std::vector<NodeId>& came_up() const {
    return came_up_;
  }
  /// Byzantine nodes active this step with their corrupted declarations.
  [[nodiscard]] const std::vector<std::pair<NodeId, PacketCount>>&
  byzantine_declarations() const {
    return byz_active_;
  }

  /// Writes the liveness rule into every slot of `mask`: an edge is live
  /// iff neither its random-off nor its scheduled-removed bit is set and
  /// neither endpoint is down or departed.
  void live_mask(const SdNetwork& net, graph::EdgeMask& mask) const;

  [[nodiscard]] const FaultSchedule& schedule() const { return schedule_; }

  /// Sizes the per-node and per-edge state to `net` (Simulator::set_faults
  /// calls it).  load_state rejects ids outside the sized network.
  void size_to(const SdNetwork& net);

  // Checkpoint support: the down-state, the fault RNG stream and the churn
  // overlays are the cross-step state in the blob (windowed effects are
  // recomputed from the schedule each begin_step).  load_state throws
  // std::runtime_error on a node or edge id outside the network or a
  // negative parked spec, and may leave the state partly loaded; it clears
  // the random-off bits, which the simulator's checkpoint carries in its
  // edge-mask slot and hands back through set_random_off.
  void save_state(std::ostream& os) const;
  void load_state(std::istream& is);
  /// Sets edge e's random-off bit (checkpoint restore).
  void set_random_off(EdgeId e, bool off);

  /// Registers faults.crashes / faults.recoveries counters (bumped on each
  /// down-state transition) and faults.churn (bumped once per applied churn
  /// mutation, random edge flips included).
  void register_metrics(obs::MetricRegistry& registry);

 private:
  void ensure_sized(NodeId n);
  void ensure_edges(EdgeId n);

  /// The events of `starts` (indices into the schedule, sorted by step)
  /// that start at step t, in schedule order.
  [[nodiscard]] std::span<const std::uint32_t> starting_at(
      const std::vector<std::uint32_t>& starts, TimeStep t) const;

  FaultSchedule schedule_;
  Rng rng_;

  // Derived from the schedule at construction, never checkpointed: the
  // schedule is fixed for the injector's life and the lookups keep no
  // cursor, so a restore needs nothing rebuilt.  Churn and crash events
  // by start step (stable, so ties keep schedule order), and the windowed
  // kinds begin_step rescans each step (outages, surges, Byzantine), in
  // schedule order.
  std::vector<std::uint32_t> churn_starts_;
  std::vector<std::uint32_t> crash_starts_;
  std::vector<std::uint32_t> windowed_;

  // Per-node cross-step state: 0 = up, otherwise down until this step
  // (exclusive); kForever for open-ended crashes.
  std::vector<TimeStep> down_until_;
  std::vector<char> down_now_;
  // Derived from the two above (rebuilt by load_state): nodes with
  // down_now_ set, and the largest down_until_.  While the first is 0 and
  // the second is at most t, no node is down or can go down at t, so
  // begin_step skips its O(n) down-set refresh.
  std::size_t down_count_ = 0;
  TimeStep latest_down_until_ = 0;

  // Per-edge reason bits (cross-step, checkpointed): kRandomOff from
  // random churn, kScheduledOff from edge_remove.  Then nodes currently
  // departed and the spec each departed node re-enters with on node_join.
  static constexpr std::uint8_t kRandomOff = 1;
  static constexpr std::uint8_t kScheduledOff = 2;
  std::vector<std::uint8_t> edge_off_;
  std::vector<char> protected_;  // from the schedule's random churn
  std::vector<char> departed_;
  std::vector<NodeSpec> parked_specs_;
  std::size_t removed_edge_count_ = 0;
  std::size_t departed_count_ = 0;

  // Per-step recomputed state (begin_step).
  std::vector<PacketCount> surge_;             // dense, reset via surge_nodes_
  std::vector<NodeId> surge_nodes_;
  std::vector<char> sink_out_;                 // dense, reset via out_nodes_
  std::vector<NodeId> out_nodes_;
  std::vector<std::pair<NodeId, PacketCount>> byz_active_;
  std::vector<NodeId> went_down_;              // transitions at this step
  std::vector<NodeId> came_up_;

  obs::Counter* crashes_counter_ = nullptr;
  obs::Counter* recoveries_counter_ = nullptr;
  obs::Counter* churn_counter_ = nullptr;
};

}  // namespace lgg::core
