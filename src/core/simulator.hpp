// The synchronous simulation engine of Section II.
//
// One step executes, in order:
//   1. faults and churn change which links are up             (Conj. 4)
//   2. sources inject packets per the arrival process         (in_t <= in)
//   3. nodes declare queue lengths                            (Def. 7 (ii))
//   4. the routing protocol proposes transmissions            (Algorithm 1)
//   5. the interference scheduler filters them                (Conj. 5)
//   6. link-conflict resolution (two opposite sends on one link can only be
//      scheduled when a node lies or the protocol is not downhill-only; the
//      loser's packet stays queued)
//   7. transmissions fire: each packet leaves its sender; the loss model
//      decides which ones arrive
//   8. sinks extract packets                                  (Def. 7 (i))
//
// Every stochastic choice draws from an *addressed* stream keyed by
// (seed, step, phase, node) — common/rng.hpp draw_key — so a run is a pure
// function of (network, components, seed) and, because no draw's value
// depends on how the node loops are grouped, the graph-partitioned shard
// engine (core/parallel_step.hpp, enable_sharding) reproduces the serial
// trajectory bitwise for every shard and thread count.
#pragma once

#include <memory>

#include "core/admission.hpp"
#include "core/arrival.hpp"
#include "core/faults.hpp"
#include "core/generalized.hpp"
#include "core/interference.hpp"
#include "core/loss.hpp"
#include "core/lgg_protocol.hpp"
#include "core/metrics.hpp"
#include "core/profiler.hpp"
#include "core/protocol.hpp"
#include "obs/telemetry.hpp"

namespace lgg::core {

namespace detail {
#if defined(__SIZEOF_INT128__)
/// Exact accumulator for Σq²: queue values are 63-bit, so squares need up
/// to 126 bits.  Unsigned so wraparound deltas stay well defined.
__extension__ typedef unsigned __int128 QuadAccum;
#else
typedef std::uint64_t QuadAccum;
#endif

[[nodiscard]] inline QuadAccum square(PacketCount q) {
  const auto u = static_cast<QuadAccum>(static_cast<std::uint64_t>(q));
  return u * u;
}

/// ΔP of one queue mutation q → q+δ: δ(2q+δ) with a single multiply, in
/// the accumulator's modular arithmetic (δ sign-extends), so it equals
/// square(q+δ) − square(q) for every non-negative q and q+δ.  Its low 64
/// bits are the wraparound-safe drift term DriftAttributor::record takes.
[[nodiscard]] inline QuadAccum square_delta(PacketCount q, PacketCount delta) {
  const auto ud = static_cast<QuadAccum>(delta);
  return ud * (2 * static_cast<QuadAccum>(q) + ud);
}
}  // namespace detail

/// Reusable per-edge scratch for link-conflict resolution.  Entries are
/// epoch-stamped: bumping `current` invalidates every slot at once, so a
/// resolution pass costs O(kept transmissions), not O(edges).
struct LinkConflictScratch {
  std::vector<std::uint32_t> stamp;      ///< epoch that last touched the edge
  std::vector<std::uint32_t> first_use;  ///< kept tx index for that epoch
  std::uint32_t current = 0;
};

/// Resolves both-directions-on-one-link conflicts over the kept
/// transmissions: the link carries the transmission realizing the larger
/// true queue drop (ties: lower from-id), the loser's keep flag is cleared.
/// Returns the number of transmissions dropped.  Exposed as a free function
/// so tests can fuzz it against a reference implementation.
std::size_t resolve_link_conflicts(std::span<const Transmission> txs,
                                   std::span<const PacketCount> queue,
                                   std::vector<char>& keep,
                                   LinkConflictScratch& scratch);

/// What "q_t(d)" means in the sink-extraction rule min{out(d), q_t(d)}.
enum class ExtractionBasis {
  /// Post-transmission queue (physical: a sink extracts what it holds).
  kPostTransmit,
  /// Step-start (post-injection) queue, clamped to the current content —
  /// the paper's literal reading.
  kSnapshot,
};

/// Resolution when both directions of one link are scheduled (impossible
/// for LGG without lying declarations, routine for gradient-free baselines
/// such as random walk).
enum class LinkConflictPolicy {
  /// The link carries the transmission with the larger queue drop; the
  /// loser's packet stays in its queue ("each link can transmit at most 1
  /// packet").
  kDropLower,
  /// Both fire (interpret the link as full-duplex).
  kAllowBoth,
};

/// Everything that happened inside one step, exposed to a StepObserver.
/// Spans are only valid during the on_step call.
struct StepRecord {
  const SdNetwork* net = nullptr;
  TimeStep t = 0;
  std::span<const PacketCount> before_injection;  ///< x_t
  std::span<const PacketCount> at_selection;      ///< q_t (post-injection)
  std::span<const PacketCount> declared;          ///< q'_t
  std::span<const PacketCount> after_step;        ///< x_{t+1}
  std::span<const Transmission> transmissions;    ///< as proposed
  std::span<const char> kept;   ///< fired (post scheduler + link conflict)
  std::span<const char> lost;   ///< loss-model verdicts (only if kept)
  StepStats stats;
};

/// Per-step instrumentation hook (Lyapunov audits, tracing, ...).
class StepObserver {
 public:
  virtual ~StepObserver() = default;
  virtual void on_step(const StepRecord& record) = 0;
};

struct SimulatorOptions {
  ExtractionBasis extraction_basis = ExtractionBasis::kPostTransmit;
  LinkConflictPolicy link_conflict = LinkConflictPolicy::kDropLower;
  ExtractionPolicy extraction_policy = ExtractionPolicy::kEager;
  DeclarationPolicy declaration_policy = DeclarationPolicy::kTruthful;
  /// Validate the protocol's transmission contract every step (tests).
  bool check_contract = false;
  std::uint64_t seed = 0x00c0ffee00c0ffeeULL;
};

class ParallelStepEngine;

class Simulator {
 public:
  /// The protocol defaults to LGG.
  Simulator(SdNetwork net, SimulatorOptions options = {},
            std::unique_ptr<RoutingProtocol> protocol = nullptr);
  ~Simulator();

  /// Switches step() to the graph-partitioned shard engine: nodes are
  /// split into `shards` balanced regions (graph/partition.hpp) and
  /// selection runs shard-parallel on an internal thread pool (`threads`
  /// == 0 picks min(shards, hardware)) for protocols that select locally
  /// (RoutingProtocol::local_selection); every other phase runs as in the
  /// serial engine.
  /// The trajectory — queues, stats, drift attribution, telemetry bytes,
  /// checkpoint bytes — is bitwise identical to the serial engine for
  /// every (shards, threads) choice.  May be called between steps; the
  /// partition derives from the base graph only, so edge churn and
  /// checkpoint restores compose freely.
  void enable_sharding(std::uint32_t shards, std::size_t threads = 0);
  /// Returns step() to the serial engine.
  void disable_sharding();
  /// Shards of the active engine (1 when serial).
  [[nodiscard]] std::uint32_t shard_count() const;

  // Optional components (defaults: exact arrivals, no loss, no
  // interference, no faults: every link up).
  void set_arrival(std::unique_ptr<ArrivalProcess> arrival);
  void set_loss(std::unique_ptr<LossModel> loss);
  void set_scheduler(std::unique_ptr<Scheduler> scheduler);

  /// Installs a fault injector (node crashes, sink outages, source surges,
  /// Byzantine declarations, scheduled and random edge churn —
  /// core/faults.hpp), the one component that decides which links are up.
  /// The schedule is validated against the network and the edge mask is
  /// rebuilt from the injector's state; pass nullptr to remove (every link
  /// up again).
  void set_faults(std::unique_ptr<FaultInjector> faults);
  [[nodiscard]] const FaultInjector* faults() const { return faults_.get(); }

  /// What the most recent step's random and scheduled churn mutated
  /// (empty on steps without churn).  Valid until the next step starts.
  [[nodiscard]] const TopologyDelta& last_churn() const {
    return churn_delta_;
  }
  /// Bumped once per link-state source that changed at a step (random
  /// churn, scheduled churn, the down-set); keys protocol caches and
  /// certificate staleness.
  [[nodiscard]] std::uint64_t topology_version() const {
    return topology_version_;
  }

  /// Installs an instrumentation hook called at the end of every step.
  /// Not owned; pass nullptr to detach.  Enables extra per-step queue
  /// snapshots (small overhead).
  void set_observer(StepObserver* observer) { observer_ = observer; }

  /// Attaches a per-phase profiler (core/profiler.hpp): wall and CPU time
  /// plus work counters for the 8 step phases and, when the profiler keeps
  /// span rings, one span per phase plus one per shard body of a sharded
  /// selection — exportable as a Chrome trace.  Not owned; pass nullptr
  /// to detach.  Costs two clock reads per phase while attached, one null
  /// test per phase when detached.  Timing reads clocks only, so attaching
  /// a profiler never perturbs the trajectory or the telemetry bytes.
  void set_profiler(StepProfiler* profiler);

  /// Attaches a telemetry session (obs/telemetry.hpp): metric registry,
  /// per-node drift attribution, flight recorder, JSONL snapshots.  Not
  /// owned; pass nullptr to detach.  Binds the session to this network
  /// and registers component metrics (protocol, scheduler, faults).  The
  /// step pays one branch while the session is not armed() — drift
  /// attribution only runs when a sink, flight recorder or hotspot
  /// tracker is actually listening.
  void set_telemetry(obs::Telemetry* telemetry);
  [[nodiscard]] obs::Telemetry* telemetry() const { return telemetry_; }

  /// Attaches an admission controller (core/admission.hpp) consulted before
  /// the injection phase: it sees the pre-injection potential and may shed
  /// part of each source's offered packets.  Not owned; pass nullptr to
  /// detach.  Admission state is part of the checkpoint (strict presence:
  /// governed checkpoints only restore into governed simulators).
  void set_admission(AdmissionController* admission);
  [[nodiscard]] AdmissionController* admission() const { return admission_; }

  [[nodiscard]] const SdNetwork& network() const { return net_; }
  [[nodiscard]] const RoutingProtocol& protocol() const { return *protocol_; }
  /// The links every phase of a step routes against (FaultInjector's
  /// liveness rule; all up without an injector).
  [[nodiscard]] const graph::EdgeMask& edge_mask() const { return mask_; }
  [[nodiscard]] TimeStep now() const { return t_; }

  [[nodiscard]] std::span<const PacketCount> queues() const {
    return queue_;
  }
  /// Seeds an initial queue (e.g. the inflated starting states of the
  /// Property-2 drift experiments).  Only allowed before the first step.
  void set_initial_queue(NodeId v, PacketCount q);

  // Σq and Σq² are maintained incrementally by every queue mutation, so
  // both accessors are O(1); in debug builds each step cross-checks them
  // against a full scan.  max_queue() still scans (a decrement at the
  // argmax cannot be repaired in O(1)).

  /// Σ_v q_t(v), O(1).
  [[nodiscard]] PacketCount total_packets() const { return sum_q_; }
  /// P_t = Σ_v q_t(v)² (Definition 1), O(1); double to survive divergence.
  [[nodiscard]] double network_state() const {
    return static_cast<double>(sum_sq_);
  }
  [[nodiscard]] PacketCount max_queue() const;

  /// Sources visited by the most recent injection phase.  Dense arrival
  /// processes visit every source; a process publishing active_sources()
  /// is visited sparsely, so this stays O(active sources + surging
  /// sources) per step on million-source topologies.  Diagnostic only —
  /// not part of the checkpoint.
  [[nodiscard]] std::uint64_t last_injection_visits() const {
    return last_injection_visits_;
  }

  [[nodiscard]] const CumulativeStats& cumulative() const { return totals_; }

  /// Conservation audit: initial + injected − extracted − lost == stored.
  [[nodiscard]] bool conserves_packets() const;

  /// Executes one synchronous step and returns its statistics.
  StepStats step();

  /// Runs `steps` steps; if `recorder` is given, observes after each step.
  void run(TimeStep steps, MetricsRecorder* recorder = nullptr);

  // Crash-safe checkpointing (implemented in core/checkpoint.cpp).  A
  // restored simulator continues bitwise-identically to the uninterrupted
  // run, provided it is reassembled with the same network and components
  // before restore_checkpoint is called.  A restore that throws
  // CheckpointError leaves the simulator exactly as it was.
  void save_checkpoint(std::ostream& os) const;
  void restore_checkpoint(std::istream& is);

 private:
  /// The single funnel for queue mutations: updates the queue and the
  /// running Σq / Σq² so total_packets()/network_state() stay O(1).  When
  /// drift attribution is live (telemetry armed), the mutation's exact ΔP
  /// contribution δ(2q+δ) is recorded against (node, cause); computed in
  /// unsigned 64-bit (wraparound-safe, exact whenever the true values fit
  /// in int64 — the same modular discipline as the Σq² accumulator).
  void apply_queue_delta(NodeId v, PacketCount delta, obs::DriftCause cause) {
    auto& q = queue_[static_cast<std::size_t>(v)];
    const detail::QuadAccum dp = detail::square_delta(q, delta);
    if (drift_ != nullptr) {
      drift_->record(v, cause, static_cast<std::uint64_t>(dp));
    }
    sum_sq_ += dp;
    sum_q_ += delta;
    q += delta;
  }

  /// Validates this step's proposals when options().check_contract is set.
  void check_contract(const StepView& view) {
    if (!options_.check_contract) return;
    const std::string err =
        check_transmission_contract(view, txs_, contract_scratch_);
    LGG_REQUIRE(err.empty(), "protocol contract violated: " + err);
  }

  /// Registers component metrics into the attached telemetry session.
  void register_component_metrics();

  /// Debug-only full-scan cross-check of the incremental counters.
  void audit_counters() const;

  // Phase helpers of step(), the one step skeleton of both engines.  All
  // of them assume they are called in pipeline order within one step.

  /// The Rng owning the addressed stream of (this step, phase, node).
  [[nodiscard]] Rng phase_rng(StepPhase phase,
                              std::uint64_t node = kGlobalDraw) const {
    return draw_rng(options_.seed, static_cast<std::uint64_t>(t_),
                    static_cast<std::uint64_t>(phase), node);
  }

  /// Arms telemetry/drift for this step; returns the session or nullptr.
  obs::Telemetry* arm_telemetry();
  /// Phase 1: random churn, scheduled churn and fault transitions; rebuilds
  /// mask_ on steps where any of them changed.
  void phase_dynamics(StepStats& stats, obs::Telemetry* tel);
  /// Phase 2 prologue: the arrival process's once-per-step serial hook
  /// (core/arrival.hpp ArrivalContext).  Both engines call it exactly once
  /// before any packets() call, so stateful/adversarial processes stay
  /// bitwise engine-independent.
  void arrival_begin_step();
  /// Phase 2, for both engines.  Visits every source, or — when the
  /// arrival process publishes a sparse active-source set — only the
  /// active and surging sources.
  void phase_injection(StepStats& stats, obs::Telemetry* tel);
  /// Phase 3: declarations; returns the view (may alias queue_) and adds
  /// the per-node evaluations performed to `work`.
  std::span<const PacketCount> phase_declarations(std::uint64_t& work);
  /// Phase 1: flight-recorder events for this step's churn mutations.
  void record_churn_flight_events(obs::Telemetry* tel);
  /// Phase 7, both engines: applies the kept transmissions, adds sent,
  /// lost and delivered to `stats` and returns the sent count.  kArmed
  /// (drift_ non-null) records each loss, stages the forwarding nodes and
  /// adds the phase's forwarding sum; the per-node forwarding rows are
  /// settled from snapshot_ in the epilogue, or here if a send throws.
  template <bool kArmed>
  std::uint64_t apply_kept(StepStats& stats);
  /// Phase 7 tail: per-transmission flight-recorder events.
  void record_tx_flight_events(obs::Telemetry* tel);
  /// Common step tail: cumulative stats, counter audit, telemetry sample,
  /// observer callback, step counter.
  void step_epilogue(StepStats& stats, obs::Telemetry* tel,
                     std::span<const PacketCount> declared_view);

  SdNetwork net_;
  SimulatorOptions options_;
  std::unique_ptr<RoutingProtocol> protocol_;
  std::unique_ptr<ArrivalProcess> arrival_;
  std::unique_ptr<LossModel> loss_;
  std::unique_ptr<Scheduler> scheduler_;
  std::unique_ptr<FaultInjector> faults_;

  graph::CsrIncidence incidence_;
  graph::EdgeMask mask_;  // rebuilt by phase_dynamics on change steps only

  // Non-null while sharding is enabled; owns the partition, thread pool,
  // and per-shard scratch.  Holds no cross-step trajectory state, so
  // enabling/disabling between steps (or across a checkpoint restore)
  // never perturbs the run.
  std::unique_ptr<ParallelStepEngine> engine_;

  StepObserver* observer_ = nullptr;
  StepProfiler* profiler_ = nullptr;
  obs::Telemetry* telemetry_ = nullptr;
  obs::DriftAttributor* drift_ = nullptr;  // non-null only while armed
  obs::Gauge* topology_gauge_ = nullptr;   // "sim.topology_version"
  AdmissionController* admission_ = nullptr;

  std::vector<PacketCount> queue_;
  std::vector<PacketCount> declared_;
  std::vector<PacketCount> snapshot_;       // q_t: post-injection snapshot
  std::vector<PacketCount> pre_injection_;  // x_t: start-of-step snapshot
  std::vector<Transmission> txs_;     // scratch
  std::vector<char> keep_;            // scratch
  std::vector<char> lost_;            // scratch
  LinkConflictScratch conflict_scratch_;
  ContractScratch contract_scratch_;
  // Per-step (node, wiped packets) pairs for flight-recorder crash events.
  std::vector<std::pair<NodeId, PacketCount>> wiped_scratch_;
  // What this step's random and scheduled churn mutated; cleared at phase
  // 1, consumed by admission control (certificate patching) and telemetry.
  TopologyDelta churn_delta_;

  TimeStep t_ = 0;
  std::uint64_t topology_version_ = 0;
  std::uint64_t last_injection_visits_ = 0;
  PacketCount initial_total_ = 0;
  PacketCount sum_q_ = 0;             // running Σ_v q(v)
  detail::QuadAccum sum_sq_ = 0;      // running Σ_v q(v)²
  CumulativeStats totals_;
};

}  // namespace lgg::core
