#include "core/simulator.hpp"

#include <algorithm>
#include <limits>

#include "core/parallel_step.hpp"

namespace lgg::core {

Simulator::Simulator(SdNetwork net, SimulatorOptions options,
                     std::unique_ptr<RoutingProtocol> protocol)
    : net_(std::move(net)),
      options_(options),
      protocol_(protocol ? std::move(protocol)
                         : std::make_unique<LggProtocol>()),
      arrival_(std::make_unique<ExactArrival>()),
      loss_(std::make_unique<NoLoss>()),
      scheduler_(std::make_unique<NoInterference>()),
      incidence_(net_.topology()),
      mask_(net_.topology().edge_count()),
      queue_(static_cast<std::size_t>(net_.node_count()), 0),
      declared_(static_cast<std::size_t>(net_.node_count()), 0) {
  net_.validate();
  protocol_->size_to(net_);
}

Simulator::~Simulator() = default;

void Simulator::enable_sharding(std::uint32_t shards, std::size_t threads) {
  LGG_REQUIRE(shards >= 1, "enable_sharding: shards >= 1");
  engine_ = std::make_unique<ParallelStepEngine>(net_, shards, threads);
}

void Simulator::disable_sharding() { engine_.reset(); }

std::uint32_t Simulator::shard_count() const {
  return engine_ != nullptr ? engine_->shard_count() : 1;
}

void Simulator::set_arrival(std::unique_ptr<ArrivalProcess> arrival) {
  LGG_REQUIRE(arrival != nullptr, "set_arrival: null");
  arrival_ = std::move(arrival);
  if (telemetry_ != nullptr) {
    arrival_->register_metrics(telemetry_->registry());
  }
}

void Simulator::set_loss(std::unique_ptr<LossModel> loss) {
  LGG_REQUIRE(loss != nullptr, "set_loss: null");
  loss_ = std::move(loss);
}

void Simulator::set_scheduler(std::unique_ptr<Scheduler> scheduler) {
  LGG_REQUIRE(scheduler != nullptr, "set_scheduler: null");
  scheduler_ = std::move(scheduler);
  if (telemetry_ != nullptr) {
    scheduler_->register_metrics(telemetry_->registry());
  }
}

void Simulator::set_faults(std::unique_ptr<FaultInjector> faults) {
  if (faults != nullptr) {
    faults->schedule().validate(net_);
    faults->size_to(net_);
    faults->live_mask(net_, mask_);
  } else {
    mask_.set_all(true);
  }
  faults_ = std::move(faults);
  if (telemetry_ != nullptr && faults_ != nullptr) {
    faults_->register_metrics(telemetry_->registry());
  }
}

void Simulator::set_telemetry(obs::Telemetry* telemetry) {
  telemetry_ = telemetry;
  drift_ = nullptr;  // re-evaluated at the top of every step
  topology_gauge_ = nullptr;
  if (telemetry_ == nullptr) return;
  telemetry_->bind(net_.node_count());
  register_component_metrics();
}

void Simulator::set_profiler(StepProfiler* profiler) {
  profiler_ = profiler;
  // Lane 0 is the main thread's; the shard engine grows the set to one
  // lane per shard before its selection fan-out.
  if (profiler_ != nullptr) profiler_->ensure_lanes(1);
}

void Simulator::set_admission(AdmissionController* admission) {
  admission_ = admission;
  if (telemetry_ != nullptr && admission_ != nullptr) {
    admission_->register_metrics(telemetry_->registry());
  }
}

void Simulator::register_component_metrics() {
  obs::MetricRegistry& registry = telemetry_->registry();
  topology_gauge_ = &registry.gauge("sim.topology_version");
  protocol_->register_metrics(registry);
  arrival_->register_metrics(registry);
  scheduler_->register_metrics(registry);
  if (faults_ != nullptr) faults_->register_metrics(registry);
  if (admission_ != nullptr) admission_->register_metrics(registry);
}

void Simulator::set_initial_queue(NodeId v, PacketCount q) {
  LGG_REQUIRE(t_ == 0, "set_initial_queue: simulation already started");
  LGG_REQUIRE(net_.topology().valid_node(v), "set_initial_queue: bad node");
  LGG_REQUIRE(q >= 0, "set_initial_queue: negative queue");
  const PacketCount old = queue_[static_cast<std::size_t>(v)];
  initial_total_ += q - old;
  // Pre-run seeding: drift attribution is inactive outside step(), so the
  // cause is never recorded.
  apply_queue_delta(v, q - old, obs::DriftCause::kInjection);
}

PacketCount Simulator::max_queue() const {
  PacketCount best = 0;
  for (const PacketCount q : queue_) best = std::max(best, q);
  return best;
}

bool Simulator::conserves_packets() const {
  return initial_total_ + totals_.injected - totals_.extracted -
             totals_.lost - totals_.crash_wiped ==
         total_packets();
}

void Simulator::audit_counters() const {
  PacketCount total = 0;
  detail::QuadAccum sq = 0;
  for (const PacketCount q : queue_) {
    total += q;
    sq += detail::square(q);
  }
  LGG_ASSERT(total == sum_q_);
  LGG_ASSERT(sq == sum_sq_);
}

std::size_t resolve_link_conflicts(std::span<const Transmission> txs,
                                   std::span<const PacketCount> queue,
                                   std::vector<char>& keep,
                                   LinkConflictScratch& scratch) {
  // Detect both directions of one edge being kept; keep the transmission
  // realizing the larger true queue drop (ties: lower from-id wins).
  if (scratch.current == std::numeric_limits<std::uint32_t>::max()) {
    // Epoch wraparound: stale stamps could alias the new epoch; start over.
    std::fill(scratch.stamp.begin(), scratch.stamp.end(), 0);
    scratch.current = 0;
  }
  const std::uint32_t epoch = ++scratch.current;
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < txs.size(); ++i) {
    if (!keep[i]) continue;
    const auto e = static_cast<std::size_t>(txs[i].edge);
    if (e >= scratch.stamp.size()) {
      scratch.stamp.resize(e + 1, 0);
      scratch.first_use.resize(e + 1, 0);
    }
    if (scratch.stamp[e] != epoch) {
      scratch.stamp[e] = epoch;
      scratch.first_use[e] = static_cast<std::uint32_t>(i);
      continue;
    }
    const std::size_t j = scratch.first_use[e];  // earlier kept use
    if (txs[j].from == txs[i].from) continue;  // same direction is the
                                               // protocol's contract to
                                               // avoid; checked elsewhere
    const auto drop = [&](const Transmission& tx) {
      return queue[static_cast<std::size_t>(tx.from)] -
             queue[static_cast<std::size_t>(tx.to)];
    };
    std::size_t loser;
    if (drop(txs[i]) > drop(txs[j]) ||
        (drop(txs[i]) == drop(txs[j]) && txs[i].from < txs[j].from)) {
      loser = j;
      scratch.first_use[e] = static_cast<std::uint32_t>(i);
    } else {
      loser = i;
    }
    keep[loser] = 0;
    ++dropped;
  }
  return dropped;
}

template <bool kArmed>
std::uint64_t Simulator::apply_kept(StepStats& stats) {
  // Every kept transmission removes a packet from the sender; only un-lost
  // ones arrive.  A lost packet leaves the network at the sender, so its
  // decrement is a kLoss contribution; a delivered packet's sender and
  // receiver are both kForwarding.  This is apply_queue_delta per packet
  // with the shared counters kept in locals: the queue is reached through
  // a local pointer and Σq², sent, lost and delivered are summed here and
  // written once at the end, so no store to the queue forces them back to
  // memory.  Armed, only the losses are recorded per mutation; the
  // forwarding nodes are staged, the phase's forwarding sum (the Σq²
  // delta minus the loss terms) is added once, and the per-node rows are
  // settled from snapshot_ at the end of the step (obs/drift.hpp).
  const Transmission* const txs = txs_.data();
  const char* const keep = keep_.data();
  const char* const lost = lost_.data();
  PacketCount* const queue = queue_.data();
  obs::DriftAttributor* const drift = drift_;
  const std::size_t count = txs_.size();
  detail::QuadAccum sum_sq_delta = 0;
  std::uint64_t loss_dp = 0;  // the kLoss terms inside sum_sq_delta
  PacketCount sent = 0;
  PacketCount dropped = 0;
  const auto flush = [&] {
    sum_sq_ += sum_sq_delta;
    sum_q_ -= dropped;  // a delivery moves a packet, a loss removes one
    stats.sent += sent;
    stats.lost += dropped;
    stats.delivered += sent - dropped;
    if constexpr (kArmed) {
      drift->record_forwarding(static_cast<std::uint64_t>(sum_sq_delta) -
                               loss_dp);
    }
  };
  for (std::size_t i = 0; i < count; ++i) {
    if (!keep[i]) continue;
    const Transmission& tx = txs[i];
    PacketCount& from = queue[static_cast<std::size_t>(tx.from)];
    if (from <= 0) {
      // The counters and the drift rows stay true to the queues when this
      // throws.
      flush();
      if constexpr (kArmed) drift->settle(queue_, snapshot_);
      LGG_REQUIRE(from > 0, "transmission from an empty queue");
    }
    // (q−1)² − q² = −(2q−1) and (q+1)² − q² = 2q+1 fit 64 bits for any
    // 63-bit q, so ΔP needs no multiply: the accumulator adds or subtracts
    // a 64-bit term, and a loss records the same term's low 64 bits.
    const std::uint64_t down = 2 * static_cast<std::uint64_t>(from) - 1;
    sum_sq_delta -= down;
    --from;
    ++sent;
    if (lost[i]) {
      if constexpr (kArmed) {
        drift->record(tx.from, obs::DriftCause::kLoss, 0 - down);
        loss_dp -= down;
      }
      ++dropped;
      continue;
    }
    PacketCount& to = queue[static_cast<std::size_t>(tx.to)];
    if constexpr (kArmed) {
      drift->stage(tx.from);
      drift->stage(tx.to);
    }
    sum_sq_delta += 2 * static_cast<std::uint64_t>(to) + 1;
    ++to;
  }
  flush();
  return static_cast<std::uint64_t>(sent);
}

obs::Telemetry* Simulator::arm_telemetry() {
  // Telemetry arms once per step: with no sink and no flight recorder the
  // session has nothing to feed, so drift_ stays null and every recording
  // site below collapses to one untaken branch.
  obs::Telemetry* const tel =
      (telemetry_ != nullptr && telemetry_->armed()) ? telemetry_ : nullptr;
  drift_ = tel != nullptr ? &tel->drift() : nullptr;
  if (tel != nullptr) tel->begin_step();
  return tel;
}

void Simulator::phase_dynamics(StepStats& stats, obs::Telemetry* tel) {
  // The injector decides which links are up.  Each link-state source that
  // changes bumps the topology version once, in a fixed order: random
  // churn, scheduled churn, then the windowed fault transitions, so the
  // rest of the step (and the injector's own surge/outage windows) sees
  // the post-churn roles.
  churn_delta_.clear();
  if (faults_ == nullptr) return;
  bool changed = false;
  const auto bump = [&] {
    ++topology_version_;
    stats.topology_changed = true;
    changed = true;
  };
  {
    Rng rng = phase_rng(StepPhase::kDynamics);
    if (faults_->apply_random_churn(rng, churn_delta_)) bump();
  }
  wiped_scratch_.clear();
  const auto wipe = [&](NodeId v) {
    const PacketCount q = queue_[static_cast<std::size_t>(v)];
    if (q > 0) {
      // Departing/crashing queues leave the network as crash_wiped so
      // the conservation audit balances.
      apply_queue_delta(v, -q, obs::DriftCause::kCrashWiped);
      stats.crash_wiped += q;
      if (tel != nullptr) wiped_scratch_.emplace_back(v, q);
    }
  };
  if (faults_->apply_churn(t_, net_, churn_delta_, wipe)) bump();
  if (tel != nullptr && !churn_delta_.empty()) record_churn_flight_events(tel);
  const bool down_set_changed = faults_->begin_step(t_, net_, wipe);
  if (tel != nullptr) {
    for (const NodeId v : faults_->went_down()) {
      PacketCount wiped = 0;
      for (const auto& [w, q] : wiped_scratch_) {
        if (w == v) wiped = q;
      }
      tel->record_event(
          {t_, obs::EventKind::kNodeDown, v, kInvalidNode, wiped});
    }
    for (const NodeId v : faults_->came_up()) {
      tel->record_event({t_, obs::EventKind::kNodeUp, v, kInvalidNode, 0});
    }
  }
  // Protocol caches key on the topology version; a down-set change alters
  // the live edge set just like an edge flip.
  if (down_set_changed) bump();
  // Every bit the liveness rule reads is fixed until the next step's
  // phase 1, so the mask is rebuilt only when one of them changed.
  if (changed) faults_->live_mask(net_, mask_);
}

void Simulator::arrival_begin_step() {
  // The phase-global injection stream is reserved for the arrival process:
  // per-source draws are addressed per node, so a begin_step draw can
  // never shift any source's own stream (and skipping it is equally
  // stream-neutral for processes that ignore the hook).
  Rng rng = phase_rng(StepPhase::kInjection);
  ArrivalContext ctx;
  ctx.t = t_;
  ctx.net = &net_;
  ctx.sources = net_.sources();
  ctx.queues = queue_;
  ctx.rng = &rng;
  arrival_->begin_step(ctx);
}

void Simulator::phase_injection(StepStats& stats, obs::Telemetry* tel) {
  // Injection — only source nodes (in > 0) can inject; down sources
  // don't, surging sources inject extra on top of the arrival process.
  // An attached admission controller sees the pre-injection potential and
  // may shed part of each source's offered packets; shed packets are never
  // injected, so the conservation audit is untouched.  Each source draws
  // from its own addressed stream, so the draw is independent of admission
  // and of every other source.
  int admission_mode_before = 0;
  if (admission_ != nullptr) {
    admission_mode_before = admission_->mode();
    admission_->begin_step({t_, network_state(), topology_version_, &net_,
                            &mask_,
                            churn_delta_.empty() ? nullptr : &churn_delta_});
  }
  std::uint64_t visits = 0;
  // `draw` distinguishes real arrival-process visits from surge-only
  // visits on the sparse path, where the process guarantees a zero count
  // for unlisted sources and its packets() must not be consulted.
  const auto inject_one = [&](NodeId v, bool draw) {
    ++visits;
    const NodeSpec& spec = net_.spec(v);
    PacketCount a = 0;
    if (draw) {
      Rng rng =
          phase_rng(StepPhase::kInjection, static_cast<std::uint64_t>(v));
      a = arrival_->packets(v, spec.in, t_, rng);
      LGG_REQUIRE(a >= 0, "arrival process returned a negative count");
    }
    if (faults_ != nullptr && faults_->node_down(v)) return;
    const PacketCount extra =
        faults_ != nullptr ? faults_->surge_extra(v) : 0;
    PacketCount offered = a + extra;
    if (admission_ != nullptr) {
      const PacketCount admitted = admission_->admit(v, spec.in, offered);
      LGG_REQUIRE(admitted >= 0 && admitted <= offered,
                  "admission controller returned a count outside [0, offered]");
      stats.shed += offered - admitted;
      offered = admitted;
    }
    apply_queue_delta(v, offered, obs::DriftCause::kInjection);
    stats.injected += offered;
  };
  const std::vector<NodeId>* active = arrival_->active_sources();
  if (active == nullptr) {
    for (const NodeId v : net_.sources()) inject_one(v, /*draw=*/true);
  } else {
    // Sparse path: the process precomputed (in begin_step) the only
    // sources that can inject this step.  Every skipped source would have
    // contributed a zero offer, and a zero offer is a strict no-op for
    // queueing, stats, and admission accounting (the governor's credit
    // and fairness state are untouched by admit(v, in, 0)), so the
    // trajectory is bitwise identical to the dense loop.
    for (const NodeId v : *active) inject_one(v, /*draw=*/true);
    if (faults_ != nullptr) {
      for (const NodeId v : faults_->surging_sources()) {
        // Surges ride on top of the arrival process even when it skips
        // the node.  Only current sources count (a churn nudge may have
        // zeroed in(v), which removes v from the dense loop too).
        if (net_.spec(v).in <= 0) continue;
        if (std::binary_search(active->begin(), active->end(), v)) continue;
        inject_one(v, /*draw=*/false);
      }
    }
  }
  last_injection_visits_ = visits;
  if (admission_ != nullptr && tel != nullptr &&
      admission_->mode() != admission_mode_before) {
    tel->record_event({t_, obs::EventKind::kGovernorMode, kInvalidNode,
                       kInvalidNode,
                       static_cast<PacketCount>(admission_->mode())});
  }
}

std::span<const PacketCount> Simulator::phase_declarations(
    std::uint64_t& work) {
  // Declarations.  Only retention nodes may deviate from their true queue,
  // and only under a lying policy, so every case needs at most the
  // retention-node loop (classical nodes are forced truthful and, under
  // kRandom, their addressed draw would be uniform over [0, 0] — skipping
  // it cannot shift any other node's stream):
  //   * truthful         — q'_t == q_t for every node; alias the queue.
  //   * declare-R / zero — deterministic; copy then patch retention nodes.
  //   * random           — copy, then per-node addressed draws.
  std::span<const PacketCount> declared_view = declared_;
  switch (options_.declaration_policy) {
    case DeclarationPolicy::kTruthful:
      declared_view = queue_;
      break;
    case DeclarationPolicy::kDeclareR:
    case DeclarationPolicy::kDeclareZero: {
      declared_ = queue_;
      Rng rng = phase_rng(StepPhase::kDeclaration);  // never drawn from
      for (const NodeId v : net_.retention_nodes()) {
        declared_[static_cast<std::size_t>(v)] =
            declared_queue(net_.spec(v), queue_[static_cast<std::size_t>(v)],
                           options_.declaration_policy, rng);
      }
      work += net_.retention_nodes().size();
      break;
    }
    case DeclarationPolicy::kRandom: {
      declared_ = queue_;
      for (const NodeId v : net_.retention_nodes()) {
        Rng rng = phase_rng(StepPhase::kDeclaration,
                            static_cast<std::uint64_t>(v));
        declared_[static_cast<std::size_t>(v)] =
            declared_queue(net_.spec(v), queue_[static_cast<std::size_t>(v)],
                           options_.declaration_policy, rng);
      }
      work += net_.retention_nodes().size();
      break;
    }
  }
  // Byzantine faults overwrite the chosen declarations.  The truthful fast
  // path aliases the live queue, so corruption forces a copy first.
  if (faults_ != nullptr &&
      !faults_->byzantine_declarations().empty()) {
    if (declared_view.data() == queue_.data()) {
      declared_ = queue_;
      declared_view = declared_;
    }
    for (const auto& [v, value] : faults_->byzantine_declarations()) {
      declared_[static_cast<std::size_t>(v)] = value;
      ++work;
    }
  }
  return declared_view;
}

void Simulator::record_churn_flight_events(obs::Telemetry* tel) {
  // Called before begin_step's crash wipes, so wiped_scratch_ holds only
  // the departing-node wipes when the node_leave counts are looked up.
  for (const auto& ec : churn_delta_.edges) {
    const auto [u, v] = net_.topology().endpoints(ec.edge);
    tel->record_event({t_,
                       ec.active ? obs::EventKind::kEdgeUp
                                 : obs::EventKind::kEdgeDown,
                       u, v, static_cast<std::int64_t>(ec.edge)});
  }
  for (const NodeId v : churn_delta_.left) {
    PacketCount wiped = 0;
    for (const auto& [w, q] : wiped_scratch_) {
      if (w == v) wiped = q;
    }
    tel->record_event({t_, obs::EventKind::kNodeLeave, v, kInvalidNode,
                       wiped});
  }
  for (const NodeId v : churn_delta_.joined) {
    tel->record_event({t_, obs::EventKind::kNodeJoin, v, kInvalidNode, 0});
  }
  for (const auto& rc : churn_delta_.rates) {
    // Joins/leaves already carry their own events; kRateChange covers the
    // nudges (and the rate legs of join/leave for telemetry consumers that
    // only track specs).
    const std::int64_t packed =
        (static_cast<std::int64_t>(rc.after.in) << 32) |
        (static_cast<std::int64_t>(rc.after.out) & 0xffffffff);
    tel->record_event(
        {t_, obs::EventKind::kRateChange, rc.node, kInvalidNode, packed});
  }
}

void Simulator::record_tx_flight_events(obs::Telemetry* tel) {
  if (tel == nullptr || tel->flight() == nullptr) return;
  tel->flight()->record_batch(txs_.size(), [this](std::size_t i) {
    const Transmission& tx = txs_[i];
    const obs::EventKind kind = !keep_[i] ? obs::EventKind::kDrop
                                : lost_[i] ? obs::EventKind::kLoss
                                           : obs::EventKind::kSend;
    return obs::FlightEvent{t_, kind, tx.from, tx.to,
                            static_cast<std::int64_t>(tx.edge)};
  });
}

void Simulator::step_epilogue(StepStats& stats, obs::Telemetry* tel,
                              std::span<const PacketCount> declared_view) {
  totals_.add(stats);
#ifndef NDEBUG
  audit_counters();
#endif
  if (topology_gauge_ != nullptr) {
    topology_gauge_->set(static_cast<double>(topology_version_));
  }
  if (tel != nullptr) {
    obs::StepSample sample;
    sample.t = t_;
    sample.potential = network_state();
    sample.total_packets = total_packets();
    // max_queue is an O(n) scan; only pay it on snapshot steps.
    if (tel->snapshot_due(t_)) sample.max_queue = max_queue();
    sample.injected = stats.injected;
    sample.proposed = stats.proposed;
    sample.suppressed = stats.suppressed;
    sample.conflicted = stats.conflicted;
    sample.sent = stats.sent;
    sample.lost = stats.lost;
    sample.delivered = stats.delivered;
    sample.extracted = stats.extracted;
    sample.crash_wiped = stats.crash_wiped;
    sample.shed = stats.shed;
    sample.queues = queue_;
    sample.at_selection = snapshot_;
    tel->end_step(sample);
  }
  if (observer_ != nullptr) {
    StepRecord record;
    record.net = &net_;
    record.t = t_;
    record.before_injection = pre_injection_;
    record.at_selection = snapshot_;
    // When declared_view still aliases queue_ (truthful, no Byzantine
    // corruption), phases 7–8 have since mutated it; the declarations
    // equalled the post-injection snapshot, which is what snapshot_
    // preserved.
    record.declared = declared_view.data() == queue_.data()
                          ? std::span<const PacketCount>(snapshot_)
                          : declared_view;
    record.after_step = queue_;
    record.transmissions = txs_;
    record.kept = keep_;
    record.lost = lost_;
    record.stats = stats;
    observer_->on_step(record);
  }
  ++t_;
}

StepStats Simulator::step() {
  StepStats stats;
  obs::Telemetry* const tel = arm_telemetry();

  // Phase timing: two clock reads per phase when a profiler is attached,
  // one null test per phase otherwise.  A sharded selection closes with the
  // main thread's fan-out→join wall; its CPU time comes from the shards.
  StepProfiler* const prof = profiler_;
  if (prof != nullptr) prof->begin_step(static_cast<std::uint64_t>(t_));
  const auto lap = [prof](StepPhase phase, std::uint64_t items,
                          bool sharded = false) {
    if (prof == nullptr) return;
    if (sharded) {
      prof->lap_parallel(phase, items);
    } else {
      prof->lap(phase, items);
    }
  };

  // 1. Link state: random churn, scheduled churn, fault transitions.
  phase_dynamics(stats, tel);
  lap(StepPhase::kDynamics, stats.topology_changed ? 1 : 0);

  // 2. Injection.
  if (observer_ != nullptr) pre_injection_ = queue_;
  arrival_begin_step();
  phase_injection(stats, tel);
  lap(StepPhase::kInjection, static_cast<std::uint64_t>(stats.injected));

  // 3. Declarations.
  std::uint64_t declaration_work = 0;
  const std::span<const PacketCount> declared_view =
      phase_declarations(declaration_work);
  lap(StepPhase::kDeclaration, declaration_work);

  // Protocols, schedulers and loss models read a null mask as "every link
  // up", which spares selection one mask read per neighbour; admission
  // control above got the mask itself.
  const graph::EdgeMask* const routed = mask_.all_active() ? nullptr : &mask_;
  const StepView view{&net_,      &incidence_,   routed,
                      queue_,     declared_view, t_,
                      topology_version_, options_.seed};

  // 4. Protocol proposes transmissions.  Locally selecting protocols (LGG)
  // draw only addressed streams, so the shard engine, when enabled, selects
  // per shard; it is the step's only fan-out.  Baselines draw from the
  // phase-global stream and select here.
  txs_.clear();
  const bool shard_select = engine_ != nullptr && protocol_->local_selection();
  if (shard_select) {
    engine_->select(view, *protocol_, txs_, prof);
  } else {
    Rng rng = phase_rng(StepPhase::kSelection);
    protocol_->select_transmissions(view, rng, txs_);
  }
  stats.proposed = static_cast<PacketCount>(txs_.size());
  check_contract(view);
  lap(StepPhase::kSelection, static_cast<std::uint64_t>(stats.proposed),
      shard_select);

  // 5. Interference scheduling.
  keep_.assign(txs_.size(), 1);
  {
    Rng rng = phase_rng(StepPhase::kScheduling);
    stats.suppressed =
        static_cast<PacketCount>(scheduler_->schedule(view, txs_, rng, keep_));
  }
  LGG_ASSERT(stats.suppressed == std::count(keep_.begin(), keep_.end(), 0));
  lap(StepPhase::kScheduling, static_cast<std::uint64_t>(stats.suppressed));

  // 6. Link-conflict resolution: when both directions of one link are
  // scheduled, only one can use the link ("each link can transmit at most
  // 1 packet").  The loser's packet stays in its queue.  A downhill-only
  // protocol (LGG) reading the true queues cannot propose both directions
  // of a link, so the scan would drop nothing and is skipped; Debug builds
  // run it anyway and assert that (DESIGN.md §5, decision 4).
  if (options_.link_conflict == LinkConflictPolicy::kDropLower) {
    if (!protocol_->downhill_only() || declared_view.data() != queue_.data()) {
      stats.conflicted = static_cast<PacketCount>(
          resolve_link_conflicts(txs_, queue_, keep_, conflict_scratch_));
    } else {
#ifndef NDEBUG
      const std::size_t dropped =
          resolve_link_conflicts(txs_, queue_, keep_, conflict_scratch_);
      LGG_ASSERT(dropped == 0);
#endif
    }
  }
  lap(StepPhase::kConflict, static_cast<std::uint64_t>(stats.conflicted));

  // 7. Losses + application.  Every kept transmission removes a packet from
  // the sender; only un-lost ones arrive.  Both run here for both engines:
  // loss models may hold state, and the application is one pass over the
  // kept list that keeps Σq and Σq² in one accumulator and, armed, derives
  // the phase's forwarding drift from it.
  //
  // snapshot_ holds the post-injection queues: step 8's basis under
  // kSnapshot, the observer's at_selection and, armed, what the
  // forwarding drift rows settle from.
  if (options_.extraction_basis == ExtractionBasis::kSnapshot ||
      observer_ != nullptr || drift_ != nullptr) {
    snapshot_ = queue_;
  }
  lost_.assign(txs_.size(), 0);
  {
    Rng rng = phase_rng(StepPhase::kLossApply);
    loss_->mark_losses(view, txs_, rng, lost_);
  }
  const std::uint64_t sent =
      drift_ != nullptr ? apply_kept<true>(stats) : apply_kept<false>(stats);
  record_tx_flight_events(tel);
  lap(StepPhase::kLossApply, sent);

  // 8. Extraction — only sink nodes (out > 0) can extract; down or outaged
  // sinks behave as out(d) = 0 this step and their queues are not touched.
  for (const NodeId v : net_.sinks()) {
    if (faults_ != nullptr && (faults_->node_down(v) || faults_->sink_out(v))) {
      continue;
    }
    const NodeSpec& spec = net_.spec(v);
    const PacketCount q = queue_[static_cast<std::size_t>(v)];
    Rng rng = phase_rng(StepPhase::kExtraction, static_cast<std::uint64_t>(v));
    PacketCount amount = 0;
    if (options_.extraction_basis == ExtractionBasis::kSnapshot) {
      // The paper's literal min{out(d), q_t(d)} with q_t the step-start
      // (post-injection) snapshot, clamped to what the queue holds now.
      amount = extraction_amount(spec, snapshot_[static_cast<std::size_t>(v)],
                                 options_.extraction_policy, rng);
      amount = std::min(amount, q);
    } else {
      amount = extraction_amount(spec, q, options_.extraction_policy, rng);
    }
    LGG_ASSERT(amount >= 0 && amount <= q);
    apply_queue_delta(v, -amount, obs::DriftCause::kExtraction);
    stats.extracted += amount;
  }
  lap(StepPhase::kExtraction, static_cast<std::uint64_t>(stats.extracted));
  if (prof != nullptr) prof->finish_step();

  step_epilogue(stats, tel, declared_view);
  return stats;
}

void Simulator::run(TimeStep steps, MetricsRecorder* recorder) {
  LGG_REQUIRE(steps >= 0, "run: negative step count");
  for (TimeStep i = 0; i < steps; ++i) {
    const StepStats stats = step();
    if (recorder != nullptr) {
      recorder->observe(t_ - 1, queue_, stats, total_packets(),
                        network_state());
    }
  }
}

}  // namespace lgg::core
