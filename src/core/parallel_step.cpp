#include "core/parallel_step.hpp"

#include <algorithm>
#include <thread>

#include "common/require.hpp"

namespace lgg::core {

namespace {

[[nodiscard]] std::size_t default_threads(std::uint32_t shard_count) {
  const std::size_t hw = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::thread::hardware_concurrency()));
  return std::min<std::size_t>(shard_count, hw);
}

}  // namespace

ParallelStepEngine::ParallelStepEngine(Simulator& sim,
                                       std::uint32_t shard_count,
                                       std::size_t threads)
    : plan_(build_shard_plan(sim.net_, shard_count)),
      pool_(threads != 0 ? threads : default_threads(shard_count)),
      shards_(plan_.shard_count),
      merge_cursor_(plan_.shard_count, 0) {}

void ParallelStepEngine::merge_transmissions(std::vector<Transmission>& out) {
  // Each shard's list is grouped by sender in ascending order (shard node
  // lists are ascending, and select_for_nodes appends per node in the
  // order given), and the shards' sender sets are disjoint — so a k-way
  // merge by the smallest front sender reconstructs the serial engine's
  // ascending-sender proposal order exactly.
  std::size_t total = 0;
  for (const ShardScratch& sh : shards_) total += sh.txs.size();
  out.reserve(total);
  std::fill(merge_cursor_.begin(), merge_cursor_.end(), std::size_t{0});
  for (;;) {
    std::size_t best = shards_.size();
    NodeId best_from = kInvalidNode;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const std::size_t c = merge_cursor_[s];
      if (c >= shards_[s].txs.size()) continue;
      const NodeId from = shards_[s].txs[c].from;
      if (best == shards_.size() || from < best_from) {
        best = s;
        best_from = from;
      }
    }
    if (best == shards_.size()) break;
    // Copy the whole run of this sender's transmissions at once.
    auto& sh = shards_[best];
    std::size_t c = merge_cursor_[best];
    while (c < sh.txs.size() && sh.txs[c].from == best_from) {
      out.push_back(sh.txs[c]);
      ++c;
    }
    merge_cursor_[best] = c;
  }
}

void ParallelStepEngine::fold(Simulator& sim, StepStats& stats,
                              bool drift_on) {
  // Fixed shard order.  Every accumulator is an exact integer, so the fold
  // reproduces the serial accumulation regardless of which thread ran
  // which shard; drift contributions are re-recorded through the
  // attributor so its by-cause totals and touched bookkeeping stay
  // identical to the serial engine's.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ShardScratch& sh = shards_[s];
    sim.sum_q_ += sh.sum_q_delta;
    sim.sum_sq_ += sh.sum_sq_delta;
    stats.injected += sh.stats.injected;
    stats.sent += sh.stats.sent;
    stats.lost += sh.stats.lost;
    stats.delivered += sh.stats.delivered;
    stats.extracted += sh.stats.extracted;
    if (drift_on) {
      const auto& nodes = plan_.shards[s].nodes;
      for (const std::uint32_t local : sh.drift_touched) {
        const NodeId v = nodes[local];
        // Record every cause, zeros included: a zero-ΔP mutation (e.g. an
        // injection of 0 packets) still marks its node touched in the
        // serial engine, and the telemetry per_node list is exactly the
        // touched set.
        for (std::size_t c = 0; c < obs::kDriftCauseCount; ++c) {
          sim.drift_->record(v, static_cast<obs::DriftCause>(c),
                             sh.drift[local * obs::kDriftCauseCount + c]);
          sh.drift[local * obs::kDriftCauseCount + c] = 0;
        }
        sh.drift_touched_flag[local] = 0;
      }
      sh.drift_touched.clear();
    }
    sh.sum_q_delta = 0;
    sh.sum_sq_delta = 0;
    sh.stats = StepStats{};
    sh.active_nodes = 0;
  }
}

StepStats ParallelStepEngine::step(Simulator& sim) {
  StepStats stats;
  obs::Telemetry* const tel = sim.arm_telemetry();
  const bool drift_on = sim.drift_ != nullptr;
  if (drift_on) {
    // Size the sparse per-shard drift tables lazily: telemetry may attach
    // (or arm) after the engine is built.
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const std::size_t need =
          plan_.shards[s].nodes.size() * obs::kDriftCauseCount;
      if (shards_[s].drift.size() < need) {
        shards_[s].drift.assign(need, 0);
        shards_[s].drift_touched_flag.assign(plan_.shards[s].nodes.size(), 0);
      }
    }
  }

  // Phase timing: one profiler call per phase boundary and one per shard
  // body while a profiler is attached, one null test each otherwise.
  // Lane 0 belongs to the main thread, lane s+1 to shard s; grown here,
  // outside the parallel region, so workers only ever index existing lanes.
  StepProfiler* const prof = sim.profiler_;
  if (prof != nullptr) {
    prof->ensure_lanes(shards_.size() + 1);
    prof->begin_step(static_cast<std::uint64_t>(sim.t_));
  }
  // Fans `body(shard, scratch)` out over the pool; exceptions from any
  // shard (e.g. LGG_REQUIRE failures) rethrow here, exactly like the
  // serial engine's in-line checks.  Each shard's busy interval is its
  // CPU time for `phase`.
  const auto run_shards = [&](StepPhase phase, const auto& body) {
    analysis::parallel_for(pool_, shards_.size(), [&](std::size_t s) {
      if (prof == nullptr) {
        body(s, shards_[s]);
        return;
      }
      const auto start = StepProfiler::Clock::now();
      body(s, shards_[s]);
      prof->lap_shard(s, phase, start);
    });
  };
  // Work counter of a sharded phase: the per-shard counts before the fold.
  const auto shard_total = [&](PacketCount StepStats::*counter) {
    std::uint64_t total = 0;
    for (const ShardScratch& sh : shards_) {
      total += static_cast<std::uint64_t>(sh.stats.*counter);
    }
    return total;
  };

  // 1. Topology dynamics + fault transitions — serial: both mutate the
  // shared edge mask and the fault state machine.
  const graph::EdgeMask* active_mask = sim.phase_dynamics(stats, tel);
  if (prof != nullptr) {
    prof->lap(StepPhase::kDynamics, stats.topology_changed ? 1 : 0);
  }

  // 2. Injection — sharded over each shard's sources when order cannot be
  // observed: no admission controller (its shed decisions depend on call
  // order) and a parallel-safe, dense arrival process.  A sparse process
  // (active_sources() non-null) keeps the serial path, which is already
  // O(active sources) — fanning its short list over shards would cost
  // more than it saves.  Each source draws its own addressed stream
  // either way, so both paths inject identical counts.  The begin_step
  // hook runs serially exactly once, mirroring the serial engine.
  if (sim.observer_ != nullptr) sim.pre_injection_ = sim.queue_;
  sim.arrival_begin_step();
  const bool parallel_inject = sim.admission_ == nullptr &&
                               sim.arrival_->parallel_safe() &&
                               sim.arrival_->active_sources() == nullptr;
  if (!parallel_inject) {
    sim.phase_injection_serial(stats, tel, active_mask);
    if (prof != nullptr) {
      prof->lap(StepPhase::kInjection,
                static_cast<std::uint64_t>(stats.injected));
    }
  } else {
    run_shards(StepPhase::kInjection, [&](std::size_t s, ShardScratch& sh) {
      for (const NodeId v : plan_.shards[s].sources) {
        const NodeSpec& spec = sim.net_.spec(v);
        Rng rng = sim.phase_rng(StepPhase::kInjection,
                                static_cast<std::uint64_t>(v));
        const PacketCount a = sim.arrival_->packets(v, spec.in, sim.t_, rng);
        LGG_REQUIRE(a >= 0, "arrival process returned a negative count");
        if (sim.faults_ != nullptr && sim.faults_->node_down(v)) continue;
        const PacketCount extra =
            sim.faults_ != nullptr ? sim.faults_->surge_extra(v) : 0;
        shard_apply(sim, sh, drift_on, v, a + extra,
                    obs::DriftCause::kInjection);
        sh.stats.injected += a + extra;
      }
    });
    sim.last_injection_visits_ = sim.net_.sources().size();
    if (prof != nullptr) {
      prof->lap_parallel(StepPhase::kInjection,
                         shard_total(&StepStats::injected));
    }
  }

  // 3. Declarations — serial: O(retention nodes) with addressed draws.
  std::uint64_t declaration_work = 0;
  const std::span<const PacketCount> declared_view =
      sim.phase_declarations(declaration_work);
  if (prof != nullptr) prof->lap(StepPhase::kDeclaration, declaration_work);

  const StepView view{&sim.net_,      &sim.incidence_,   active_mask,
                      sim.queue_,     declared_view,     sim.t_,
                      sim.topology_version_, sim.options_.seed};

  // 4. Selection — sharded for locally-selecting protocols (LGG): each
  // shard selects for its own nodes against the shared read-only view,
  // then the per-shard lists merge back into ascending sender order.
  // Baseline protocols (random walk etc.) draw from the phase-global
  // stream and keep the serial path.
  sim.txs_.clear();
  if (sim.protocol_->local_selection()) {
    run_shards(StepPhase::kSelection, [&](std::size_t s, ShardScratch& sh) {
      sh.txs.clear();
      sh.active_nodes = sim.protocol_->select_for_nodes(
          view, plan_.shards[s].nodes, sh.txs);
    });
    merge_transmissions(sim.txs_);
    std::uint64_t active = 0;
    for (const ShardScratch& sh : shards_) active += sh.active_nodes;
    sim.protocol_->note_selection_work(active);
    stats.proposed = static_cast<PacketCount>(sim.txs_.size());
    sim.check_contract(view);
    if (prof != nullptr) {
      prof->lap_parallel(StepPhase::kSelection,
                         static_cast<std::uint64_t>(stats.proposed));
    }
  } else {
    {
      Rng rng = sim.phase_rng(StepPhase::kSelection);
      sim.protocol_->select_transmissions(view, rng, sim.txs_);
    }
    stats.proposed = static_cast<PacketCount>(sim.txs_.size());
    sim.check_contract(view);
    if (prof != nullptr) {
      prof->lap(StepPhase::kSelection,
                static_cast<std::uint64_t>(stats.proposed));
    }
  }

  // 5. Interference scheduling — serial: schedulers see the global
  // proposal set by design.
  sim.keep_.assign(sim.txs_.size(), 1);
  {
    Rng rng = sim.phase_rng(StepPhase::kScheduling);
    sim.scheduler_->schedule(view, sim.txs_, rng, sim.keep_);
  }
  stats.suppressed = static_cast<PacketCount>(
      std::count(sim.keep_.begin(), sim.keep_.end(), 0));
  if (prof != nullptr) {
    prof->lap(StepPhase::kScheduling,
              static_cast<std::uint64_t>(stats.suppressed));
  }

  // 6. Link-conflict resolution — serial: one pass over the kept set.
  if (sim.options_.link_conflict == LinkConflictPolicy::kDropLower) {
    stats.conflicted = static_cast<PacketCount>(resolve_link_conflicts(
        sim.txs_, sim.queue_, sim.keep_, sim.conflict_scratch_));
  }
  if (prof != nullptr) {
    prof->lap(StepPhase::kConflict,
              static_cast<std::uint64_t>(stats.conflicted));
  }

  // 7. Losses + application.  Loss marking stays serial (loss models may
  // hold state); the application is the sharded boundary exchange: every
  // shard scans the full kept list — shared and read-only by now — and
  // applies exactly the mutations of its own nodes, in list order.  That
  // gives each node its serial mutation order (sends and receives
  // interleaved by global transmission index), which the value-dependent
  // drift terms and the from-queue>0 invariant both rely on.
  if (sim.options_.extraction_basis == ExtractionBasis::kSnapshot ||
      sim.observer_ != nullptr) {
    sim.snapshot_ = sim.queue_;
  }
  sim.lost_.assign(sim.txs_.size(), 0);
  {
    Rng rng = sim.phase_rng(StepPhase::kLossApply);
    sim.loss_->mark_losses(view, sim.txs_, rng, sim.lost_);
  }
  run_shards(StepPhase::kLossApply, [&](std::size_t s, ShardScratch& sh) {
    const std::uint32_t shard = static_cast<std::uint32_t>(s);
    for (std::size_t i = 0; i < sim.txs_.size(); ++i) {
      if (!sim.keep_[i]) continue;
      const Transmission& tx = sim.txs_[i];
      if (plan_.owner[static_cast<std::size_t>(tx.from)] == shard) {
        // Owner-exclusive mutation means this reads the same value the
        // serial engine would: nobody else touches tx.from's queue.
        LGG_REQUIRE(sim.queue_[static_cast<std::size_t>(tx.from)] > 0,
                    "transmission from an empty queue");
        shard_apply(sim, sh, drift_on, tx.from, -1,
                    sim.lost_[i] ? obs::DriftCause::kLoss
                                 : obs::DriftCause::kForwarding);
        ++sh.stats.sent;
        if (sim.lost_[i]) ++sh.stats.lost;
      }
      if (!sim.lost_[i] &&
          plan_.owner[static_cast<std::size_t>(tx.to)] == shard) {
        shard_apply(sim, sh, drift_on, tx.to, 1,
                    obs::DriftCause::kForwarding);
        ++sh.stats.delivered;
      }
    }
  });
  sim.record_tx_flight_events(tel);
  if (prof != nullptr) {
    prof->lap_parallel(StepPhase::kLossApply, shard_total(&StepStats::sent));
  }

  // 8. Extraction — sharded over each shard's sinks; every sink's draw is
  // addressed and every mutation is owner-exclusive.
  run_shards(StepPhase::kExtraction, [&](std::size_t s, ShardScratch& sh) {
    for (const NodeId v : plan_.shards[s].sinks) {
      if (sim.faults_ != nullptr &&
          (sim.faults_->node_down(v) || sim.faults_->sink_out(v))) {
        continue;
      }
      const NodeSpec& spec = sim.net_.spec(v);
      const PacketCount q = sim.queue_[static_cast<std::size_t>(v)];
      Rng rng = sim.phase_rng(StepPhase::kExtraction,
                              static_cast<std::uint64_t>(v));
      PacketCount amount = 0;
      if (sim.options_.extraction_basis == ExtractionBasis::kSnapshot) {
        amount = extraction_amount(
            spec, sim.snapshot_[static_cast<std::size_t>(v)],
            sim.options_.extraction_policy, rng);
        amount = std::min(amount, q);
      } else {
        amount = extraction_amount(spec, q, sim.options_.extraction_policy,
                                   rng);
      }
      LGG_ASSERT(amount >= 0 && amount <= q);
      shard_apply(sim, sh, drift_on, v, -amount,
                  obs::DriftCause::kExtraction);
      sh.stats.extracted += amount;
    }
  });
  if (prof != nullptr) {
    prof->lap_parallel(StepPhase::kExtraction,
                       shard_total(&StepStats::extracted));
  }
  if (prof != nullptr) prof->finish_step();

  fold(sim, stats, drift_on);
  sim.step_epilogue(stats, tel, declared_view);
  return stats;
}

}  // namespace lgg::core
