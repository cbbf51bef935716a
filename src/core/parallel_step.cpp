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

void ParallelStepEngine::fold(Simulator& sim, StepStats& stats) {
  // Fixed shard order.  Every accumulator is an exact integer, so the fold
  // reproduces the serial accumulation regardless of which thread ran
  // which shard; drift contributions are re-recorded through the
  // attributor so its by-cause totals and touched bookkeeping stay
  // identical to the serial engine's.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ShardScratch& sh = shards_[s];
    sim.sum_q_ += sh.sum_q_delta;
    sim.sum_sq_ += sh.sum_sq_delta;
    stats.sent += sh.stats.sent;
    stats.lost += sh.stats.lost;
    stats.delivered += sh.stats.delivered;
    if (sim.drift_ != nullptr) {
      const auto& nodes = plan_.shards[s].nodes;
      for (const std::uint32_t local : sh.drift_touched) {
        const NodeId v = nodes[local];
        // The apply phase produces only kForwarding and kLoss; the other
        // causes add zero.
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

void ParallelStepEngine::begin_step(Simulator& sim) {
  if (sim.drift_ != nullptr) {
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
  // Lane 0 belongs to the main thread, lane s+1 to shard s; grown here,
  // outside the parallel region, so workers only ever index existing lanes.
  if (sim.profiler_ != nullptr) sim.profiler_->ensure_lanes(shards_.size() + 1);
}

template <typename Body>
void ParallelStepEngine::run_shards(Simulator& sim, StepPhase phase,
                                    const Body& body) {
  StepProfiler* const prof = sim.profiler_;
  analysis::parallel_for(pool_, shards_.size(), [&](std::size_t s) {
    if (prof == nullptr) {
      body(s, shards_[s]);
      return;
    }
    const auto start = StepProfiler::Clock::now();
    body(s, shards_[s]);
    prof->lap_shard(s, phase, start);
  });
}

void ParallelStepEngine::select(Simulator& sim, const StepView& view) {
  run_shards(sim, StepPhase::kSelection, [&](std::size_t s, ShardScratch& sh) {
    sh.txs.clear();
    sh.active_nodes =
        sim.protocol_->select_for_nodes(view, plan_.shards[s].nodes, sh.txs);
  });
  merge_transmissions(sim.txs_);
  std::uint64_t active = 0;
  for (const ShardScratch& sh : shards_) active += sh.active_nodes;
  sim.protocol_->note_selection_work(active);
}

std::uint64_t ParallelStepEngine::apply(Simulator& sim) {
  // Every shard scans the full kept list — shared and read-only by now —
  // and applies exactly the mutations of its own nodes, in list order.
  // That gives each node its serial mutation order (sends and receives
  // interleaved by global transmission index), which the value-dependent
  // drift terms and the from-queue>0 invariant both rely on.
  run_shards(sim, StepPhase::kLossApply, [&](std::size_t s, ShardScratch& sh) {
    const std::uint32_t shard = static_cast<std::uint32_t>(s);
    for (std::size_t i = 0; i < sim.txs_.size(); ++i) {
      if (!sim.keep_[i]) continue;
      const Transmission& tx = sim.txs_[i];
      if (plan_.owner[static_cast<std::size_t>(tx.from)] == shard) {
        // Owner-exclusive mutation means this reads the same value the
        // serial engine would: nobody else touches tx.from's queue.
        LGG_REQUIRE(sim.queue_[static_cast<std::size_t>(tx.from)] > 0,
                    "transmission from an empty queue");
        shard_apply(sim, sh, tx.from, -1,
                    sim.lost_[i] ? obs::DriftCause::kLoss
                                 : obs::DriftCause::kForwarding);
        ++sh.stats.sent;
        if (sim.lost_[i]) ++sh.stats.lost;
      }
      if (!sim.lost_[i] &&
          plan_.owner[static_cast<std::size_t>(tx.to)] == shard) {
        shard_apply(sim, sh, tx.to, 1, obs::DriftCause::kForwarding);
        ++sh.stats.delivered;
      }
    }
  });
  std::uint64_t sent = 0;
  for (const ShardScratch& sh : shards_) {
    sent += static_cast<std::uint64_t>(sh.stats.sent);
  }
  return sent;
}

}  // namespace lgg::core
