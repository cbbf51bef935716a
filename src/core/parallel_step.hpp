// The graph-partitioned shard engine behind Simulator::enable_sharding.
//
// One skeleton, two fan-out points.  Simulator::step is the only code that
// sequences the eight phases, for both engines; while sharding is enabled
// it hands the two per-link ones to this engine, which fans them out over
// a ShardPlan on a thread pool:
//
//   1. dynamics + faults        skeleton  (mutates the shared edge mask)
//   2. injection                skeleton  (O(sources), touches a handful
//                                          of nodes)
//   3. declarations             skeleton  (O(retention nodes), cheap)
//   4. selection                select()  (protocols with local_selection;
//                                          the skeleton selects for
//                                          baselines)
//   5. interference scheduling  skeleton  (global view of the proposal set)
//   6. link-conflict resolution skeleton
//   7. loss mark                skeleton  (loss models may hold state)
//      apply                    apply()   (the boundary exchange — below)
//   8. extraction               skeleton  (O(sinks))
//
// begin_step() is the engine's prologue (profiler lanes, drift tables) and
// fold() its epilogue, run by the skeleton after the last phase.
//
// Bitwise determinism across every (shard, thread) count rests on three
// invariants:
//
//   * every stochastic draw is addressed by (seed, step, phase, node)
//     (common/rng.hpp), so a draw's value cannot depend on which shard or
//     thread performs it;
//   * the global reductions (Σq, Σq², drift attribution, StepStats) use
//     exact integer accumulators folded in fixed shard order — integer
//     sums commute, so the fold equals the serial accumulation;
//   * each node's queue is mutated only by its owner shard, in ascending
//     transmission order — exactly the per-node mutation order of the
//     serial engine, which pins the value-dependent drift contributions
//     δ(2q+δ).
//
// The boundary exchange is implicit in the apply phase: the merged
// transmission list, keep flags, and loss verdicts are shared read-only
// state, and every shard scans the full list applying just the mutations
// of nodes it owns.  A cross-boundary delivery is therefore "exchanged"
// by the receiver's shard reading the sender's transmission — no queues,
// no message passing, no ordering ambiguity.  (A local-then-inbox scheme
// would reorder a node's receives after its sends and silently change the
// drift attribution relative to the serial engine.)
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/thread_pool.hpp"
#include "core/shard.hpp"
#include "core/simulator.hpp"

namespace lgg::core {

class ParallelStepEngine {
 public:
  /// Builds the plan for `sim`'s network.  `threads` == 0 picks
  /// min(shard_count, hardware concurrency).
  ParallelStepEngine(Simulator& sim, std::uint32_t shard_count,
                     std::size_t threads);

  [[nodiscard]] std::uint32_t shard_count() const {
    return plan_.shard_count;
  }
  [[nodiscard]] std::size_t thread_count() const {
    return pool_.thread_count();
  }
  [[nodiscard]] const ShardPlan& plan() const { return plan_; }

 private:
  // Every `sim` below is the simulator this engine was built for.
  friend class Simulator;

  /// Per-shard working state; reset each step.  Accumulators are exact
  /// (wraparound-safe) mirrors of Simulator::apply_queue_delta's, folded
  /// into the simulator in shard order after the last parallel phase.
  struct ShardScratch {
    std::vector<Transmission> txs;  ///< selection output, grouped by node
    std::uint64_t active_nodes = 0;
    PacketCount sum_q_delta = 0;
    detail::QuadAccum sum_sq_delta = 0;
    StepStats stats;  ///< only sent, lost and delivered are used
    // Sparse per-(local node, cause) drift contributions, only maintained
    // while telemetry is armed.
    std::vector<std::uint64_t> drift;  // local node × kDriftCauseCount
    std::vector<char> drift_touched_flag;
    std::vector<std::uint32_t> drift_touched;  // local indices, visit order
  };

  /// Step prologue: grows the profiler to one lane per shard and sizes
  /// the drift tables while telemetry is armed.
  void begin_step(Simulator& sim);

  // The two fan-outs.

  /// Phase 4: every shard selects for its own nodes against `view`; the
  /// lists merge into sim.txs_ in ascending sender order.
  void select(Simulator& sim, const StepView& view);
  /// Phase 7 application: every shard applies its own nodes' mutations.
  /// Returns the transmissions sent, summed over the shards.
  std::uint64_t apply(Simulator& sim);

  /// Runs `body(shard, scratch)` for every shard on the pool, timing each
  /// body on its shard's profiler lane.  Exceptions from any shard (e.g.
  /// LGG_REQUIRE failures) rethrow on the calling thread.
  template <typename Body>
  void run_shards(Simulator& sim, StepPhase phase, const Body& body);

  /// The per-shard mutation funnel (mirror of apply_queue_delta).
  void shard_apply(Simulator& sim, ShardScratch& sh, NodeId v,
                   PacketCount delta, obs::DriftCause cause) {
    auto& q = sim.queue_[static_cast<std::size_t>(v)];
    const detail::QuadAccum dp = detail::square_delta(q, delta);
    if (sim.drift_ != nullptr) {
      const auto local =
          static_cast<std::size_t>(plan_.local_index[static_cast<std::size_t>(v)]);
      if (!sh.drift_touched_flag[local]) {
        sh.drift_touched_flag[local] = 1;
        sh.drift_touched.push_back(static_cast<std::uint32_t>(local));
      }
      sh.drift[local * obs::kDriftCauseCount +
               static_cast<std::size_t>(cause)] +=
          static_cast<std::uint64_t>(dp);
    }
    sh.sum_sq_delta += dp;
    sh.sum_q_delta += delta;
    q += delta;
  }

  /// Concatenates the per-shard selection outputs in ascending sender
  /// order — the serial engine's proposal order.
  void merge_transmissions(std::vector<Transmission>& out);

  /// Step epilogue: folds every shard's accumulators into the simulator
  /// and `stats`, in shard order, and resets the scratch for the next step.
  void fold(Simulator& sim, StepStats& stats);

  ShardPlan plan_;
  analysis::ThreadPool pool_;
  std::vector<ShardScratch> shards_;
  std::vector<std::size_t> merge_cursor_;
};

}  // namespace lgg::core
