// The graph-partitioned shard engine behind Simulator::enable_sharding.
//
// One skeleton, one fan-out point.  Simulator::step is the only code that
// sequences the eight phases, for both engines; while sharding is enabled
// it hands selection to this engine, which fans it out over a ShardPlan on
// a thread pool:
//
//   1. faults + churn           skeleton  (rebuilds the shared edge mask)
//   2. injection                skeleton  (O(sources))
//   3. declarations             skeleton  (O(retention nodes), cheap)
//   4. selection                select()  (protocols with local_selection;
//                                          the skeleton selects for
//                                          baselines)
//   5. interference scheduling  skeleton  (global view of the proposal set)
//   6. link-conflict resolution skeleton
//   7. loss mark + apply        skeleton  (one pass over the kept list)
//   8. extraction               skeleton  (O(sinks))
//
// Selection is the work that splits: under Algorithm 1 a node picks its
// links from its own queue and its neighbours' declarations alone.
// Applying the chosen moves is one cheap pass over the transmission list,
// so it stays in the skeleton, and Σq, Σq² and the drift attribution keep
// one accumulator for both engines.
//
// Bitwise determinism across every (shard, thread) count rests on two
// invariants:
//
//   * every stochastic draw is addressed by (seed, step, phase, node)
//     (common/rng.hpp), so a draw's value cannot depend on which shard or
//     thread performs it;
//   * shards read, the skeleton mutates: a shard reads the shared step view
//     and writes only its own proposal list, and the k-way merge rebuilds
//     the serial engine's ascending-sender proposal order.  Every queue,
//     counter and metric changes on the calling thread.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/thread_pool.hpp"
#include "core/profiler.hpp"
#include "core/protocol.hpp"
#include "core/shard.hpp"

namespace lgg::core {

class ParallelStepEngine {
 public:
  /// Builds the plan for `net`.  `threads` == 0 picks
  /// min(shard_count, hardware concurrency).
  ParallelStepEngine(const SdNetwork& net, std::uint32_t shard_count,
                     std::size_t threads);

  [[nodiscard]] std::uint32_t shard_count() const {
    return plan_.shard_count;
  }

  /// Phase 4: every shard runs `protocol`'s select_for_nodes for its own
  /// nodes against `view`; the lists merge into `out` in ascending sender
  /// order and the summed active-node count goes to note_selection_work.
  /// With a profiler, lane s+1 times shard s's body.  Exceptions from any
  /// shard (e.g. LGG_REQUIRE failures) rethrow on the calling thread.
  void select(const StepView& view, RoutingProtocol& protocol,
              std::vector<Transmission>& out, StepProfiler* profiler);

 private:
  /// Per-shard selection output; overwritten each step.
  struct ShardScratch {
    std::vector<Transmission> txs;  ///< grouped by node, ascending
    std::uint64_t active_nodes = 0;
  };

  /// Concatenates the per-shard selection outputs in ascending sender
  /// order — the serial engine's proposal order.
  void merge_transmissions(std::vector<Transmission>& out);

  ShardPlan plan_;
  analysis::ThreadPool pool_;
  std::vector<ShardScratch> shards_;
  std::vector<std::size_t> merge_cursor_;
};

}  // namespace lgg::core
