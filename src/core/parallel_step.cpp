#include "core/parallel_step.hpp"

#include <algorithm>
#include <thread>

namespace lgg::core {

namespace {

[[nodiscard]] std::size_t default_threads(std::uint32_t shard_count) {
  const std::size_t hw = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::thread::hardware_concurrency()));
  return std::min<std::size_t>(shard_count, hw);
}

}  // namespace

ParallelStepEngine::ParallelStepEngine(const SdNetwork& net,
                                       std::uint32_t shard_count,
                                       std::size_t threads)
    : plan_(build_shard_plan(net, shard_count)),
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

void ParallelStepEngine::select(const StepView& view,
                                RoutingProtocol& protocol,
                                std::vector<Transmission>& out,
                                StepProfiler* profiler) {
  // Lane 0 belongs to the main thread, lane s+1 to shard s; grown here,
  // outside the parallel region, so workers only ever index existing lanes.
  if (profiler != nullptr) profiler->ensure_lanes(shards_.size() + 1);
  analysis::parallel_for(pool_, shards_.size(), [&](std::size_t s) {
    const auto start = profiler != nullptr ? StepProfiler::Clock::now()
                                           : StepProfiler::Clock::time_point{};
    ShardScratch& sh = shards_[s];
    sh.txs.clear();
    sh.active_nodes =
        protocol.select_for_nodes(view, plan_.shards[s].nodes, sh.txs);
    if (profiler != nullptr) {
      profiler->lap_shard(s, StepPhase::kSelection, start);
    }
  });
  merge_transmissions(out);
  std::uint64_t active = 0;
  for (const ShardScratch& sh : shards_) active += sh.active_nodes;
  protocol.note_selection_work(active);
}

}  // namespace lgg::core
