#include "flow/push_relabel.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <vector>

namespace lgg::flow {

namespace {

class PushRelabelSolver {
 public:
  PushRelabelSolver(FlowNetwork& net, NodeId source, NodeId sink,
                    PushRelabelRule rule)
      : slots_(net.slots()),
        source_(source),
        sink_(sink),
        rule_(rule),
        n_(net.node_count()),
        height_(static_cast<std::size_t>(n_), 0),
        excess_(static_cast<std::size_t>(n_), 0),
        current_(slots_.begin, slots_.begin + n_),
        in_queue_(static_cast<std::size_t>(n_), 0),
        height_count_(2 * static_cast<std::size_t>(n_) + 1, 0),
        buckets_(2 * static_cast<std::size_t>(n_) + 1) {}

  Cap run() {
    height_[static_cast<std::size_t>(source_)] = n_;
    height_count_[0] = static_cast<std::size_t>(n_ - 1);
    height_count_[static_cast<std::size_t>(n_)] = 1;
    // Saturate all arcs out of the source.
    for (SlotId s = slots_.begin[source_]; s < slots_.end[source_]; ++s) {
      const Cap r = slots_.residual[s];
      if (r > 0) {
        push(s, r);
        excess_[static_cast<std::size_t>(slots_.head[s])] += r;
        excess_[static_cast<std::size_t>(source_)] -= r;
        activate(slots_.head[s]);
      }
    }
    for (NodeId u = next_active(); u != kInvalidNode; u = next_active()) {
      discharge(u);
    }
    return excess_[static_cast<std::size_t>(sink_)];
  }

 private:
  void activate(NodeId v) {
    if (v == source_ || v == sink_) return;
    if (in_queue_[static_cast<std::size_t>(v)]) return;
    in_queue_[static_cast<std::size_t>(v)] = 1;
    if (rule_ == PushRelabelRule::kFifo) {
      fifo_.push_back(v);
    } else {
      const auto h = static_cast<std::size_t>(height_[static_cast<std::size_t>(v)]);
      buckets_[h].push_back(v);
      highest_ = std::max(highest_, h);
    }
  }

  NodeId next_active() {
    if (rule_ == PushRelabelRule::kFifo) {
      while (!fifo_.empty()) {
        const NodeId v = fifo_.front();
        fifo_.pop_front();
        in_queue_[static_cast<std::size_t>(v)] = 0;
        if (excess_[static_cast<std::size_t>(v)] > 0) return v;
      }
      return kInvalidNode;
    }
    while (true) {
      while (highest_ > 0 && buckets_[highest_].empty()) --highest_;
      if (buckets_[highest_].empty()) return kInvalidNode;
      const NodeId v = buckets_[highest_].back();
      buckets_[highest_].pop_back();
      in_queue_[static_cast<std::size_t>(v)] = 0;
      // Height may have changed since enqueue; stale entries are skipped.
      if (excess_[static_cast<std::size_t>(v)] > 0 &&
          static_cast<std::size_t>(height_[static_cast<std::size_t>(v)]) ==
              highest_) {
        return v;
      }
      if (excess_[static_cast<std::size_t>(v)] > 0) activate(v);
    }
  }

  void push(SlotId s, Cap amount) {
    slots_.residual[s] -= amount;
    slots_.residual[slots_.twin[s]] += amount;
  }

  void discharge(NodeId u) {
    auto& e = excess_[static_cast<std::size_t>(u)];
    while (e > 0) {
      auto& s = current_[static_cast<std::size_t>(u)];
      if (s >= slots_.end[u]) {
        relabel(u);
        s = slots_.begin[u];
        if (height_[static_cast<std::size_t>(u)] >= 2 * n_) break;
        continue;
      }
      const NodeId v = slots_.head[s];
      if (slots_.residual[s] > 0 &&
          height_[static_cast<std::size_t>(u)] ==
              height_[static_cast<std::size_t>(v)] + 1) {
        const Cap amount = std::min(e, slots_.residual[s]);
        push(s, amount);
        e -= amount;
        excess_[static_cast<std::size_t>(v)] += amount;
        activate(v);
      } else {
        ++s;
      }
    }
  }

  void relabel(NodeId u) {
    const int old = height_[static_cast<std::size_t>(u)];
    int best = 2 * n_;
    for (SlotId s = slots_.begin[u]; s < slots_.end[u]; ++s) {
      if (slots_.residual[s] > 0) {
        best = std::min(best,
                        height_[static_cast<std::size_t>(slots_.head[s])] + 1);
      }
    }
    height_[static_cast<std::size_t>(u)] = best;
    --height_count_[static_cast<std::size_t>(old)];
    if (best < 2 * n_) ++height_count_[static_cast<std::size_t>(best)];
    // Gap heuristic: if level `old` just emptied, nothing below it can ever
    // reach the sink through that level — lift every node strictly above.
    if (old < n_ && height_count_[static_cast<std::size_t>(old)] == 0) {
      for (NodeId v = 0; v < n_; ++v) {
        const int h = height_[static_cast<std::size_t>(v)];
        if (h > old && h < n_ && v != source_) {
          --height_count_[static_cast<std::size_t>(h)];
          height_[static_cast<std::size_t>(v)] = n_ + 1;
          ++height_count_[static_cast<std::size_t>(n_) + 1];
        }
      }
    }
  }

  FlowNetwork::Slots<Cap> slots_;
  NodeId source_;
  NodeId sink_;
  PushRelabelRule rule_;
  int n_;
  std::vector<int> height_;
  std::vector<Cap> excess_;
  std::vector<SlotId> current_;  // per node: the current-arc slot
  std::vector<unsigned char> in_queue_;
  std::vector<std::size_t> height_count_;
  std::deque<NodeId> fifo_;
  std::vector<std::vector<NodeId>> buckets_;
  std::size_t highest_ = 0;
};

}  // namespace

Cap push_relabel_max_flow(FlowNetwork& net, NodeId source, NodeId sink,
                          PushRelabelRule rule) {
  LGG_REQUIRE(net.valid_node(source) && net.valid_node(sink),
              "push_relabel: bad terminal");
  LGG_REQUIRE(source != sink, "push_relabel: source == sink");
  if (net.node_count() == 0) return 0;
  return PushRelabelSolver(net, source, sink, rule).run();
}

}  // namespace lgg::flow
