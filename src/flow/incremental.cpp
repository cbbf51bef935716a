#include "flow/incremental.hpp"

#include <algorithm>

#include "flow/edmonds_karp.hpp"
#include "flow/max_flow.hpp"

namespace lgg::flow {

namespace {

// Unbounded (s*, s) arcs must dominate every finite cut forever, including
// cuts that only exist after future rate nudges; a fixed ceiling with a
// guarded headroom invariant (sink caps stay below half of it) keeps that
// true without rebuilding arcs when rates grow.
constexpr Cap kUnboundedCap = Cap{1} << 40;

}  // namespace

IncrementalMaxFlow::IncrementalMaxFlow(const graph::Multigraph& g,
                                       std::span<const RatedNode> sources,
                                       std::span<const RatedNode> sinks,
                                       ExtendedGraphOptions options,
                                       const graph::EdgeMask* mask)
    : g_(&g), options_(options), unbounded_cap_(kUnboundedCap) {
  LGG_REQUIRE(options_.edge_capacity >= 1, "IncrementalMaxFlow: edge cap");
  LGG_REQUIRE(options_.sink_scale >= 1, "IncrementalMaxFlow: sink scale");
  LGG_REQUIRE(options_.source_scale >= 1 || options_.unbounded_sources,
              "IncrementalMaxFlow: source scale");
  LGG_REQUIRE(mask == nullptr || mask->size() == g.edge_count(),
              "IncrementalMaxFlow: mask size mismatch");
#ifndef NDEBUG
  cross_check_ = true;
#endif

  const auto n = static_cast<std::size_t>(g.node_count());
  source_arc_.assign(n, kInvalidArc);
  sink_arc_.assign(n, kInvalidArc);
  source_rate_.assign(n, 0);
  sink_rate_.assign(n, 0);
  for (const RatedNode& rn : sources) {
    LGG_REQUIRE(g.valid_node(rn.node) && rn.rate > 0,
                "IncrementalMaxFlow: bad source");
    LGG_REQUIRE(source_rate_[static_cast<std::size_t>(rn.node)] == 0,
                "IncrementalMaxFlow: duplicate source");
    source_rate_[static_cast<std::size_t>(rn.node)] = rn.rate;
    rate_total_ += rn.rate;
  }
  for (const RatedNode& rn : sinks) {
    LGG_REQUIRE(g.valid_node(rn.node) && rn.rate > 0,
                "IncrementalMaxFlow: bad sink");
    LGG_REQUIRE(sink_rate_[static_cast<std::size_t>(rn.node)] == 0,
                "IncrementalMaxFlow: duplicate sink");
    sink_rate_[static_cast<std::size_t>(rn.node)] = rn.rate;
    sink_cap_total_ += rn.rate * options_.sink_scale;
  }
  LGG_REQUIRE(sink_cap_total_ < unbounded_cap_ / 2,
              "IncrementalMaxFlow: sink capacities exceed headroom");

  // G* in the static pipeline's arc order; unbounded source arcs take this
  // engine's fixed ceiling, and masked-off edges capacity 0.
  ExtendedGraph ext = build_extended_graph(g, sources, sinks, options_);
  net_ = std::move(ext.net);
  s_star_ = ext.s_star;
  d_star_ = ext.d_star;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const ArcId a = ext.source_arcs[i];
    const Cap cap = source_cap_for(sources[i].rate);
    net_.set_capacity(a, cap);
    source_arc_[static_cast<std::size_t>(sources[i].node)] = a;
    source_cap_total_ += cap;
  }
  for (std::size_t i = 0; i < sinks.size(); ++i) {
    sink_arc_[static_cast<std::size_t>(sinks[i].node)] = ext.sink_arcs[i];
  }
  forward_edge_arcs_ = std::move(ext.forward_edge_arcs);
  backward_edge_arcs_ = std::move(ext.backward_edge_arcs);
  edge_active_.assign(static_cast<std::size_t>(g.edge_count()), 1);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (mask == nullptr || mask->active(e)) continue;
    edge_active_[static_cast<std::size_t>(e)] = 0;
    net_.set_capacity(forward_edge_arcs_[static_cast<std::size_t>(e)], 0);
    net_.set_capacity(backward_edge_arcs_[static_cast<std::size_t>(e)], 0);
  }

  seen_.assign(static_cast<std::size_t>(net_.node_count()), 0);
  parent_slot_.assign(static_cast<std::size_t>(net_.node_count()), -1);
  queue_.assign(static_cast<std::size_t>(net_.node_count()) + 1, 0);

  value_ = solve_max_flow(net_, s_star_, d_star_, FlowAlgorithm::kDinic);
  ++stats_.rebuilds;
  if (cross_check_) verify_against_scratch();
}

Cap IncrementalMaxFlow::source_cap_for(Cap rate) const {
  if (rate == 0) return 0;
  return options_.unbounded_sources ? unbounded_cap_
                                    : rate * options_.source_scale;
}

bool IncrementalMaxFlow::edge_active(EdgeId e) const {
  LGG_REQUIRE(g_->valid_edge(e), "edge_active: bad edge");
  return edge_active_[static_cast<std::size_t>(e)] != 0;
}

Cap IncrementalMaxFlow::source_rate(NodeId v) const {
  LGG_REQUIRE(g_->valid_node(v), "source_rate: bad node");
  return source_rate_[static_cast<std::size_t>(v)];
}

Cap IncrementalMaxFlow::sink_rate(NodeId v) const {
  LGG_REQUIRE(g_->valid_node(v), "sink_rate: bad node");
  return sink_rate_[static_cast<std::size_t>(v)];
}

void IncrementalMaxFlow::set_edge_active(EdgeId e, bool active) {
  LGG_REQUIRE(g_->valid_edge(e), "set_edge_active: bad edge");
  if (edge_active(e) == active) return;
  edge_active_[static_cast<std::size_t>(e)] = active ? 1 : 0;
  const Cap cap = active ? options_.edge_capacity : 0;
  apply_capacity(forward_edge_arcs_[static_cast<std::size_t>(e)], cap);
  apply_capacity(backward_edge_arcs_[static_cast<std::size_t>(e)], cap);
  augment();
  ++stats_.patches;
  if (cross_check_) verify_against_scratch();
}

void IncrementalMaxFlow::set_source_rate(NodeId v, Cap rate) {
  LGG_REQUIRE(g_->valid_node(v), "set_source_rate: bad node");
  LGG_REQUIRE(rate >= 0, "set_source_rate: negative rate");
  const auto idx = static_cast<std::size_t>(v);
  if (source_rate_[idx] == rate) return;
  rate_total_ += rate - source_rate_[idx];
  source_rate_[idx] = rate;
  if (source_arc_[idx] == kInvalidArc) {
    source_arc_[idx] = net_.add_arc(s_star_, v, 0);
  }
  const ArcId a = source_arc_[idx];
  const Cap cap = source_cap_for(rate);
  source_cap_total_ += cap - net_.capacity(a);
  apply_capacity(a, cap);
  augment();
  ++stats_.patches;
  if (cross_check_) verify_against_scratch();
}

void IncrementalMaxFlow::set_sink_rate(NodeId v, Cap rate) {
  LGG_REQUIRE(g_->valid_node(v), "set_sink_rate: bad node");
  LGG_REQUIRE(rate >= 0, "set_sink_rate: negative rate");
  const auto idx = static_cast<std::size_t>(v);
  if (sink_rate_[idx] == rate) return;
  sink_rate_[idx] = rate;
  if (sink_arc_[idx] == kInvalidArc) {
    sink_arc_[idx] = net_.add_arc(v, d_star_, 0);
  }
  const Cap cap = rate * options_.sink_scale;
  sink_cap_total_ += cap - net_.capacity(sink_arc_[idx]);
  LGG_REQUIRE(sink_cap_total_ < unbounded_cap_ / 2,
              "set_sink_rate: sink capacities exceed headroom");
  apply_capacity(sink_arc_[idx], cap);
  augment();
  ++stats_.patches;
  if (cross_check_) verify_against_scratch();
}

void IncrementalMaxFlow::apply_capacity(ArcId a, Cap cap) {
  if (net_.capacity(a) == cap) return;
  if (net_.flow(a) > cap) lower_arc_flow(a, cap);
  net_.set_capacity_keep_flow(a, cap);
}

void IncrementalMaxFlow::lower_arc_flow(ArcId a, Cap target) {
  const NodeId u = net_.from(a);
  const NodeId v = net_.to(a);
  const SlotId slot = net_.arc_slot(a);
  Cap x = net_.flow(a) - target;
  while (x > 0) {
    // First choice: reroute the surplus u ⇝ v through the residual graph
    // (this is also what cancels flow cycles through the arc) — the flow
    // value is preserved.
    if (Cap b = find_path(u, v, slot); b > 0) {
      b = std::min(b, x);
      push_path(u, v, b);
      net_.push(a ^ 1, b);
      x -= b;
      continue;
    }
    // Otherwise drain to the terminals: give the surplus back along a
    // residual u ⇝ s* path and reclaim the deficit along d* ⇝ v.  Both
    // exist while flow(a) > 0 by flow decomposition.  The first path must
    // be captured before the second BFS reuses the parent scratch.
    Cap b = x;
    path_scratch_.clear();
    if (u != s_star_) {
      const Cap b1 = find_path(u, s_star_, slot);
      LGG_REQUIRE(b1 > 0, "lower_arc_flow: no drain path to s*");
      b = std::min(b, b1);
      const auto slots = net_.slots();
      for (NodeId w = s_star_; w != u;) {
        const SlotId ps = parent_slot_[static_cast<std::size_t>(w)];
        path_scratch_.push_back(ps);
        w = slots.head[slots.twin[ps]];
      }
    }
    if (v != d_star_) {
      const Cap b2 = find_path(d_star_, v, slot);
      LGG_REQUIRE(b2 > 0, "lower_arc_flow: no drain path from d*");
      b = std::min(b, b2);
    }
    for (const SlotId ps : path_scratch_) net_.push_slot(ps, b);
    if (!path_scratch_.empty()) ++stats_.augment_paths;
    if (v != d_star_) push_path(d_star_, v, b);
    net_.push(a ^ 1, b);
    value_ -= b;
    x -= b;
  }
}

void IncrementalMaxFlow::augment() {
  while (true) {
    const Cap b = find_path(s_star_, d_star_, -1);
    if (b == 0) break;
    push_path(s_star_, d_star_, b);
    value_ += b;
  }
}

Cap IncrementalMaxFlow::find_path(NodeId from, NodeId to, SlotId banned) {
  LGG_REQUIRE(from != to, "find_path: trivial endpoints");
  const auto slots = net_.slots();
  const SlotId banned_twin = banned < 0 ? -1 : slots.twin[banned];
  const std::uint32_t epoch = ++epoch_;
  std::uint32_t* const seen = seen_.data();
  SlotId* const parent = parent_slot_.data();
  NodeId* const queue = queue_.data();
  queue[0] = from;
  seen[from] = epoch;
  std::size_t tail = 1;
  for (std::size_t head = 0; head < tail; ++head) {
    const NodeId w = queue[head];
    const SlotId begin = slots.begin[w];
    for (SlotId s = begin, end = slots.end[w]; s < end; ++s) {
      const NodeId next = slots.head[s];
      const bool take = (slots.residual[s] > 0) & (seen[next] != epoch) &
                        (s != banned) & (s != banned_twin);
      seen[next] = take ? epoch : seen[next];
      parent[next] = take ? s : parent[next];
      queue[tail] = next;
      tail += take ? 1 : 0;
      if (take && next == to) {
        stats_.bfs_arcs += static_cast<std::uint64_t>(s - begin + 1);
        Cap bottleneck = slots.residual[s];
        for (NodeId x = w; x != from;) {
          const SlotId ps = parent[x];
          bottleneck = std::min(bottleneck, slots.residual[ps]);
          x = slots.head[slots.twin[ps]];
        }
        return bottleneck;
      }
    }
    stats_.bfs_arcs += static_cast<std::uint64_t>(slots.end[w] - begin);
  }
  return 0;
}

void IncrementalMaxFlow::push_path(NodeId from, NodeId to, Cap amount) {
  const auto slots = net_.slots();
  for (NodeId w = to; w != from;) {
    const SlotId s = parent_slot_[static_cast<std::size_t>(w)];
    net_.push_slot(s, amount);
    w = slots.head[slots.twin[s]];
  }
  ++stats_.augment_paths;
}

void IncrementalMaxFlow::verify_against_scratch() const {
  LGG_REQUIRE(net_.flow_value(s_star_) == value_,
              "IncrementalMaxFlow: tracked value out of sync");
  LGG_REQUIRE(flow_is_valid(net_, s_star_, d_star_),
              "IncrementalMaxFlow: stored flow invalid");
  FlowNetwork scratch = net_;
  scratch.reset_flow();
  const Cap fresh = edmonds_karp_max_flow(scratch, s_star_, d_star_);
  LGG_REQUIRE(fresh == value_,
              "IncrementalMaxFlow: diverged from from-scratch max-flow");
}

}  // namespace lgg::flow
