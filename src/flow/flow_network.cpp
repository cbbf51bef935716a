#include "flow/flow_network.hpp"

namespace lgg::flow {

FlowNetwork::FlowNetwork(NodeId n) {
  LGG_REQUIRE(n >= 0, "FlowNetwork: n >= 0");
  begin_.assign(static_cast<std::size_t>(n), 0);
  end_.assign(static_cast<std::size_t>(n), 0);
}

FlowNetwork::FlowNetwork(NodeId n, std::span<const ArcSpec> arcs)
    : FlowNetwork(n) {
  for (const ArcSpec& spec : arcs) {
    LGG_REQUIRE(valid_node(spec.from) && valid_node(spec.to),
                "FlowNetwork: bad endpoint");
    LGG_REQUIRE(spec.cap >= 0, "FlowNetwork: negative capacity");
    ++end_[static_cast<std::size_t>(spec.from)];
    ++end_[static_cast<std::size_t>(spec.to)];
  }
  SlotId next = 0;
  for (std::size_t v = 0; v < begin_.size(); ++v) {
    begin_[v] = next;
    next += end_[v];
    end_[v] = begin_[v];  // the fill cursor below
  }
  grow_slots(next);
  slot_.resize(2 * arcs.size());
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    const ArcSpec& spec = arcs[i];
    const auto fwd = static_cast<std::size_t>(
        end_[static_cast<std::size_t>(spec.from)]++);
    const auto bwd =
        static_cast<std::size_t>(end_[static_cast<std::size_t>(spec.to)]++);
    head_[fwd] = spec.to;
    head_[bwd] = spec.from;
    twin_[fwd] = static_cast<SlotId>(bwd);
    twin_[bwd] = static_cast<SlotId>(fwd);
    arc_[fwd] = static_cast<ArcId>(2 * i);
    arc_[bwd] = static_cast<ArcId>(2 * i + 1);
    cap_[fwd] = res_[fwd] = spec.cap;
    slot_[2 * i] = static_cast<SlotId>(fwd);
    slot_[2 * i + 1] = static_cast<SlotId>(bwd);
  }
}

NodeId FlowNetwork::add_node() {
  begin_.push_back(slot_count());
  end_.push_back(slot_count());
  return node_count() - 1;
}

ArcId FlowNetwork::add_arc(NodeId u, NodeId v, Cap cap) {
  LGG_REQUIRE(valid_node(u) && valid_node(v), "add_arc: bad endpoint");
  LGG_REQUIRE(cap >= 0, "add_arc: negative capacity");
  const ArcId fwd = arc_count();
  slot_.push_back(append_slot(u, v, cap, fwd));
  slot_.push_back(append_slot(v, u, 0, fwd + 1));
  // Read back: the second append may have moved the first slot (u == v).
  const SlotId s = slot_[static_cast<std::size_t>(fwd)];
  const SlotId t = slot_[static_cast<std::size_t>(fwd) + 1];
  twin_[static_cast<std::size_t>(s)] = t;
  twin_[static_cast<std::size_t>(t)] = s;
  return fwd;
}

SlotId FlowNetwork::append_slot(NodeId v, NodeId head, Cap cap, ArcId a) {
  const auto vi = static_cast<std::size_t>(v);
  if (end_[vi] < slot_count() &&
      arc_[static_cast<std::size_t>(end_[vi])] != kFreeSlot) {
    // The next slot belongs to another node: move v's range to the end,
    // with room for as many arcs again.
    const SlotId old_begin = begin_[vi];
    const SlotId count = end_[vi] - old_begin;
    const SlotId new_begin = slot_count();
    grow_slots(2 * count + 1);
    for (SlotId k = 0; k < count; ++k) {
      const auto from = static_cast<std::size_t>(old_begin + k);
      const auto to = static_cast<std::size_t>(new_begin + k);
      head_[to] = head_[from];
      arc_[to] = arc_[from];
      res_[to] = res_[from];
      cap_[to] = cap_[from];
      twin_[to] = twin_[from];
      // The slot of an arc whose twin is still being appended has none yet.
      if (twin_[to] >= 0) {
        twin_[static_cast<std::size_t>(twin_[to])] = static_cast<SlotId>(to);
      }
      slot_[static_cast<std::size_t>(arc_[to])] = static_cast<SlotId>(to);
      arc_[from] = kFreeSlot;
      res_[from] = cap_[from] = 0;
      twin_[from] = -1;
    }
    begin_[vi] = new_begin;
    end_[vi] = new_begin + count;
  } else if (end_[vi] == slot_count()) {
    grow_slots(1);
  }
  const SlotId s = end_[vi]++;
  const auto si = static_cast<std::size_t>(s);
  head_[si] = head;
  arc_[si] = a;
  res_[si] = cap_[si] = cap;
  twin_[si] = -1;
  return s;
}

void FlowNetwork::grow_slots(SlotId count) {
  const auto size = static_cast<std::size_t>(slot_count() + count);
  head_.resize(size, 0);
  twin_.resize(size, -1);
  arc_.resize(size, kFreeSlot);
  res_.resize(size, 0);
  cap_.resize(size, 0);
}

std::vector<Cap> FlowNetwork::slot_flows() const {
  std::vector<Cap> flows(res_.size());
  for (std::size_t s = 0; s < flows.size(); ++s) flows[s] = cap_[s] - res_[s];
  return flows;
}

void FlowNetwork::restore_flows(std::span<const Cap> flows) {
  LGG_REQUIRE(flows.size() == res_.size(), "restore_flows: size mismatch");
  for (std::size_t s = 0; s < flows.size(); ++s) {
    res_[s] = cap_[s] - flows[s];
    LGG_ASSERT(res_[s] >= 0);
  }
}

void FlowNetwork::set_capacity(ArcId a, Cap cap) {
  LGG_REQUIRE(valid_arc(a), "set_capacity: bad arc");
  LGG_REQUIRE((a & 1) == 0, "set_capacity: must address the forward arc");
  LGG_REQUIRE(cap >= 0, "set_capacity: negative capacity");
  const std::size_t s = at(a);
  cap_[s] = cap;
  res_[s] = cap;
  res_[static_cast<std::size_t>(twin_[s])] = 0;
}

void FlowNetwork::set_capacity_keep_flow(ArcId a, Cap cap) {
  LGG_REQUIRE(valid_arc(a), "set_capacity_keep_flow: bad arc");
  LGG_REQUIRE((a & 1) == 0,
              "set_capacity_keep_flow: must address the forward arc");
  const Cap f = flow(a);
  LGG_REQUIRE(cap >= f && cap >= 0,
              "set_capacity_keep_flow: capacity below current flow");
  const std::size_t s = at(a);
  cap_[s] = cap;
  res_[s] = cap - f;
}

Cap FlowNetwork::excess_at(NodeId v) const {
  LGG_REQUIRE(valid_node(v), "excess_at: bad node");
  // A forward arc's slot holds its flow as capacity - residual; a twin's,
  // with capacity 0, holds minus the flow of the arc into v.
  Cap out = 0;
  const auto vi = static_cast<std::size_t>(v);
  for (SlotId s = begin_[vi]; s < end_[vi]; ++s) {
    out += cap_[static_cast<std::size_t>(s)] - res_[static_cast<std::size_t>(s)];
  }
  return -out;
}

}  // namespace lgg::flow
