// Directed flow network with residual arcs — the substrate for all max-flow
// solvers (Dinic, Goldberg–Tarjan push-relabel, Edmonds–Karp).
//
// Arcs are stored in pairs: forward arc 2i and its residual twin 2i+1, so
// `a ^ 1` is always the reverse arc.  Solvers mutate residual capacities in
// place via push(), which moves residual between the two arcs of a pair;
// so a forward arc's capacity is the pair's residual sum, a twin's is 0,
// and flow on a forward arc is its twin's residual.  Only residuals are
// stored.
//
// The storage is one CSR residual network.  Every arc, forward or twin,
// owns a *slot*; node v's arcs occupy the slot range [begin(v), end(v)) in
// the order they were added, and the head, residual, twin-slot and arc-id
// arrays are indexed by slot, so a scan of v's arcs reads consecutive
// memory.  The ArcId API is a view on top (arc a lives at slot
// arc_slot(a)); the solvers' inner loops run on the raw slot arrays.
//
// A network built from an arc list is laid out by one counting pass, with
// no gaps, into arrays of their final size that are written once.  add_arc
// appends to the end of each endpoint's range: in place when the next slot
// is free, otherwise by moving that node's range to the end of the arrays
// with as much room again, so appends cost O(1) amortized and leave the
// node's earlier slots in order.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/require.hpp"
#include "common/types.hpp"

namespace lgg::flow {

using ArcId = std::int32_t;
using SlotId = std::int32_t;

/// One forward arc of an arc list: from -> to with capacity `cap`.
struct ArcSpec {
  NodeId from;
  NodeId to;
  Cap cap;
};

class FlowNetwork {
 public:
  FlowNetwork() = default;
  explicit FlowNetwork(NodeId n);
  /// Builds the network with arcs[i] as forward arc 2i (twin 2i+1), in one
  /// counting pass; the same network as n nodes plus add_arc in order.
  FlowNetwork(NodeId n, std::span<const ArcSpec> arcs)
      : FlowNetwork(n, arcs.size(),
                    [arcs](std::size_t i) { return arcs[i]; }) {}
  /// The same, with arc_at(i) as arcs[i] for i < count: builds an arc list
  /// that is never stored.  arc_at is called twice per arc.
  template <typename ArcAt>
  FlowNetwork(NodeId n, std::size_t count, ArcAt arc_at) : FlowNetwork(n) {
    for (std::size_t i = 0; i < count; ++i) count_arc(arc_at(i));
    lay_out(count);
    for (std::size_t i = 0; i < count; ++i) place_arc(i, arc_at(i));
  }

  NodeId add_node();

  /// Adds a directed arc u -> v with the given capacity; returns the forward
  /// arc id (always even).  The residual twin (odd id) starts at capacity 0.
  ArcId add_arc(NodeId u, NodeId v, Cap cap);

  [[nodiscard]] NodeId node_count() const {
    return static_cast<NodeId>(begin_.size());
  }
  /// Total arcs including residual twins (always even).
  [[nodiscard]] ArcId arc_count() const {
    return static_cast<ArcId>(slot_.size());
  }

  [[nodiscard]] bool valid_node(NodeId v) const {
    return v >= 0 && v < node_count();
  }
  [[nodiscard]] bool valid_arc(ArcId a) const {
    return a >= 0 && a < arc_count();
  }

  [[nodiscard]] SlotId arc_slot(ArcId a) const {
    LGG_ASSERT(valid_arc(a));
    return slot_[static_cast<std::size_t>(a)];
  }

  [[nodiscard]] NodeId to(ArcId a) const { return head_[at(a)]; }
  [[nodiscard]] NodeId from(ArcId a) const { return to(a ^ 1); }

  /// Original capacity of the arc (0 for residual twins of forward arcs).
  [[nodiscard]] Cap capacity(ArcId a) const {
    if ((a & 1) != 0) return 0;
    const std::size_t s = at(a);
    return res_[s] + res_[static_cast<std::size_t>(twin_[s])];
  }

  /// Remaining residual capacity.
  [[nodiscard]] Cap residual(ArcId a) const { return res_[at(a)]; }

  /// Net flow currently routed on the arc: the twin's residual for a
  /// forward arc, and minus the forward arc's flow for a twin.
  [[nodiscard]] Cap flow(ArcId a) const {
    return (a & 1) != 0 ? -residual(a) : residual(a ^ 1);
  }

  /// Arc ids leaving `v` (forward and residual alike), in insertion order.
  [[nodiscard]] std::span<const ArcId> out_arcs(NodeId v) const {
    LGG_ASSERT(valid_node(v));
    const auto i = static_cast<std::size_t>(v);
    return {arc_.data() + begin_[i],
            static_cast<std::size_t>(end_[i] - begin_[i])};
  }

  /// Moves `amount` units of flow across arc `a` (decreases its residual,
  /// increases the twin's).  Requires amount <= residual(a).
  void push(ArcId a, Cap amount) {
    LGG_REQUIRE(valid_arc(a), "push: bad arc");
    LGG_REQUIRE(amount >= 0 && amount <= residual(a),
                "push: amount exceeds residual capacity");
    const std::size_t s = at(a);
    res_[s] -= amount;
    res_[static_cast<std::size_t>(twin_[s])] += amount;
  }

  /// push() addressed by slot, for solvers that walk the slot arrays.
  void push_slot(SlotId s, Cap amount) {
    const auto i = static_cast<std::size_t>(s);
    LGG_ASSERT(amount >= 0 && amount <= res_[i]);
    res_[i] -= amount;
    res_[static_cast<std::size_t>(twin_[i])] += amount;
  }

  /// Restores the zero-flow state (residuals = original capacities).
  void reset_flow();

  /// Every forward arc's flow, by arc id / 2, for restore_flows().
  [[nodiscard]] std::vector<Cap> arc_flows() const;

  /// Routes flows saved by arc_flows() on this network again, over the
  /// current capacities.  Each saved flow must still fit its arc's
  /// capacity.
  void restore_flows(std::span<const Cap> flows);

  /// Replaces the capacity of an existing arc; resets that arc pair's flow.
  void set_capacity(ArcId a, Cap cap);

  /// Replaces the capacity of an existing arc while preserving the flow
  /// currently routed on the pair.  Requires cap >= flow(a), so the stored
  /// flow stays capacity-respecting; warm-started solvers use this to keep
  /// their state across capacity nudges.
  void set_capacity_keep_flow(ArcId a, Cap cap);

  /// Sum of flow into `v` minus flow out of `v` over forward arcs; zero for
  /// all nodes except source/sink of a valid flow.  O(degree).
  [[nodiscard]] Cap excess_at(NodeId v) const;

  /// Value of the current flow out of `source` (net outflow).
  [[nodiscard]] Cap flow_value(NodeId source) const {
    return -excess_at(source);
  }

  /// The slot arrays, for solver inner loops: node v's slots are
  /// [begin[v], end[v]); head, twin, residual and arc are per slot.  Valid
  /// until the next add_node or add_arc.
  template <typename CapT>
  struct Slots {
    const SlotId* begin;
    const SlotId* end;
    const NodeId* head;
    const SlotId* twin;
    const ArcId* arc;
    CapT* residual;
  };
  [[nodiscard]] Slots<Cap> slots() {
    return {begin_.data(), end_.data(), head_.data(),
            twin_.data(),  arc_.data(), res_.data()};
  }
  [[nodiscard]] Slots<const Cap> slots() const {
    return {begin_.data(), end_.data(), head_.data(),
            twin_.data(),  arc_.data(), res_.data()};
  }

 private:
  static constexpr ArcId kFreeSlot = -1;

  /// An allocator whose value-less construct default-initializes, so
  /// resize(n) leaves the slots for the counting build to write once.
  template <typename T>
  struct WriteOnceAllocator {
    using value_type = T;
    WriteOnceAllocator() = default;
    template <typename U>
    WriteOnceAllocator(const WriteOnceAllocator<U>& /*other*/) noexcept {}
    T* allocate(std::size_t n) { return std::allocator<T>{}.allocate(n); }
    void deallocate(T* p, std::size_t n) noexcept {
      std::allocator<T>{}.deallocate(p, n);
    }
    template <typename U>
    void construct(U* p) noexcept {
      ::new (static_cast<void*>(p)) U;
    }
    friend bool operator==(const WriteOnceAllocator&,
                           const WriteOnceAllocator&) = default;
  };
  template <typename T>
  using SlotArray = std::vector<T, WriteOnceAllocator<T>>;

  /// The counting build: tallies an arc's endpoints, lays out the ranges,
  /// then writes arc i into its two slots.
  void count_arc(const ArcSpec& spec);
  void lay_out(std::size_t count);
  void place_arc(std::size_t i, const ArcSpec& spec);

  [[nodiscard]] std::size_t at(ArcId a) const {
    return static_cast<std::size_t>(arc_slot(a));
  }
  [[nodiscard]] SlotId slot_count() const {
    return static_cast<SlotId>(head_.size());
  }
  /// Appends arc `a` (head `head`, capacity `cap`) to `v`'s range.
  SlotId append_slot(NodeId v, NodeId head, Cap cap, ArcId a);
  /// Adds `count` free slots at the end of the arrays.
  void grow_slots(SlotId count);

  std::vector<SlotId> begin_;  // per node
  std::vector<SlotId> end_;    // per node
  SlotArray<NodeId> head_;     // per slot
  SlotArray<SlotId> twin_;     // per slot
  SlotArray<ArcId> arc_;       // per slot; kFreeSlot outside every range
  SlotArray<Cap> res_;         // per slot
  SlotArray<SlotId> slot_;     // per arc id
};

}  // namespace lgg::flow
