// Differential net for LGG's filter-first selection: on fuzzed inputs the
// production LggProtocol must emit exactly the transmissions, in exactly
// the order, of the full-sort selection it replaced.  The per-node order is
// observable (loss models mark losses by list index; the flight recorder
// and StepObserver record the list), so equal sets are not enough.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/lgg_protocol.hpp"
#include "core/profiler.hpp"
#include "graph/generators.hpp"

namespace lgg::core {
namespace {

// The full-sort select_node that preceded the filter-first one, verbatim
// apart from being a free function: copy every active incident link, sort
// the copy by declared queue, then walk it until the budget runs out.
std::uint64_t reference_select_node(TieBreak tie_break, const StepView& view,
                                    NodeId u,
                                    std::vector<graph::IncidentLink>& scratch,
                                    std::vector<Transmission>& out) {
  PacketCount budget = view.queue[static_cast<std::size_t>(u)];
  if (budget <= 0) return 0;
  const PacketCount qu = view.queue[static_cast<std::size_t>(u)];

  // list(u): active incident links ordered by increasing declared queue.
  scratch.clear();
  for (const graph::IncidentLink& link : view.incidence->incident(u)) {
    if (view.active != nullptr && !view.active->active(link.edge)) continue;
    scratch.push_back(link);
  }
  if (scratch.empty()) return 1;
  if (tie_break == TieBreak::kRandomShuffle) {
    // The shuffle draws from u's addressed stream, never a shared one, so
    // the tie-break is identical whether u is visited serially or from a
    // shard.
    Rng rng = draw_rng(view.draw_seed, static_cast<std::uint64_t>(view.t),
                       static_cast<std::uint64_t>(StepPhase::kSelection),
                       static_cast<std::uint64_t>(u));
    std::shuffle(scratch.begin(), scratch.end(), rng.engine());
    std::stable_sort(scratch.begin(), scratch.end(),
                     [&](const graph::IncidentLink& a,
                         const graph::IncidentLink& b) {
                       return view.declared[static_cast<std::size_t>(
                                  a.neighbor)] <
                              view.declared[static_cast<std::size_t>(
                                  b.neighbor)];
                     });
  } else {
    std::sort(scratch.begin(), scratch.end(),
              [&](const graph::IncidentLink& a,
                  const graph::IncidentLink& b) {
                const auto qa =
                    view.declared[static_cast<std::size_t>(a.neighbor)];
                const auto qb =
                    view.declared[static_cast<std::size_t>(b.neighbor)];
                if (qa != qb) return qa < qb;
                if (a.neighbor != b.neighbor) return a.neighbor < b.neighbor;
                return a.edge < b.edge;
              });
  }

  for (const graph::IncidentLink& link : scratch) {
    if (budget <= 0) break;
    // u compares its own true queue against the neighbour's declaration.
    if (qu > view.declared[static_cast<std::size_t>(link.neighbor)]) {
      out.push_back(Transmission{link.edge, u, link.neighbor});
      --budget;
    }
  }
  return 1;
}

struct Reference {
  std::vector<Transmission> txs;
  std::uint64_t active = 0;
};

Reference reference_select(TieBreak tie_break, const StepView& view,
                           std::span<const NodeId> nodes) {
  Reference ref;
  std::vector<graph::IncidentLink> scratch;
  for (const NodeId u : nodes) {
    ref.active += reference_select_node(tie_break, view, u, scratch, ref.txs);
  }
  return ref;
}

// Queue values around the 32-bit boundaries and near 2^62, where a
// divergent run's queues end up.
constexpr PacketCount kLarge[] = {
    (PacketCount{1} << 31) - 1, PacketCount{1} << 31,
    (PacketCount{1} << 31) + 1, (PacketCount{1} << 32) - 1,
    PacketCount{1} << 32,       (PacketCount{1} << 32) + 1,
    (PacketCount{1} << 62) - 1, PacketCount{1} << 62,
    (PacketCount{1} << 62) + 1,
};

PacketCount draw_queue(Rng& rng, PacketCount small_max) {
  if (rng.bernoulli(0.1)) {
    return kLarge[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(std::size(kLarge)) - 1))];
  }
  return rng.uniform_int(0, small_max);
}

// How a node's declaration relates to its true queue: truthful, the
// R-generalized lies (declare R, declare zero, uniform in [0, R]) and an
// arbitrary Byzantine value.
PacketCount draw_declared(Rng& rng, PacketCount q, PacketCount small_max) {
  switch (rng.uniform_int(0, 4)) {
    case 0:
      return q;
    case 1:
      return std::max(q, rng.uniform_int(0, small_max));
    case 2:
      return 0;
    case 3:
      return rng.uniform_int(0, std::max(q, PacketCount{1}));
    default:
      return draw_queue(rng, small_max);
  }
}

// A view over `g` with fuzzed queues, declarations and edge mask.
struct FuzzedView {
  FuzzedView(graph::Multigraph g, Rng& rng, PacketCount small_max)
      : net(std::move(g)),
        incidence(net.topology()),
        mask(net.topology().edge_count()) {
    const auto n = static_cast<std::size_t>(net.node_count());
    queue.resize(n);
    declared.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
      queue[v] = draw_queue(rng, small_max);
      declared[v] = draw_declared(rng, queue[v], small_max);
    }
    const double p_off = rng.bernoulli(0.5) ? 0.0 : 0.6 * rng.uniform01();
    for (EdgeId e = 0; e < net.topology().edge_count(); ++e) {
      mask.set_active(e, !rng.bernoulli(p_off));
    }
    use_mask = rng.bernoulli(0.8);
    t = rng.uniform_int(0, 1000);
    draw_seed = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
  }

  [[nodiscard]] StepView view() const {
    return StepView{&net,     &incidence, use_mask ? &mask : nullptr,
                    queue,    declared,   t,
                    0,        draw_seed};
  }

  SdNetwork net;
  graph::CsrIncidence incidence;
  graph::EdgeMask mask;
  std::vector<PacketCount> queue;
  std::vector<PacketCount> declared;
  bool use_mask = true;
  TimeStep t = 0;
  std::uint64_t draw_seed = 0;
};

// Random multigraph whose edges avoid a random subset of nodes (left at
// degree zero) and repeat node pairs often (parallel edges).
graph::Multigraph fuzzed_multigraph(Rng& rng) {
  const auto n = static_cast<NodeId>(rng.uniform_int(1, 24));
  graph::Multigraph g(n);
  std::vector<NodeId> wired;
  for (NodeId v = 0; v < n; ++v) {
    if (!rng.bernoulli(0.15)) wired.push_back(v);
  }
  if (wired.size() < 2) return g;
  const auto last = static_cast<std::int64_t>(wired.size()) - 1;
  const std::int64_t m = rng.uniform_int(0, 4 * static_cast<std::int64_t>(n));
  for (std::int64_t k = 0; k < m; ++k) {
    const NodeId a = wired[static_cast<std::size_t>(rng.uniform_int(0, last))];
    const NodeId b = wired[static_cast<std::size_t>(rng.uniform_int(0, last))];
    if (a == b) continue;
    const std::int64_t copies = rng.bernoulli(0.3) ? rng.uniform_int(2, 4) : 1;
    for (std::int64_t c = 0; c < copies; ++c) g.add_edge(a, b);
  }
  return g;
}

// Counts of nodes whose budget q(u) is below, equal to and above their
// active downhill count, so the test can show it covered all three.
struct BudgetCoverage {
  int below = 0;
  int equal = 0;
  int above = 0;

  void add(const StepView& view) {
    for (NodeId u = 0; u < view.incidence->node_count(); ++u) {
      const PacketCount qu = view.queue[static_cast<std::size_t>(u)];
      if (qu <= 0) continue;
      PacketCount downhill = 0;
      for (const graph::IncidentLink& link : view.incidence->incident(u)) {
        if (view.active != nullptr && !view.active->active(link.edge)) {
          continue;
        }
        downhill += view.declared[static_cast<std::size_t>(link.neighbor)] < qu;
      }
      if (downhill == 0) continue;
      below += qu < downhill;
      equal += qu == downhill;
      above += qu > downhill;
    }
  }
};

// Compares both entry points against the reference: select_transmissions
// over every node, and select_for_nodes over a random partition of the
// nodes into ascending lists.
void expect_matches_reference(LggProtocol& lgg, TieBreak tie_break,
                              const StepView& view, Rng& rng, int round) {
  const NodeId n = view.incidence->node_count();
  std::vector<NodeId> all(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) all[static_cast<std::size_t>(v)] = v;
  const Reference whole = reference_select(tie_break, view, all);

  std::vector<Transmission> txs;
  Rng unused(0);
  lgg.select_transmissions(view, unused, txs);
  ASSERT_EQ(txs, whole.txs) << "round " << round;
  EXPECT_EQ(check_transmission_contract(view, txs), "") << "round " << round;

  const auto parts = static_cast<std::size_t>(rng.uniform_int(1, 4));
  std::vector<std::vector<NodeId>> split(parts);
  for (const NodeId v : all) {
    split[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(parts) - 1))]
        .push_back(v);
  }
  for (const std::vector<NodeId>& nodes : split) {
    const Reference part = reference_select(tie_break, view, nodes);
    std::vector<Transmission> got = {Transmission{-1, -1, -1}};
    const std::uint64_t active = lgg.select_for_nodes(view, nodes, got);
    // select_for_nodes appends; the sentinel must survive in front.
    ASSERT_FALSE(got.empty());
    EXPECT_EQ(got.front(), (Transmission{-1, -1, -1}));
    got.erase(got.begin());
    ASSERT_EQ(got, part.txs) << "round " << round;
    EXPECT_EQ(active, part.active) << "round " << round;
  }
}

TEST(SelectionDifferential, MatchesFullSortOnFuzzedMultigraphs) {
  Rng rng(0x5e1ec7ULL);
  BudgetCoverage coverage;
  for (const TieBreak tie_break :
       {TieBreak::kById, TieBreak::kRandomShuffle}) {
    LggProtocol lgg(tie_break);  // reused across rounds: scratch must reset
    for (int round = 0; round < 400; ++round) {
      const FuzzedView fx(fuzzed_multigraph(rng), rng,
                          rng.uniform_int(1, 12));
      coverage.add(fx.view());
      expect_matches_reference(lgg, tie_break, fx.view(), rng, round);
    }
  }
  EXPECT_GT(coverage.below, 0);
  EXPECT_GT(coverage.equal, 0);
  EXPECT_GT(coverage.above, 0);
}

TEST(SelectionDifferential, MatchesFullSortOnHighDegreeStarHub) {
  // Hub 0 with 6000 leaves: budgets below, at and above the downhill count,
  // and divergent hubs whose every active leaf is downhill, so the sort's
  // merge passes run.
  Rng rng(0x57a7ULL);
  constexpr NodeId kLeaves = 6000;
  for (const TieBreak tie_break :
       {TieBreak::kById, TieBreak::kRandomShuffle}) {
    LggProtocol lgg(tie_break);
    int round = 0;
    for (const PacketCount hub_queue :
         {PacketCount{1}, PacketCount{700}, PacketCount{3000},
          PacketCount{1} << 31, PacketCount{1} << 32,
          (PacketCount{1} << 62) + 5}) {
      FuzzedView fx(graph::make_star(kLeaves + 1), rng, 4000);
      fx.queue[0] = hub_queue;
      expect_matches_reference(lgg, tie_break, fx.view(), rng, round++);
    }
    // Budget exactly at the downhill count: 2500 leaves declare below it.
    constexpr PacketCount kAt = 2500;
    FuzzedView fx(graph::make_star(kLeaves + 1), rng, 4000);
    fx.use_mask = false;
    fx.queue[0] = kAt;
    for (NodeId v = 1; v <= kLeaves; ++v) {
      fx.declared[static_cast<std::size_t>(v)] =
          v <= kAt ? rng.uniform_int(0, kAt - 1) : rng.uniform_int(kAt, 5000);
    }
    expect_matches_reference(lgg, tie_break, fx.view(), rng, round);
  }
}

// One hub, node 0, whose list holds exactly `downhill` active links that
// declare below q(0), `uphill` active links that do not, and `masked`
// inactive downhill links (their edges are off in the mask, which is then
// non-null).  Links share a leaf (parallel edges) now and then, so the
// tie-break's (neighbour, edge) order is exercised; edges are added in a
// shuffled order.  Leaves hold no packets.
struct HubCase {
  PacketCount qu = 1;
  int downhill = 0;
  int uphill = 0;
  int masked = 0;
  bool negative = false;  ///< one downhill link declares below zero
};

FuzzedView hub_view(const HubCase& c, Rng& rng) {
  // Declarations at and around the narrow key's edges: 2^32 − 1, 2^32 and
  // 2^32 + 1, both absolute and below q(0).
  constexpr PacketCount k32 = PacketCount{1} << 32;
  const auto below = [&] {
    std::vector<PacketCount> pool;
    for (const PacketCount v : {k32 - 1, k32, k32 + 1, c.qu - (k32 - 1),
                                c.qu - k32, c.qu - (k32 + 1), c.qu - 1,
                                PacketCount{0}}) {
      if (v >= 0 && v < c.qu) pool.push_back(v);
    }
    if (!pool.empty() && rng.bernoulli(0.3)) {
      return pool[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(pool.size()) - 1))];
    }
    return rng.uniform_int(std::max(PacketCount{0}, c.qu - 2 * k32),
                           c.qu - 1);
  };
  const auto at_or_above = [&] {
    return rng.bernoulli(0.3) ? c.qu : rng.uniform_int(c.qu, c.qu + 2 * k32);
  };

  // Each link: (declaration, active).  A link reuses the previous link's
  // leaf a quarter of the time when it is of the same kind.
  struct Link {
    PacketCount declared;
    bool active;
    int kind;
  };
  std::vector<Link> links;
  for (int i = 0; i < c.downhill; ++i) links.push_back({below(), true, 0});
  for (int i = 0; i < c.uphill; ++i) links.push_back({at_or_above(), true, 1});
  for (int i = 0; i < c.masked; ++i) links.push_back({below(), false, 2});
  if (c.negative && c.downhill > 0) {
    links[0].declared = rng.bernoulli(0.5) ? PacketCount{-1} : -(k32 + 7);
  }
  std::vector<NodeId> leaf(links.size());
  NodeId leaves = 0;
  for (std::size_t i = 0; i < links.size(); ++i) {
    const bool share = i > 0 && links[i - 1].kind == links[i].kind &&
                       links[i - 1].active == links[i].active &&
                       rng.bernoulli(0.25);
    if (share) links[i].declared = links[i - 1].declared;
    leaf[i] = share ? leaf[i - 1] : ++leaves;
  }
  std::vector<std::size_t> order(links.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng.engine());

  graph::Multigraph g(leaves + 1);
  std::vector<EdgeId> edge_of(links.size());
  for (const std::size_t i : order) edge_of[i] = g.add_edge(0, leaf[i]);
  Rng unused(0);
  FuzzedView fx(std::move(g), unused, 1);
  std::fill(fx.queue.begin(), fx.queue.end(), 0);
  fx.queue[0] = c.qu;
  fx.declared[0] = c.qu;
  fx.mask.set_all(true);
  for (std::size_t i = 0; i < links.size(); ++i) {
    fx.declared[static_cast<std::size_t>(leaf[i])] = links[i].declared;
    fx.mask.set_active(edge_of[i], links[i].active);
  }
  fx.use_mask = c.masked > 0;
  fx.t = rng.uniform_int(0, 1000);
  fx.draw_seed = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
  return fx;
}

TEST(SelectionDifferential, SweepsEveryDownhillCountAndKeyWidth) {
  // Every D from 0 to 40 crosses each sort's size edges (the networks end
  // at 16, std::sort takes over at 17), with q(0) below, at and above D,
  // and at the narrow key's queue edge 2^32 and past it; with ties,
  // parallel links, a negative declaration, both tie-breaks and the mask
  // on and off.
  constexpr PacketCount k32 = PacketCount{1} << 32;
  Rng rng(0x5eedULL);
  int cases = 0;
  for (const TieBreak tie_break :
       {TieBreak::kById, TieBreak::kRandomShuffle}) {
    LggProtocol lgg(tie_break);
    for (int d = 0; d <= 40; ++d) {
      for (const PacketCount qu :
           {PacketCount{d / 2}, PacketCount{d}, PacketCount{d + 7}, k32 - 1,
            k32, k32 + 1, (PacketCount{1} << 62) + 3}) {
        if (qu <= 0) continue;
        for (const bool masked : {false, true}) {
          for (const bool negative : {false, true}) {
            for (int rep = 0; rep < 3; ++rep) {
              HubCase c;
              c.qu = qu;
              c.downhill = d;
              c.uphill = static_cast<int>(rng.uniform_int(0, 4));
              c.masked = masked ? static_cast<int>(rng.uniform_int(1, 4)) : 0;
              c.negative = negative;
              const FuzzedView fx = hub_view(c, rng);
              expect_matches_reference(lgg, tie_break, fx.view(), rng,
                                       cases++);
            }
          }
        }
      }
    }
  }
  EXPECT_GT(cases, 3000);
}

}  // namespace
}  // namespace lgg::core
