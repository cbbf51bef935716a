#include "core/throughput.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/simulator.hpp"

namespace lgg::core {

SdNetwork saturate_sources(const SdNetwork& net, Cap rate) {
  LGG_REQUIRE(rate >= 1, "saturate_sources: rate >= 1");
  SdNetwork out(net.topology());
  for (NodeId v = 0; v < net.node_count(); ++v) {
    const NodeSpec& spec = net.spec(v);
    if (spec.in > 0) {
      out.set_generalized(v, std::max(spec.in, rate), spec.out,
                          spec.retention);
    } else if (spec.out > 0 || spec.retention > 0) {
      out.set_generalized(v, spec.in, spec.out, spec.retention);
    }
  }
  return out;
}

QueueCut cut_from_queue_profile(const SdNetwork& net,
                                std::span<const PacketCount> queues) {
  LGG_REQUIRE(static_cast<NodeId>(queues.size()) == net.node_count(),
              "cut_from_queue_profile: queue size mismatch");
  const graph::Multigraph& g = net.topology();
  // A(ℓ) holds every source iff ℓ is at most the lowest source queue.
  PacketCount top = std::numeric_limits<PacketCount>::max();
  for (const NodeId s : net.sources()) {
    top = std::min(top, queues[static_cast<std::size_t>(s)]);
  }
  // Sweep the distinct positive levels from high to low.  Lowering ℓ past a
  // level moves that level's nodes into A; each moved node's incident edges
  // flip between crossing and inside, and a moved sink adds its out(d).
  std::vector<NodeId> order(queues.size());
  std::iota(order.begin(), order.end(), NodeId{0});
  std::sort(order.begin(), order.end(), [&queues](NodeId a, NodeId b) {
    return queues[static_cast<std::size_t>(a)] >
           queues[static_cast<std::size_t>(b)];
  });
  std::vector<char> inside(queues.size(), 0);
  Cap value = 0;
  QueueCut best;
  bool found = false;
  for (std::size_t i = 0; i < order.size();) {
    const PacketCount level = queues[static_cast<std::size_t>(order[i])];
    if (level <= 0) break;
    for (; i < order.size() &&
           queues[static_cast<std::size_t>(order[i])] == level;
         ++i) {
      const NodeId v = order[i];
      inside[static_cast<std::size_t>(v)] = 1;
      for (const graph::IncidentLink& link : g.incident(v)) {
        value += inside[static_cast<std::size_t>(link.neighbor)] ? -1 : 1;
      }
      value += net.spec(v).out;
    }
    // Levels fall, so on a tie the lower level wins.
    if (level <= top && (!found || value <= best.value)) {
      best.value = value;
      best.level = level;
      found = true;
    }
  }
  LGG_REQUIRE(found,
              "cut_from_queue_profile: no level set contains every source "
              "(run the network to saturation first)");
  best.side_a.resize(queues.size());
  for (std::size_t v = 0; v < queues.size(); ++v) {
    best.side_a[v] = queues[v] >= best.level ? 1 : 0;
  }
  return best;
}

ThroughputEstimate estimate_max_flow_via_lgg(const SdNetwork& net,
                                             TimeStep warmup,
                                             TimeStep window,
                                             std::uint64_t seed) {
  LGG_REQUIRE(warmup >= 0 && window >= 1,
              "estimate_max_flow_via_lgg: bad horizon");
  net.validate();
  ThroughputEstimate estimate;
  estimate.warmup = warmup;
  estimate.window = window;
  estimate.fstar = analyze(net).fstar;

  SimulatorOptions options;
  options.seed = seed;
  Simulator sim(net, options);
  sim.run(warmup);
  const PacketCount before = sim.cumulative().extracted;
  sim.run(window);
  const PacketCount delivered = sim.cumulative().extracted - before;
  estimate.rate = static_cast<double>(delivered) /
                  static_cast<double>(window);
  estimate.relative_error =
      std::abs(estimate.rate - static_cast<double>(estimate.fstar)) /
      std::max<double>(static_cast<double>(estimate.fstar), 1.0);
  return estimate;
}

}  // namespace lgg::core
