#include "core/scenarios.hpp"

#include <cmath>
#include <stdexcept>

#include "graph/generators.hpp"

namespace lgg::core::scenarios {

SdNetwork single_path(NodeId len, Cap in, Cap out) {
  LGG_REQUIRE(len >= 2, "single_path: len >= 2");
  SdNetwork net(graph::make_path(len));
  net.set_source(0, in);
  net.set_sink(len - 1, out);
  return net;
}

SdNetwork fat_path(NodeId len, int multiplicity, Cap in, Cap out) {
  LGG_REQUIRE(len >= 2, "fat_path: len >= 2");
  SdNetwork net(graph::make_fat_path(len, multiplicity));
  net.set_source(0, in);
  net.set_sink(len - 1, out);
  return net;
}

SdNetwork grid_flow(NodeId rows, NodeId cols, Cap in, Cap out) {
  LGG_REQUIRE(rows >= 1 && cols >= 2, "grid_flow: rows >= 1, cols >= 2");
  SdNetwork net(graph::make_grid(rows, cols));
  for (NodeId r = 0; r < rows; ++r) {
    net.set_source(r * cols, in);
    net.set_sink(r * cols + cols - 1, out);
  }
  return net;
}

SdNetwork grid_single(NodeId rows, NodeId cols, Cap in, Cap out) {
  LGG_REQUIRE(rows >= 2 && cols >= 2, "grid_single: rows, cols >= 2");
  SdNetwork net(graph::make_grid(rows, cols));
  net.set_source((rows / 2) * cols, in);
  for (NodeId r = 0; r < rows; ++r) {
    net.set_sink(r * cols + cols - 1, out);
  }
  return net;
}

SdNetwork bipartite(NodeId a, NodeId b, Cap in, Cap out) {
  SdNetwork net(graph::make_complete_bipartite(a, b));
  for (NodeId v = 0; v < a; ++v) net.set_source(v, in);
  for (NodeId v = 0; v < b; ++v) net.set_sink(a + v, out);
  return net;
}

SdNetwork barbell_bottleneck(NodeId k, Cap total_in, Cap out) {
  LGG_REQUIRE(k >= 2, "barbell_bottleneck: k >= 2");
  LGG_REQUIRE(total_in >= 1, "barbell_bottleneck: total_in >= 1");
  SdNetwork net(graph::make_barbell(k));
  net.set_source(0, total_in);
  net.set_sink(2 * k - 1, out);
  return net;
}

SdNetwork random_unsaturated(NodeId n, EdgeId m, int nsrc, int nsink,
                             std::uint64_t seed, Cap out) {
  LGG_REQUIRE(n >= 2, "random_unsaturated: n >= 2");
  LGG_REQUIRE(nsrc >= 1 && nsink >= 1 && nsrc + nsink <= n,
              "random_unsaturated: bad source/sink counts");
  for (int attempt = 0; attempt < 200; ++attempt) {
    const std::uint64_t s = derive_seed(seed, static_cast<std::uint64_t>(attempt));
    graph::Multigraph g = graph::make_random_multigraph(n, m, s);
    if (!graph::is_connected(g)) continue;
    SdNetwork net(std::move(g));
    // Sources at the front, sinks at the back of the id space.
    for (int i = 0; i < nsrc; ++i) net.set_source(static_cast<NodeId>(i), 1);
    for (int i = 0; i < nsink; ++i) {
      net.set_sink(n - 1 - static_cast<NodeId>(i), out);
    }
    const flow::FeasibilityReport report = analyze(net);
    if (report.feasible && report.unsaturated) return net;
  }
  throw std::runtime_error(
      "random_unsaturated: no feasible unsaturated instance found; "
      "increase m or reduce nsrc");
}

SdNetwork saturated_at_dstar(NodeId a) {
  LGG_REQUIRE(a >= 1, "saturated_at_dstar: a >= 1");
  return bipartite(a, a, /*in=*/1, /*out=*/1);
}

SdNetwork clique_chain(NodeId k, int count, Cap out) {
  LGG_REQUIRE(k >= 2, "clique_chain: k >= 2");
  LGG_REQUIRE(count >= 2, "clique_chain: count >= 2");
  std::vector<graph::Endpoints> edges;
  for (int c = 0; c < count; ++c) {
    const NodeId base = k * static_cast<NodeId>(c);
    for (NodeId u = 0; u < k; ++u) {
      for (NodeId v = u + 1; v < k; ++v) {
        edges.push_back({base + u, base + v});
      }
    }
    if (c + 1 < count) {
      // Bridge from this clique's last node to the next clique's first.
      edges.push_back({base + k - 1, base + k});
    }
  }
  SdNetwork net(graph::Multigraph(k * static_cast<NodeId>(count),
                                  std::move(edges)));
  net.set_source(0, 1);
  net.set_sink(k * static_cast<NodeId>(count) - 1, out);
  return net;
}

SdNetwork scale_arrivals(const SdNetwork& net, double factor) {
  LGG_REQUIRE(factor > 0.0, "scale_arrivals: factor > 0");
  SdNetwork scaled(net.topology());
  for (NodeId v = 0; v < net.node_count(); ++v) {
    const NodeSpec& spec = net.spec(v);
    if (spec.in == 0 && spec.out == 0 && spec.retention == 0) continue;
    const auto scaled_in = static_cast<Cap>(
        std::ceil(static_cast<double>(spec.in) * factor));
    if (scaled_in > 0 || spec.out > 0 || spec.retention > 0) {
      scaled.set_generalized(v, scaled_in, spec.out, spec.retention);
    }
  }
  return scaled;
}

SdNetwork generalize(const SdNetwork& net, Cap retention) {
  LGG_REQUIRE(retention >= 0, "generalize: retention >= 0");
  SdNetwork gen(net.topology());
  for (NodeId v = 0; v < net.node_count(); ++v) {
    const NodeSpec& spec = net.spec(v);
    if (spec.in == 0 && spec.out == 0 && spec.retention == 0) continue;
    gen.set_generalized(v, spec.in, spec.out, retention);
  }
  return gen;
}

}  // namespace lgg::core::scenarios
