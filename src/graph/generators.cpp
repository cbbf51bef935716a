#include "graph/generators.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <set>
#include <utility>
#include <vector>

namespace lgg::graph {

Multigraph make_path(NodeId n) {
  LGG_REQUIRE(n >= 1, "make_path: n >= 1");
  std::vector<Endpoints> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  return Multigraph(n, std::move(edges));
}

Multigraph make_cycle(NodeId n) {
  LGG_REQUIRE(n >= 3, "make_cycle: n >= 3");
  std::vector<Endpoints> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  edges.push_back({n - 1, 0});
  return Multigraph(n, std::move(edges));
}

Multigraph make_star(NodeId n) {
  LGG_REQUIRE(n >= 2, "make_star: n >= 2");
  std::vector<Endpoints> edges;
  for (NodeId v = 1; v < n; ++v) edges.push_back({0, v});
  return Multigraph(n, std::move(edges));
}

Multigraph make_complete(NodeId n) {
  LGG_REQUIRE(n >= 1, "make_complete: n >= 1");
  std::vector<Endpoints> edges;
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v) edges.push_back({u, v});
  return Multigraph(n, std::move(edges));
}

Multigraph make_complete_bipartite(NodeId a, NodeId b) {
  LGG_REQUIRE(a >= 1 && b >= 1, "make_complete_bipartite: a, b >= 1");
  std::vector<Endpoints> edges;
  for (NodeId u = 0; u < a; ++u)
    for (NodeId v = 0; v < b; ++v) edges.push_back({u, a + v});
  return Multigraph(a + b, std::move(edges));
}

Multigraph make_grid(NodeId rows, NodeId cols) {
  LGG_REQUIRE(rows >= 1 && cols >= 1, "make_grid: rows, cols >= 1");
  std::vector<Endpoints> edges;
  const auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.push_back({id(r, c), id(r, c + 1)});
      if (r + 1 < rows) edges.push_back({id(r, c), id(r + 1, c)});
    }
  }
  return Multigraph(rows * cols, std::move(edges));
}

Multigraph make_torus(NodeId rows, NodeId cols) {
  LGG_REQUIRE(rows >= 3 && cols >= 3, "make_torus: rows, cols >= 3");
  std::vector<Endpoints> edges;
  const auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      edges.push_back({id(r, c), id(r, (c + 1) % cols)});
      edges.push_back({id(r, c), id((r + 1) % rows, c)});
    }
  }
  return Multigraph(rows * cols, std::move(edges));
}

Multigraph make_fat_path(NodeId len, int multiplicity) {
  LGG_REQUIRE(len >= 1, "make_fat_path: len >= 1");
  LGG_REQUIRE(multiplicity >= 1, "make_fat_path: multiplicity >= 1");
  std::vector<Endpoints> edges;
  for (NodeId v = 0; v + 1 < len; ++v)
    for (int k = 0; k < multiplicity; ++k) edges.push_back({v, v + 1});
  return Multigraph(len, std::move(edges));
}

Multigraph make_erdos_renyi(NodeId n, double p, std::uint64_t seed) {
  LGG_REQUIRE(n >= 1, "make_erdos_renyi: n >= 1");
  LGG_REQUIRE(p >= 0.0 && p <= 1.0, "make_erdos_renyi: p in [0,1]");
  Rng rng(seed);
  std::vector<Endpoints> edges;
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v)
      if (rng.bernoulli(p)) edges.push_back({u, v});
  return Multigraph(n, std::move(edges));
}

Multigraph make_random_multigraph(NodeId n, EdgeId m, std::uint64_t seed) {
  LGG_REQUIRE(n >= 2, "make_random_multigraph: n >= 2");
  LGG_REQUIRE(m >= 0, "make_random_multigraph: m >= 0");
  Rng rng(seed);
  std::vector<Endpoints> edges(static_cast<std::size_t>(m));
  for (Endpoints& ep : edges) {
    ep.u = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    ep.v = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    while (ep.v == ep.u) {
      ep.v = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    }
  }
  return Multigraph(n, std::move(edges));
}

Multigraph make_random_regular(NodeId n, int d, std::uint64_t seed) {
  LGG_REQUIRE(n >= 2 && d >= 1, "make_random_regular: n >= 2, d >= 1");
  LGG_REQUIRE(d < n, "make_random_regular: d < n");
  LGG_REQUIRE((static_cast<std::int64_t>(n) * d) % 2 == 0,
              "make_random_regular: n*d must be even");
  Rng rng(seed);
  // Pairing model: d stubs per node, random perfect matching on stubs,
  // retry on self-loops or parallel edges.
  std::vector<NodeId> stubs;
  stubs.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(d));
  for (int attempt = 0; attempt < 2000; ++attempt) {
    stubs.clear();
    for (NodeId v = 0; v < n; ++v)
      for (int k = 0; k < d; ++k) stubs.push_back(v);
    std::shuffle(stubs.begin(), stubs.end(), rng.engine());
    std::set<std::pair<NodeId, NodeId>> seen;
    bool ok = true;
    for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
      NodeId u = stubs[i], v = stubs[i + 1];
      if (u == v) { ok = false; break; }
      auto key = std::minmax(u, v);
      if (!seen.insert({key.first, key.second}).second) { ok = false; break; }
    }
    if (!ok) continue;
    std::vector<Endpoints> edges;
    for (std::size_t i = 0; i + 1 < stubs.size(); i += 2)
      edges.push_back({stubs[i], stubs[i + 1]});
    return Multigraph(n, std::move(edges));
  }
  throw std::runtime_error(
      "make_random_regular: pairing model failed to produce a simple graph");
}

Multigraph make_layered(NodeId layers, NodeId width, int fan,
                        std::uint64_t seed) {
  LGG_REQUIRE(layers >= 2 && width >= 1, "make_layered: layers >= 2, width >= 1");
  LGG_REQUIRE(fan >= 1 && fan <= width, "make_layered: 1 <= fan <= width");
  Rng rng(seed);
  std::vector<Endpoints> edges;
  std::vector<NodeId> perm(static_cast<std::size_t>(width));
  for (NodeId layer = 0; layer + 1 < layers; ++layer) {
    for (NodeId i = 0; i < width; ++i) {
      std::iota(perm.begin(), perm.end(), NodeId{0});
      std::shuffle(perm.begin(), perm.end(), rng.engine());
      for (int k = 0; k < fan; ++k) {
        edges.push_back(
            {layer * width + i,
             (layer + 1) * width + perm[static_cast<std::size_t>(k)]});
      }
    }
  }
  return Multigraph(layers * width, std::move(edges));
}

Multigraph make_barbell(NodeId k) {
  LGG_REQUIRE(k >= 2, "make_barbell: k >= 2");
  std::vector<Endpoints> edges;
  for (NodeId u = 0; u < k; ++u)
    for (NodeId v = u + 1; v < k; ++v) {
      edges.push_back({u, v});
      edges.push_back({k + u, k + v});
    }
  edges.push_back({k - 1, k});  // bridge
  return Multigraph(2 * k, std::move(edges));
}

Multigraph make_hypercube(int d) {
  LGG_REQUIRE(d >= 1 && d <= 20, "make_hypercube: 1 <= d <= 20");
  const NodeId n = static_cast<NodeId>(1) << d;
  std::vector<Endpoints> edges;
  for (NodeId v = 0; v < n; ++v) {
    for (int bit = 0; bit < d; ++bit) {
      const NodeId u = v ^ (static_cast<NodeId>(1) << bit);
      if (v < u) edges.push_back({v, u});
    }
  }
  return Multigraph(n, std::move(edges));
}

Multigraph make_circulant(NodeId n, const std::vector<int>& offsets) {
  LGG_REQUIRE(n >= 3, "make_circulant: n >= 3");
  std::vector<Endpoints> edges;
  for (const int o : offsets) {
    LGG_REQUIRE(o >= 1 && o <= n / 2, "make_circulant: offset in [1, n/2]");
    if (2 * o == n) {
      for (NodeId v = 0; v < n / 2; ++v) edges.push_back({v, v + o});
    } else {
      for (NodeId v = 0; v < n; ++v) edges.push_back({v, (v + o) % n});
    }
  }
  return Multigraph(n, std::move(edges));
}

Multigraph make_caterpillar(NodeId spine, int legs) {
  LGG_REQUIRE(spine >= 1, "make_caterpillar: spine >= 1");
  LGG_REQUIRE(legs >= 0, "make_caterpillar: legs >= 0");
  std::vector<Endpoints> edges;
  for (NodeId v = 0; v + 1 < spine; ++v) edges.push_back({v, v + 1});
  for (NodeId v = 0; v < spine; ++v) {
    for (int leg = 0; leg < legs; ++leg) {
      edges.push_back({v, spine + v * legs + leg});
    }
  }
  return Multigraph(spine + spine * legs, std::move(edges));
}

void thicken(Multigraph& g, EdgeId extra, std::uint64_t seed) {
  LGG_REQUIRE(g.edge_count() > 0 || extra == 0,
              "thicken: cannot thicken an edgeless graph");
  Rng rng(seed);
  const EdgeId base = g.edge_count();
  for (EdgeId i = 0; i < extra; ++i) {
    const auto e = static_cast<EdgeId>(rng.uniform_int(0, base - 1));
    const Endpoints ep = g.endpoints(e);
    g.add_edge(ep.u, ep.v);
  }
}

bool is_connected(const Multigraph& g) {
  if (g.node_count() <= 1) return true;
  std::vector<char> seen(static_cast<std::size_t>(g.node_count()), 0);
  std::queue<NodeId> bfs;
  bfs.push(0);
  seen[0] = 1;
  NodeId reached = 1;
  while (!bfs.empty()) {
    const NodeId u = bfs.front();
    bfs.pop();
    for (const IncidentLink& l : g.incident(u)) {
      if (!seen[static_cast<std::size_t>(l.neighbor)]) {
        seen[static_cast<std::size_t>(l.neighbor)] = 1;
        ++reached;
        bfs.push(l.neighbor);
      }
    }
  }
  return reached == g.node_count();
}

}  // namespace lgg::graph
