#include "graph/graph_io.hpp"

#include <istream>
#include <ostream>
#include <sstream>

namespace lgg::graph {

void write_graph(std::ostream& os, const Multigraph& g) {
  os << "nodes " << g.node_count() << '\n';
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Endpoints ep = g.endpoints(e);
    os << "edge " << ep.u << ' ' << ep.v << '\n';
  }
}

std::string to_string(const Multigraph& g) {
  std::ostringstream os;
  write_graph(os, g);
  return os.str();
}

Multigraph read_graph(std::istream& is) {
  NodeId n = 0;
  std::vector<Endpoints> edges;
  bool have_nodes = false;
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    // Strip comments and skip blank lines.
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream ls(line);
    std::string keyword;
    if (!(ls >> keyword)) continue;
    if (keyword == "nodes") {
      if (have_nodes) throw ParseError("duplicate 'nodes' line", lineno);
      long long count = -1;
      if (!(ls >> count) || count < 0) {
        throw ParseError("bad node count", lineno);
      }
      n = static_cast<NodeId>(count);
      LGG_REQUIRE(n >= 0, "node count must be non-negative");
      have_nodes = true;
    } else if (keyword == "edge") {
      if (!have_nodes) throw ParseError("'edge' before 'nodes'", lineno);
      long long u = -1, v = -1;
      if (!(ls >> u >> v)) throw ParseError("bad edge endpoints", lineno);
      if (u < 0 || v < 0 || u >= n || v >= n) {
        throw ParseError("edge endpoint out of range", lineno);
      }
      if (u == v) throw ParseError("self-loop not allowed", lineno);
      edges.push_back({static_cast<NodeId>(u), static_cast<NodeId>(v)});
    } else {
      throw ParseError("unknown keyword '" + keyword + "'", lineno);
    }
  }
  if (!have_nodes) throw ParseError("missing 'nodes' line", lineno);
  return Multigraph(n, std::move(edges));
}

Multigraph graph_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_graph(is);
}

}  // namespace lgg::graph
