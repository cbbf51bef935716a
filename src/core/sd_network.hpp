// The S-D-network of Section II, generalized per Definitions 5–8.
//
// Every node carries a NodeSpec {in, out, retention}:
//   * classical source       — in > 0, out = 0, retention = 0
//   * classical destination  — in = 0, out > 0, retention = 0
//   * R-generalized node     — any in/out >= 0 with retention R >= 0
//     (a destination if in <= out, otherwise a source, per Definition 7)
//   * plain relay            — in = out = retention = 0
//
// A classical S-D-network is exactly the retention-0 special case, which the
// paper proves (and the test suite checks) behaves identically.
//
// The network carries its certificate: the FeasibilityReport (Definitions
// 3–4 on G*) that analyze() last computed for it.  The graph is fixed at
// construction, so the report depends only on the specs; every role
// mutator drops it, and the next analyze() solves G* again.  A copy shares
// the report, so a network certified once — by scenarios::random_unsaturated,
// say — is not solved again by the simulator, sentinel or oracle that
// receives a copy.  analyze() publishes under a mutex, so threads may analyze
// and copy one const network concurrently.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "flow/feasibility.hpp"
#include "graph/multigraph.hpp"

namespace lgg::core {

struct NodeSpec {
  Cap in = 0;         ///< max packets injected per step, in(v)
  Cap out = 0;        ///< max packets extracted per step, out(v)
  Cap retention = 0;  ///< R of Definition 7 (0 = classical behaviour)

  friend bool operator==(const NodeSpec&, const NodeSpec&) = default;
};

class SdNetwork {
 public:
  /// Empty network; only useful as a placeholder to assign into.
  SdNetwork() = default;

  explicit SdNetwork(graph::Multigraph g)
      : graph_(std::move(g)),
        specs_(static_cast<std::size_t>(graph_.node_count())) {}

  /// Declares a classical source injecting exactly/at most in(s) per step.
  void set_source(NodeId v, Cap in_rate);
  /// Declares a classical destination extracting min{out(d), q} per step.
  void set_sink(NodeId v, Cap out_rate);
  /// Declares an R-generalized node (Definition 7).
  void set_generalized(NodeId v, Cap in_rate, Cap out_rate, Cap retention);
  /// Clears a node back to a plain relay.
  void clear_role(NodeId v);
  /// Replaces a node's spec wholesale (live churn: capacity nudges,
  /// node_leave parking a spec, node_join restoring it).  All-zero specs
  /// are allowed and equivalent to clear_role.
  void set_spec(NodeId v, NodeSpec spec);

  [[nodiscard]] const graph::Multigraph& topology() const { return graph_; }
  [[nodiscard]] NodeId node_count() const { return graph_.node_count(); }
  [[nodiscard]] int max_degree() const { return graph_.max_degree(); }

  [[nodiscard]] const NodeSpec& spec(NodeId v) const {
    LGG_REQUIRE(graph_.valid_node(v), "spec: bad node");
    return specs_[static_cast<std::size_t>(v)];
  }

  // The role indices below are maintained eagerly on every role mutation
  // (set_source/set_sink/set_generalized/clear_role/set_spec), so the
  // simulator's per-step injection and extraction loops touch only the
  // relevant nodes instead of scanning all n.  Random edge churn never
  // change roles, but scheduled churn (core/faults.hpp node_join/
  // node_leave/nudge) mutates specs mid-run through set_spec — callers
  // holding references to these lists must re-read them after any step
  // whose TopologyDelta is non-empty.

  /// Nodes with in > 0 (injection side of S ∪ D), ascending.
  [[nodiscard]] const std::vector<NodeId>& sources() const {
    return source_ids_;
  }
  /// Nodes with out > 0 (extraction side of S ∪ D), ascending.
  [[nodiscard]] const std::vector<NodeId>& sinks() const {
    return sink_ids_;
  }
  /// Nodes with retention > 0 (the only ones whose declaration can lie).
  [[nodiscard]] const std::vector<NodeId>& retention_nodes() const {
    return retention_ids_;
  }
  /// S ∪ D: nodes with in > 0, out > 0, or retention > 0.
  [[nodiscard]] std::vector<NodeId> special_nodes() const;

  /// Σ_s in(s) — the arrival rate of Section II.
  [[nodiscard]] Cap arrival_rate() const;
  /// Σ_d out(d).
  [[nodiscard]] Cap extraction_rate() const;
  /// max over S ∪ D of out(v) (outmax of Properties 3–6).
  [[nodiscard]] Cap max_out() const;
  /// max retention over all nodes.
  [[nodiscard]] Cap max_retention() const;
  /// True if any node deviates from classical source/sink behaviour.
  [[nodiscard]] bool is_generalized() const;

  /// {node, in(v)} for every node with in > 0, in node order — the (s*, v)
  /// arcs of G*.
  [[nodiscard]] std::vector<flow::RatedNode> source_rates() const;
  /// {node, out(v)} for every node with out > 0 — the (v, d*) arcs of G*.
  [[nodiscard]] std::vector<flow::RatedNode> sink_rates() const;

  /// Throws ContractViolation unless the instance has at least one source
  /// and one sink and all rates are sane.
  void validate() const;

  /// The report analyze() published for the current specs, or null when
  /// none has been computed since construction or the last role mutation.
  [[nodiscard]] std::shared_ptr<const flow::FeasibilityReport> certificate()
      const {
    return certificate_.get();
  }

 private:
  friend flow::FeasibilityReport analyze(const SdNetwork& net);

  /// An immutable report shared by copies.  Reads and the publish take the
  /// mutex, since both run on const networks; drop() is a mutation and
  /// needs the same exclusive access as any other.
  class Certificate {
   public:
    Certificate() = default;
    Certificate(const Certificate& other) : report_(other.get()) {}
    Certificate(Certificate&& other) noexcept
        : report_(std::move(other.report_)) {}
    Certificate& operator=(const Certificate& other) {
      report_ = other.get();
      return *this;
    }
    Certificate& operator=(Certificate&& other) noexcept {
      report_ = std::move(other.report_);
      return *this;
    }

    [[nodiscard]] std::shared_ptr<const flow::FeasibilityReport> get() const {
      const std::lock_guard lock(mutex_);
      return report_;
    }
    /// Keeps the report published first; returns the one kept.
    std::shared_ptr<const flow::FeasibilityReport> publish(
        std::shared_ptr<const flow::FeasibilityReport> report) const {
      const std::lock_guard lock(mutex_);
      if (report_ == nullptr) report_ = std::move(report);
      return report_;
    }
    void drop() { report_.reset(); }

   private:
    mutable std::mutex mutex_;
    mutable std::shared_ptr<const flow::FeasibilityReport> report_;
  };

  void update_role_index(NodeId v);

  graph::Multigraph graph_;
  std::vector<NodeSpec> specs_;
  std::vector<NodeId> source_ids_;     // in > 0, ascending
  std::vector<NodeId> sink_ids_;       // out > 0, ascending
  std::vector<NodeId> retention_ids_;  // retention > 0, ascending
  Certificate certificate_;
};

/// Full Section-II/V analysis of the instance (feasibility, f*, ε, min-cut
/// placement) via the extended graph G*.  Returns the network's
/// certificate when it carries one; otherwise solves G* and publishes the
/// report as the certificate.
flow::FeasibilityReport analyze(const SdNetwork& net);

/// One-line human summary ("n=12 Δ=4 |S|=2 |D|=3 rate=5 feasible unsaturated
/// eps=0.25 ...") for logs and bench output.
std::string describe(const SdNetwork& net,
                     const flow::FeasibilityReport& report);

}  // namespace lgg::core
