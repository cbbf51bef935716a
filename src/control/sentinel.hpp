// Online saturation detection for the potential P_t = Σ q².
//
// The paper's dichotomy makes P_t drift the natural control signal: an
// unsaturated network obeys Property 1 (ΔP ≤ 5nΔ² every step) and Lemma 1
// (P_t ≤ nY² + 5nΔ² forever), while an infeasible one diverges under any
// protocol.  The sentinel watches the drift two ways at once:
//
//  * statistically — an EWMA of the per-step drift plus a one-sided
//    Page–Hinkley cumulative test with allowance δ = 5nΔ².  Because
//    Property 1 caps every clean-LGG step at exactly δ, the Page–Hinkley
//    statistic is identically 0 on any unsaturated trajectory; only
//    super-Property-1 growth (overload, surges) can accumulate toward the
//    alarm threshold λ.
//  * exactly — a feasibility certificate from the Section-II analysis
//    (max-flow + ε-margin search) computed at construction and patched
//    incrementally (warm-started max-flow) when the topology changes.
//    While the certificate holds *and* observed arrivals have respected
//    the declared rates for a full compliance window, Lemma 1 is in force
//    and the sentinel refuses to report overload unless P_t outright
//    exceeds the Lemma-1 state bound — which a clean run provably never
//    does.
//
// observe() is gap-tolerant: callers may feed every step (the admission
// governor) or every check_every steps (RunSupervisor, chaos::Runner); the
// statistic is normalized by the elapsed span so both see the same test.
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/types.hpp"
#include "core/sd_network.hpp"

namespace lgg::core {
struct TopologyDelta;
}  // namespace lgg::core

namespace lgg::flow {
class IncrementalMaxFlow;
}  // namespace lgg::flow

namespace lgg::control {

enum class SaturationMode : int {
  kUnsaturated = 0,
  kNearSaturated = 1,
  kOverloaded = 2,
};

[[nodiscard]] std::string_view to_string(SaturationMode mode);

struct SentinelOptions {
  /// EWMA smoothing for the normalized per-step drift estimate.
  double ewma_alpha = 1.0 / 64.0;
  /// Page–Hinkley allowance, as a multiple of the Property-1 growth bound
  /// 5nΔ².  1.0 means a clean LGG run keeps the statistic at exactly 0.
  double ph_allowance = 1.0;
  /// Alarm threshold λ, as a multiple of 5nΔ²: kOverloaded at PH > λ,
  /// kNearSaturated at PH > λ/2, with hysteresis on the way down (an
  /// overloaded sentinel stays overloaded until PH < λ/4).
  double ph_threshold = 8.0;
  /// Steps of rate-compliant offers required before the feasibility
  /// certificate overrides the statistical verdict.
  TimeStep compliance_window = 64;
  /// Statistical divergence floor: diverged() only reports on the
  /// statistical path once P_t exceeds max(this, 256·(5nΔ²)²).  Keeps the
  /// unified verdict from firing earlier than the legacy raw thresholds on
  /// bounded-noise runs.
  double divergence_floor = 1e9;
};

class SaturationSentinel {
 public:
  /// Runs the exact feasibility analysis once at construction; degenerate
  /// instances the analyzer rejects simply get no certificate (the
  /// statistical path still works).
  explicit SaturationSentinel(const core::SdNetwork& net,
                              SentinelOptions options = {});

  /// Feed the potential observed at step t.  Gaps are fine; t must be
  /// non-decreasing.
  void observe(TimeStep t, double potential);

  /// Arrival compliance feedback: call when a source offered more than its
  /// declared in-rate this step (fault surges, hostile arrivals).  Resets
  /// the compliance streak, suspending the certificate override.
  void note_noncompliant_offer() { compliant_streak_ = 0; }

  /// Re-certifies after a topology change: patches two warm-started
  /// max-flow engines (flow/incremental.hpp) — the exact-rate instance for
  /// Definition-3 feasibility and the (1+1/kEpsilonDenom)-scaled margin
  /// instance for Definition-4 unsaturation — across this step's
  /// mutations.  `mask` is the step's active mask (nullptr = all edges);
  /// `churn` carries the step's rate changes (may be nullptr).  Mask diffs
  /// are self-healing (the engines are reconciled against the actual mask,
  /// whatever was missed), so the certificate is exact after every call;
  /// only the augmentation work is O(affected region).  The unsaturated
  /// verdict stays live on restricted masks — it is exact for the current
  /// topology.  After a rate change the construction-time Lemma-1 state
  /// bound no longer applies and is dropped (state_bound() goes empty; the
  /// certified override then never reports overload, which the exact
  /// certificate justifies).
  void patch_certificate(const graph::EdgeMask* mask,
                         const core::TopologyDelta* churn);

  /// Patch-vs-recompute accounting (checkpointed, so a resumed run reports
  /// the same totals as an uninterrupted one).  Every re-certification is
  /// a patch; engine rebuilds (first patch, post-restore) are not counted
  /// as recomputes, so certificate_recomputes() keeps the value a
  /// checkpoint carried — 0 for any run of this build.
  [[nodiscard]] std::uint64_t certificate_patches() const {
    return cert_patches_;
  }
  [[nodiscard]] std::uint64_t certificate_recomputes() const {
    return cert_recomputes_;
  }

  [[nodiscard]] SaturationMode mode() const { return mode_; }
  /// EWMA of the normalized per-step drift of P_t.
  [[nodiscard]] double drift_estimate() const { return ewma_; }
  [[nodiscard]] double page_hinkley() const { return ph_; }
  /// Steps spent in the current mode.
  [[nodiscard]] TimeStep time_in_mode() const { return time_in_mode_; }
  /// The Property-1 growth bound 5nΔ² the test is calibrated against.
  [[nodiscard]] double growth_bound() const { return growth_; }
  /// Lemma-1 state bound, when the instance is certified unsaturated.
  [[nodiscard]] std::optional<double> state_bound() const {
    return state_bound_;
  }
  [[nodiscard]] bool certificate_feasible() const { return cert_feasible_; }
  [[nodiscard]] bool certificate_unsaturated() const {
    return cert_unsaturated_;
  }

  /// Unified divergence verdict shared by RunSupervisor and chaos::Runner:
  /// the caller's raw bound stays as a compatibility backstop; on top of it
  /// the sentinel reports divergence when it is in kOverloaded with the
  /// potential past the statistical floor.  `raw_bound <= 0` disables the
  /// backstop.
  [[nodiscard]] bool diverged(double raw_bound, double potential) const;
  /// Human-readable reason for a diverged() == true verdict.
  [[nodiscard]] std::string describe_divergence(double raw_bound,
                                                double potential) const;

  SaturationSentinel(SaturationSentinel&&) noexcept;
  SaturationSentinel& operator=(SaturationSentinel&&) noexcept;
  ~SaturationSentinel();

  void save_state(std::ostream& out) const;
  void load_state(std::istream& in);

 private:
  void classify(TimeStep span, double potential);
  /// (Re)builds the two incremental engines from the current network and
  /// mask.  Not counted as a recompute, so the counters of a resumed run
  /// (whose engines a checkpoint could not carry) match an uninterrupted
  /// one.
  void rebuild_engines(const graph::EdgeMask* mask);
  /// Reconciles both engines' edge activations with `mask` and reads off
  /// the certificate.
  void sync_engines(const graph::EdgeMask* mask);

  const core::SdNetwork* net_;
  SentinelOptions options_;
  double growth_ = 0.0;                // 5 n Δ²
  double floor_ = 0.0;                 // statistical divergence floor
  std::optional<double> state_bound_;  // Lemma 1, when certified

  bool cert_feasible_ = false;
  bool cert_unsaturated_ = false;

  // Warm-started certificate engines (null until the first
  // patch_certificate, or when the analyzer rejects the instance).  Their
  // flow state is not checkpointed: load_state drops them and the next
  // patch silently rebuilds from the restored network + mask.
  std::unique_ptr<flow::IncrementalMaxFlow> cert_exact_;
  std::unique_ptr<flow::IncrementalMaxFlow> cert_margin_;
  std::uint64_t cert_patches_ = 0;
  std::uint64_t cert_recomputes_ = 0;

  bool has_prev_ = false;
  TimeStep prev_t_ = 0;
  double prev_potential_ = 0.0;
  double ewma_ = 0.0;
  double ph_ = 0.0;
  TimeStep compliant_streak_ = 0;
  SaturationMode mode_ = SaturationMode::kUnsaturated;
  TimeStep time_in_mode_ = 0;
};

}  // namespace lgg::control
