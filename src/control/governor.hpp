// Adaptive admission control driven by the saturation sentinel.
//
// The governor gates every source's injection through a token-bucket
// multiplier m ∈ [min_multiplier, 1] updated AIMD-style from the sentinel's
// verdict:
//
//  * multiplicative shed — on kOverloaded, m ← β·m (once per hold window),
//    cutting the offered load until the Page–Hinkley statistic drains;
//  * additive probe — after a quiet window of kUnsaturated with the drift
//    estimate at or below target_eps·5nΔ², m ← m + probe_increment, and it
//    snaps to exactly 1.0 at the top.
//
// At m == 1.0 admit() returns `offered` untouched — no floating point ever
// meets the packet counts — so a feasible network that is never classified
// overloaded (guaranteed for clean LGG runs by the sentinel's certificate
// override plus the Property-1 calibration of the Page–Hinkley test) sheds
// zero packets and its trajectory is bitwise-identical to an ungoverned
// run.  Below 1.0, per-source Bresenham-style fractional credits make the
// gating deterministic and exactly checkpointable.
//
// Degradation order comes from BrownoutPolicy: uniform by default, the
// ordered defer-lowest-priority-first ladder when `brownout` is set.
#pragma once

#include <span>
#include <vector>

#include "control/brownout.hpp"
#include "control/sentinel.hpp"
#include "core/admission.hpp"
#include "obs/registry.hpp"

namespace lgg::control {

struct GovernorOptions {
  /// Tolerated residual drift, as a fraction of the Property-1 growth bound
  /// 5nΔ², below which the probe path re-admits.
  double target_eps = 0.05;
  /// Multiplicative decrease factor applied on kOverloaded.
  double beta = 0.5;
  /// Additive probe increment toward full admission.
  double probe_increment = 1.0 / 16.0;
  /// Floor for the global multiplier (and the brownout ladder's per-source
  /// floor): the governor never starves a source completely.
  double min_multiplier = 1.0 / 16.0;
  /// Minimum steps between consecutive multiplier changes (either
  /// direction) — the AIMD hysteresis.
  TimeStep hold_steps = 32;
  /// Steps of uninterrupted kUnsaturated required before probing starts.
  TimeStep quiet_steps = 128;
  /// Use the ordered brownout ladder instead of uniform shedding.
  bool brownout = false;
  SentinelOptions sentinel;
};

class AdmissionGovernor final : public core::AdmissionController {
 public:
  explicit AdmissionGovernor(const core::SdNetwork& net,
                             GovernorOptions options = {});

  void begin_step(const StepContext& ctx) override;
  PacketCount admit(NodeId v, Cap in_rate, PacketCount offered) override;
  [[nodiscard]] int mode() const override {
    return static_cast<int>(sentinel_.mode());
  }
  [[nodiscard]] PacketCount total_shed() const override { return total_shed_; }
  [[nodiscard]] double overload_bound() const override {
    return engaged_ ? overload_bound_ : 0.0;
  }
  void register_metrics(obs::MetricRegistry& registry) override;
  void save_state(std::ostream& out) const override;
  void load_state(std::istream& in) override;

  [[nodiscard]] const GovernorOptions& options() const { return options_; }
  [[nodiscard]] double multiplier() const { return multiplier_; }
  [[nodiscard]] const SaturationSentinel& sentinel() const {
    return sentinel_;
  }
  /// Fairness accounting, parallel to the network's ascending source list.
  [[nodiscard]] std::span<const PacketCount> offered_per_source() const {
    return offered_;
  }
  [[nodiscard]] std::span<const PacketCount> shed_per_source() const {
    return shed_;
  }

 private:
  [[nodiscard]] std::size_t source_index(NodeId v) const;

  GovernorOptions options_;
  SaturationSentinel sentinel_;
  BrownoutPolicy policy_;

  std::vector<NodeId> sources_;          // ascending, from the network
  std::vector<Cap> rates_;               // declared in-rates, parallel
  std::vector<std::int32_t> source_of_;  // node id -> source index, -1

  double multiplier_ = 1.0;
  TimeStep last_change_t_ = 0;
  bool has_changed_ = false;  // last_change_t_ meaningful only after first
  bool engaged_ = false;      // shed at least once since construction
  double overload_bound_ = 0.0;
  std::uint64_t last_topology_version_ = 0;
  TimeStep last_cert_t_ = 0;

  std::vector<double> effective_;   // per-source multiplier (brownout)
  std::vector<double> credit_;      // fractional admission credits
  std::vector<PacketCount> offered_;
  std::vector<PacketCount> shed_;
  PacketCount total_shed_ = 0;

  obs::Gauge* multiplier_gauge_ = nullptr;
  obs::Gauge* drift_gauge_ = nullptr;
  obs::Gauge* mode_gauge_ = nullptr;
  obs::Gauge* time_in_mode_gauge_ = nullptr;
  obs::Gauge* cert_patches_gauge_ = nullptr;
  obs::Gauge* cert_recomputes_gauge_ = nullptr;
  obs::Gauge* cert_age_gauge_ = nullptr;
  obs::Counter* shed_counter_ = nullptr;
};

}  // namespace lgg::control
