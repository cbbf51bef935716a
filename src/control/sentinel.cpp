#include "control/sentinel.hpp"

#include <algorithm>
#include <sstream>

#include "common/binio.hpp"
#include "common/require.hpp"
#include "core/bounds.hpp"
#include "core/topology_delta.hpp"
#include "flow/incremental.hpp"

namespace lgg::control {

// Out of line so the unique_ptr<IncrementalMaxFlow> members see a complete
// type.
SaturationSentinel::SaturationSentinel(SaturationSentinel&&) noexcept =
    default;
SaturationSentinel& SaturationSentinel::operator=(
    SaturationSentinel&&) noexcept = default;
SaturationSentinel::~SaturationSentinel() = default;

std::string_view to_string(SaturationMode mode) {
  switch (mode) {
    case SaturationMode::kUnsaturated: return "unsaturated";
    case SaturationMode::kNearSaturated: return "near_saturated";
    case SaturationMode::kOverloaded: return "overloaded";
  }
  return "?";
}

SaturationSentinel::SaturationSentinel(const core::SdNetwork& net,
                                       SentinelOptions options)
    : net_(&net), options_(options) {
  LGG_REQUIRE(options_.ewma_alpha > 0.0 && options_.ewma_alpha <= 1.0,
              "sentinel: ewma_alpha outside (0, 1]");
  LGG_REQUIRE(options_.ph_allowance > 0.0, "sentinel: ph_allowance <= 0");
  LGG_REQUIRE(options_.ph_threshold > 0.0, "sentinel: ph_threshold <= 0");
  LGG_REQUIRE(options_.compliance_window >= 0,
              "sentinel: negative compliance_window");
  const double n = static_cast<double>(net.node_count());
  const double delta = static_cast<double>(net.max_degree());
  growth_ = std::max(1.0, 5.0 * n * delta * delta);
  floor_ = std::max(options_.divergence_floor, 256.0 * growth_ * growth_);
  // The exact certificate: max-flow feasibility + the ε-margin search.
  // Degenerate instances the analyzer rejects run certificate-free.
  try {
    const flow::FeasibilityReport report = core::analyze(net);
    cert_feasible_ = report.feasible;
    cert_unsaturated_ = report.unsaturated;
    if (report.unsaturated) {
      state_bound_ = core::unsaturated_bounds(net, report).state;
    }
  } catch (const std::exception&) {
    cert_feasible_ = false;
    cert_unsaturated_ = false;
  }
}

void SaturationSentinel::rebuild_engines(const graph::EdgeMask* mask) {
  cert_exact_.reset();
  cert_margin_.reset();
  const std::vector<flow::RatedNode> sources = net_->source_rates();
  const std::vector<flow::RatedNode> sinks = net_->sink_rates();
  // The margin instance is analyze_feasibility's integer encoding of
  // Definition 4 at the smallest representable ε = 1/kEpsilonDenom: every
  // capacity scaled by the denominator, source rates by denominator + 1.
  flow::ExtendedGraphOptions margin;
  margin.edge_capacity = flow::kEpsilonDenom;
  margin.sink_scale = flow::kEpsilonDenom;
  margin.source_scale = flow::kEpsilonDenom + 1;
  cert_exact_ = std::make_unique<flow::IncrementalMaxFlow>(
      net_->topology(), sources, sinks, flow::ExtendedGraphOptions{}, mask);
  cert_margin_ = std::make_unique<flow::IncrementalMaxFlow>(
      net_->topology(), sources, sinks, margin, mask);
}

void SaturationSentinel::sync_engines(const graph::EdgeMask* mask) {
  const EdgeId edges = net_->topology().edge_count();
  for (EdgeId e = 0; e < edges; ++e) {
    const bool active = mask == nullptr || mask->active(e);
    if (cert_exact_->edge_active(e) != active) {
      cert_exact_->set_edge_active(e, active);
      cert_margin_->set_edge_active(e, active);
    }
  }
  cert_feasible_ = cert_exact_->saturates_sources();
  cert_unsaturated_ = cert_feasible_ && cert_margin_->saturates_sources();
}

void SaturationSentinel::patch_certificate(const graph::EdgeMask* mask,
                                           const core::TopologyDelta* churn) {
  if (cert_exact_ == nullptr || cert_margin_ == nullptr) {
    // First call, or post-restore: there is no warm state to patch.
    try {
      rebuild_engines(mask);
    } catch (const std::exception&) {
      cert_exact_.reset();
      cert_margin_.reset();
      cert_feasible_ = false;
      cert_unsaturated_ = false;
      return;
    }
  } else if (churn != nullptr) {
    for (const core::TopologyDelta::RateChange& rc : churn->rates) {
      cert_exact_->set_source_rate(rc.node, rc.after.in);
      cert_exact_->set_sink_rate(rc.node, rc.after.out);
      cert_margin_->set_source_rate(rc.node, rc.after.in);
      cert_margin_->set_sink_rate(rc.node, rc.after.out);
    }
  }
  if (churn != nullptr && !churn->rates.empty()) {
    // The construction-time Lemma-1 bound was computed from the original
    // rates' Y and ε; after a rate change it no longer applies.  While the
    // exact certificate holds, the certified override simply never reports
    // overload — which the certificate justifies on its own.
    state_bound_.reset();
  }
  sync_engines(mask);
  ++cert_patches_;
}

void SaturationSentinel::observe(TimeStep t, double potential) {
  if (!has_prev_) {
    has_prev_ = true;
    prev_t_ = t;
    prev_potential_ = potential;
    return;
  }
  LGG_REQUIRE(t >= prev_t_, "sentinel: time went backwards");
  const TimeStep span = std::max<TimeStep>(1, t - prev_t_);
  classify(span, potential);
  prev_t_ = t;
  prev_potential_ = potential;
}

void SaturationSentinel::classify(TimeStep span, double potential) {
  const double dp = potential - prev_potential_;
  const double per_step = dp / static_cast<double>(span);
  ewma_ += options_.ewma_alpha * (per_step - ewma_);
  // One-sided Page–Hinkley on the drift with allowance δ = allowance·5nΔ²:
  // PH accumulates only growth in excess of what Property 1 permits, so a
  // clean unsaturated run keeps it at exactly zero.
  const double allowance =
      options_.ph_allowance * growth_ * static_cast<double>(span);
  ph_ = std::max(0.0, ph_ + dp - allowance);
  compliant_streak_ += span;

  const double lambda = options_.ph_threshold * growth_;
  SaturationMode next;
  if (cert_unsaturated_ && compliant_streak_ >= options_.compliance_window) {
    // Certified regime: Lemma 1 is in force; only an outright state-bound
    // breach (impossible for a clean LGG run) counts as overload.
    next = (state_bound_.has_value() && potential > *state_bound_)
               ? SaturationMode::kOverloaded
               : SaturationMode::kUnsaturated;
  } else if (mode_ == SaturationMode::kOverloaded) {
    // Hysteresis: leave overload only once the statistic has drained well
    // below the alarm threshold.
    next = ph_ > lambda / 4.0
               ? SaturationMode::kOverloaded
               : (ph_ > lambda / 8.0 ? SaturationMode::kNearSaturated
                                     : SaturationMode::kUnsaturated);
  } else {
    next = ph_ > lambda
               ? SaturationMode::kOverloaded
               : (ph_ > lambda / 2.0 ? SaturationMode::kNearSaturated
                                     : SaturationMode::kUnsaturated);
  }
  if (next != mode_) {
    mode_ = next;
    time_in_mode_ = 0;
  } else {
    time_in_mode_ += span;
  }
}

bool SaturationSentinel::diverged(double raw_bound, double potential) const {
  if (raw_bound > 0.0 && potential > raw_bound) return true;
  return mode_ == SaturationMode::kOverloaded && potential > floor_;
}

std::string SaturationSentinel::describe_divergence(double raw_bound,
                                                    double potential) const {
  std::ostringstream msg;
  if (raw_bound > 0.0 && potential > raw_bound) {
    msg << "P_t = " << potential << " exceeded the divergence bound "
        << raw_bound;
  } else {
    msg << "saturation sentinel: P_t = " << potential
        << " past the statistical floor " << floor_
        << " while overloaded (Page-Hinkley " << ph_ << ", drift estimate "
        << ewma_ << ")";
  }
  return msg.str();
}

void SaturationSentinel::save_state(std::ostream& out) const {
  binio::write_u8(out, has_prev_ ? 1 : 0);
  binio::write_i64(out, prev_t_);
  binio::write_f64(out, prev_potential_);
  binio::write_f64(out, ewma_);
  binio::write_f64(out, ph_);
  binio::write_i64(out, compliant_streak_);
  binio::write_u8(out, static_cast<std::uint8_t>(mode_));
  binio::write_i64(out, time_in_mode_);
  binio::write_u8(out, cert_feasible_ ? 1 : 0);
  binio::write_u8(out, cert_unsaturated_ ? 1 : 0);
  binio::write_u8(out, state_bound_.has_value() ? 1 : 0);
  binio::write_f64(out, state_bound_.value_or(0.0));
  binio::write_u64(out, cert_patches_);
  binio::write_u64(out, cert_recomputes_);
}

void SaturationSentinel::load_state(std::istream& in) {
  has_prev_ = binio::read_u8(in) != 0;
  prev_t_ = binio::read_i64(in);
  prev_potential_ = binio::read_f64(in);
  ewma_ = binio::read_f64(in);
  ph_ = binio::read_f64(in);
  compliant_streak_ = binio::read_i64(in);
  const std::uint8_t mode = binio::read_u8(in);
  LGG_REQUIRE(mode <= 2, "sentinel state: bad mode");
  mode_ = static_cast<SaturationMode>(mode);
  time_in_mode_ = binio::read_i64(in);
  cert_feasible_ = binio::read_u8(in) != 0;
  cert_unsaturated_ = binio::read_u8(in) != 0;
  const bool has_bound = binio::read_u8(in) != 0;
  const double bound = binio::read_f64(in);
  state_bound_ = has_bound ? std::optional<double>(bound) : std::nullopt;
  cert_patches_ = binio::read_u64(in);
  cert_recomputes_ = binio::read_u64(in);
  // The engines' flow state is not part of the checkpoint; the next
  // patch_certificate rebuilds from the restored network + mask.
  cert_exact_.reset();
  cert_margin_.reset();
}

}  // namespace lgg::control
