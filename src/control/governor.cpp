#include "control/governor.hpp"

#include <algorithm>
#include <cmath>

#include "common/binio.hpp"
#include "common/require.hpp"

namespace lgg::control {

AdmissionGovernor::AdmissionGovernor(const core::SdNetwork& net,
                                     GovernorOptions options)
    : options_(options),
      sentinel_(net, options.sentinel),
      policy_(BrownoutPolicy::Options{options.min_multiplier,
                                      options.brownout}) {
  LGG_REQUIRE(options_.target_eps >= 0.0, "governor: negative target_eps");
  LGG_REQUIRE(options_.beta > 0.0 && options_.beta < 1.0,
              "governor: beta outside (0, 1)");
  LGG_REQUIRE(options_.probe_increment > 0.0,
              "governor: probe_increment <= 0");
  LGG_REQUIRE(options_.min_multiplier > 0.0 && options_.min_multiplier <= 1.0,
              "governor: min_multiplier outside (0, 1]");
  LGG_REQUIRE(options_.hold_steps >= 0, "governor: negative hold_steps");
  LGG_REQUIRE(options_.quiet_steps >= 0, "governor: negative quiet_steps");
  const auto sources = net.sources();
  sources_.assign(sources.begin(), sources.end());
  rates_.reserve(sources_.size());
  for (const NodeId v : sources_) rates_.push_back(net.spec(v).in);
  source_of_.assign(static_cast<std::size_t>(net.node_count()), -1);
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    source_of_[static_cast<std::size_t>(sources_[i])] =
        static_cast<std::int32_t>(i);
  }
  effective_.assign(sources_.size(), 1.0);
  credit_.assign(sources_.size(), 0.0);
  offered_.assign(sources_.size(), 0);
  shed_.assign(sources_.size(), 0);
}

std::size_t AdmissionGovernor::source_index(NodeId v) const {
  LGG_REQUIRE(v >= 0 && static_cast<std::size_t>(v) < source_of_.size() &&
                  source_of_[static_cast<std::size_t>(v)] >= 0,
              "governor: admit() for a non-source node");
  return static_cast<std::size_t>(source_of_[static_cast<std::size_t>(v)]);
}

void AdmissionGovernor::begin_step(const StepContext& ctx) {
  if (ctx.topology_version != last_topology_version_) {
    last_topology_version_ = ctx.topology_version;
    // Patch the warm-started certificate in place: the verdict is exact
    // for the post-churn topology before this step's admissions, so no
    // stale window ever opens.
    sentinel_.patch_certificate(ctx.active_mask, ctx.churn);
    last_cert_t_ = ctx.t;
  }
  sentinel_.observe(ctx.t, ctx.potential);

  const SaturationMode mode = sentinel_.mode();
  const bool hold_ok =
      !has_changed_ || ctx.t - last_change_t_ >= options_.hold_steps;
  if (mode == SaturationMode::kOverloaded) {
    if (multiplier_ > options_.min_multiplier && hold_ok) {
      multiplier_ =
          std::max(options_.min_multiplier, multiplier_ * options_.beta);
      last_change_t_ = ctx.t;
      has_changed_ = true;
      if (!engaged_) {
        engaged_ = true;
        overload_bound_ = std::max(
            1e6,
            256.0 * std::max(ctx.potential, sentinel_.growth_bound()));
      }
    }
  } else if (mode == SaturationMode::kUnsaturated && multiplier_ < 1.0 &&
             hold_ok && sentinel_.time_in_mode() >= options_.quiet_steps &&
             sentinel_.drift_estimate() <=
                 options_.target_eps * sentinel_.growth_bound()) {
    multiplier_ = std::min(1.0, multiplier_ + options_.probe_increment);
    last_change_t_ = ctx.t;
    has_changed_ = true;
    if (multiplier_ >= 1.0) {
      // Snapped back to full admission: clear the fractional credits so a
      // later engagement starts from the same state as a fresh governor.
      multiplier_ = 1.0;
      std::fill(credit_.begin(), credit_.end(), 0.0);
    }
  }

  if (multiplier_ < 1.0) {
    policy_.apply(rates_, multiplier_, effective_);
  }

  if (multiplier_gauge_ != nullptr) {
    multiplier_gauge_->set(multiplier_);
    drift_gauge_->set(sentinel_.drift_estimate());
    mode_gauge_->set(static_cast<double>(static_cast<int>(mode)));
    time_in_mode_gauge_->set(static_cast<double>(sentinel_.time_in_mode()));
    cert_patches_gauge_->set(
        static_cast<double>(sentinel_.certificate_patches()));
    cert_recomputes_gauge_->set(
        static_cast<double>(sentinel_.certificate_recomputes()));
    cert_age_gauge_->set(static_cast<double>(ctx.t - last_cert_t_));
  }
}

PacketCount AdmissionGovernor::admit(NodeId v, Cap in_rate,
                                     PacketCount offered) {
  LGG_REQUIRE(offered >= 0, "governor: negative offer");
  if (v < 0 || static_cast<std::size_t>(v) >= source_of_.size() ||
      source_of_[static_cast<std::size_t>(v)] < 0) {
    // A source the governor was not built with — churn nudged a node's
    // in-rate above zero mid-run.  Its load is still visible to the
    // sentinel through P_t and the patched certificate; per-source gating
    // and fairness accounting cover only the construction-time sources.
    if (offered > in_rate) sentinel_.note_noncompliant_offer();
    return offered;
  }
  const std::size_t idx = source_index(v);
  offered_[idx] += offered;
  if (offered > in_rate) sentinel_.note_noncompliant_offer();
  // Full admission is the exact fast path: the packet count never meets a
  // floating-point value, so governed == ungoverned bit-for-bit.
  if (multiplier_ >= 1.0) return offered;

  const double m = effective_[idx];
  credit_[idx] += m * static_cast<double>(offered);
  PacketCount admitted = static_cast<PacketCount>(credit_[idx]);
  admitted = std::clamp<PacketCount>(admitted, 0, offered);
  credit_[idx] -= static_cast<double>(admitted);
  const PacketCount dropped = offered - admitted;
  if (dropped > 0) {
    shed_[idx] += dropped;
    total_shed_ += dropped;
    if (shed_counter_ != nullptr) {
      shed_counter_->add(static_cast<std::uint64_t>(dropped));
    }
  }
  return admitted;
}

void AdmissionGovernor::register_metrics(obs::MetricRegistry& registry) {
  multiplier_gauge_ = &registry.gauge("governor.multiplier");
  drift_gauge_ = &registry.gauge("governor.drift_estimate");
  mode_gauge_ = &registry.gauge("governor.mode");
  time_in_mode_gauge_ = &registry.gauge("governor.time_in_mode");
  cert_patches_gauge_ = &registry.gauge("governor.cert_patches");
  cert_recomputes_gauge_ = &registry.gauge("governor.cert_recomputes");
  cert_age_gauge_ = &registry.gauge("governor.cert_age");
  shed_counter_ = &registry.counter("governor.shed");
  multiplier_gauge_->set(multiplier_);
  mode_gauge_->set(static_cast<double>(mode()));
}

void AdmissionGovernor::save_state(std::ostream& out) const {
  binio::write_f64(out, multiplier_);
  binio::write_i64(out, last_change_t_);
  binio::write_u8(out, has_changed_ ? 1 : 0);
  binio::write_u8(out, engaged_ ? 1 : 0);
  binio::write_f64(out, overload_bound_);
  binio::write_u64(out, last_topology_version_);
  // Reserved, always 0: the byte once flagged a stale certificate awaiting
  // a from-scratch re-solve.  Kept so the checkpoint layout (and version)
  // is unchanged.
  binio::write_u8(out, 0);
  binio::write_i64(out, last_cert_t_);
  binio::write_i64(out, total_shed_);
  binio::write_u32(out, static_cast<std::uint32_t>(sources_.size()));
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    binio::write_f64(out, credit_[i]);
    binio::write_i64(out, offered_[i]);
    binio::write_i64(out, shed_[i]);
  }
  sentinel_.save_state(out);
}

void AdmissionGovernor::load_state(std::istream& in) {
  multiplier_ = binio::read_f64(in);
  LGG_REQUIRE(multiplier_ > 0.0 && multiplier_ <= 1.0,
              "governor state: multiplier out of range");
  last_change_t_ = binio::read_i64(in);
  has_changed_ = binio::read_u8(in) != 0;
  engaged_ = binio::read_u8(in) != 0;
  overload_bound_ = binio::read_f64(in);
  last_topology_version_ = binio::read_u64(in);
  // Reserved byte (see save_state).  A non-zero value came from a
  // stale-certificate path this build no longer has, so it cannot resume.
  LGG_REQUIRE(binio::read_u8(in) == 0,
              "governor state: stale-certificate flag set");
  last_cert_t_ = binio::read_i64(in);
  total_shed_ = binio::read_i64(in);
  const std::uint32_t count = binio::read_u32(in);
  LGG_REQUIRE(count == sources_.size(),
              "governor state: source count mismatch");
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    credit_[i] = binio::read_f64(in);
    offered_[i] = binio::read_i64(in);
    shed_[i] = binio::read_i64(in);
  }
  sentinel_.load_state(in);
  // effective_ is derived; begin_step recomputes it before any admit.
  std::fill(effective_.begin(), effective_.end(), multiplier_);
}

}  // namespace lgg::control
