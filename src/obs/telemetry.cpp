#include "obs/telemetry.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <string>

#include "common/binio.hpp"
#include "common/failpoint.hpp"
#include "common/require.hpp"
#include "obs/json.hpp"

namespace lgg::obs {

void OstreamJsonlSink::write_line(std::string_view line) {
  // Failpoint site for the crash-tolerance harness: an injected append
  // fault surfaces as a throw (the supervisor's recovery path) — or, for
  // torn, leaves a partial line behind first, exactly what a process
  // killed mid-write leaves in a JSONL file.
  if (const auto f = common::failpoint("telemetry.append")) {
    if (f->action == common::FailpointAction::kTorn) {
      const std::size_t keep =
          std::min(f->keep == static_cast<std::size_t>(-1) ? line.size() / 2
                                                           : f->keep,
                   line.size());
      os_->write(line.data(), static_cast<std::streamsize>(keep));
      os_->flush();
    }
    throw std::runtime_error("telemetry: injected append failure");
  }
  os_->write(line.data(), static_cast<std::streamsize>(line.size()));
  os_->put('\n');
}

void OstreamJsonlSink::flush() { os_->flush(); }

Telemetry::Telemetry(TelemetryOptions options) : options_(options) {
  LGG_REQUIRE(options_.snapshot_every > 0,
              "Telemetry: snapshot_every must be positive");
  if (options_.flight_capacity > 0) {
    flight_ = std::make_unique<FlightRecorder>(options_.flight_capacity);
  }
  steps_ = &registry_.counter("sim.steps");
  injected_ = &registry_.counter("sim.injected");
  proposed_ = &registry_.counter("sim.proposed");
  suppressed_ = &registry_.counter("sim.suppressed");
  conflicted_ = &registry_.counter("sim.conflicted");
  sent_ = &registry_.counter("sim.sent");
  lost_ = &registry_.counter("sim.lost");
  delivered_ = &registry_.counter("sim.delivered");
  extracted_ = &registry_.counter("sim.extracted");
  crash_wiped_ = &registry_.counter("sim.crash_wiped");
  shed_ = &registry_.counter("sim.shed");
  checkpoints_ = &registry_.counter("sim.checkpoints");
  potential_ = &registry_.gauge("sim.P");
  total_packets_ = &registry_.gauge("sim.total_packets");
  max_queue_ = &registry_.gauge("sim.max_queue");
  slack_growth_ = &registry_.gauge("sim.bound_slack_growth");
  slack_state_ = &registry_.gauge("sim.bound_slack_state");
  step_dp_ = &registry_.histogram("sim.step_dP");
  // Registered after the standard metrics so the "sim.queue_occupancy"
  // histogram appends to — never reorders — the snapshot schema.
  if (options_.hotspot_k > 0) {
    hotspots_ = std::make_unique<HotspotTracker>(options_.hotspot_k, registry_);
  }
}

void Telemetry::set_lemma1_bounds(double growth, double state) {
  bounds_ = Lemma1Bounds{growth, state};
}

void Telemetry::bind(NodeId node_count) {
  LGG_REQUIRE(node_count >= 0, "Telemetry: negative node count");
  node_count_ = node_count;
  drift_.bind(node_count);
  if (hotspots_ != nullptr) hotspots_->bind(node_count);
}

void Telemetry::end_step(const StepSample& sample) {
  steps_->add(1);
  injected_->add(static_cast<std::uint64_t>(sample.injected));
  proposed_->add(static_cast<std::uint64_t>(sample.proposed));
  suppressed_->add(static_cast<std::uint64_t>(sample.suppressed));
  conflicted_->add(static_cast<std::uint64_t>(sample.conflicted));
  sent_->add(static_cast<std::uint64_t>(sample.sent));
  lost_->add(static_cast<std::uint64_t>(sample.lost));
  delivered_->add(static_cast<std::uint64_t>(sample.delivered));
  extracted_->add(static_cast<std::uint64_t>(sample.extracted));
  crash_wiped_->add(static_cast<std::uint64_t>(sample.crash_wiped));
  shed_->add(static_cast<std::uint64_t>(sample.shed));
  potential_->set(sample.potential);
  total_packets_->set(static_cast<double>(sample.total_packets));
  if (sample.max_queue >= 0) {
    max_queue_->set(static_cast<double>(sample.max_queue));
  }
  const std::int64_t dp = drift_.step_drift();
  step_dp_->observe(static_cast<double>(dp));
  if (bounds_.has_value()) {
    slack_growth_->set(bounds_->growth - static_cast<double>(dp));
    slack_state_->set(bounds_->state - sample.potential);
  }
  // One ascending walk over the step's touched nodes settles their
  // forwarding rows and, with hotspots on, feeds each node's drift and
  // queue to the window sums and the occupancy histogram.  The ascending
  // order makes the feed a function of the touched set alone, so the
  // window sums, the sketch state and every "hotspots" line are identical
  // across shard and thread counts.
  LGG_REQUIRE(sample.queues.size() == static_cast<std::size_t>(node_count_) &&
                  sample.at_selection.size() == sample.queues.size(),
              "Telemetry::end_step: both queue views must cover every node");
  if (hotspots_ != nullptr) {
    HotspotTracker::Feed feed = hotspots_->feed();
    drift_.settle(sample.queues, sample.at_selection,
                  [&feed](NodeId v, std::int64_t node_dp, PacketCount queue) {
                    feed.observe(v, node_dp, queue);
                  });
    feed.finish();
    // The window closes on the snapshot cadence whether or not a sink is
    // attached, so the sketches never depend on where the stream goes.
    if ((sample.t + 1) % options_.snapshot_every == 0) {
      hotspots_->close_window();
    }
  } else {
    drift_.settle(sample.queues, sample.at_selection);
  }
  if (snapshot_due(sample.t)) emit_snapshot(sample);
}

void Telemetry::emit_snapshot(const StepSample& sample) {
  JsonWriter json;
  if (sequence_ == 0) {
    // First snapshot of the stream: lead with a header line.  Guarded by
    // the (checkpointed) sequence number so a resumed run never repeats
    // it — concatenating the pre- and post-resume files reproduces the
    // uninterrupted stream byte for byte.
    json.begin_object();
    json.field("type", "header");
    json.field("schema", static_cast<std::int64_t>(kTelemetrySchemaVersion));
    json.field("n", static_cast<std::int64_t>(node_count_));
    json.field("snapshot_every",
               static_cast<std::int64_t>(options_.snapshot_every));
    json.field("flight_capacity",
               static_cast<std::uint64_t>(options_.flight_capacity));
    if (options_.hotspot_k > 0) {
      json.field("hotspot_k", static_cast<std::uint64_t>(options_.hotspot_k));
    }
    if (bounds_.has_value()) {
      json.field("bound_growth", bounds_->growth);
      json.field("bound_state", bounds_->state);
    }
    json.end_object();
    sink_->write_line(json.str());
    json.clear();
  }
  json.begin_object();
  json.field("type", "snapshot");
  json.field("seq", sequence_);
  json.field("t", static_cast<std::int64_t>(sample.t));
  json.field("P", sample.potential);
  json.field("dP", drift_.step_drift());
  registry_.write_snapshot(json);
  drift_.write_snapshot(json);
  json.end_object();
  sink_->write_line(json.str());
  if (hotspots_ != nullptr) {
    json.clear();
    hotspots_->write_snapshot(json, sequence_, sample.t);
    sink_->write_line(json.str());
  }
  record_event({sample.t, EventKind::kSnapshot, kInvalidNode, kInvalidNode,
                static_cast<std::int64_t>(sequence_)});
  ++sequence_;
}

void Telemetry::record_checkpoint(TimeStep t) {
  checkpoints_->add(1);
  record_event({t, EventKind::kCheckpoint, kInvalidNode, kInvalidNode, 0});
}

std::size_t Telemetry::dump_flight(std::ostream& os) const {
  if (flight_ == nullptr) return 0;
  return flight_->dump(os);
}

void Telemetry::save_state(std::ostream& os) const {
  binio::write_u64(os, sequence_);
  registry_.save_state(os);
  drift_.save_state(os);
  binio::write_u8(os, flight_ != nullptr ? 1 : 0);
  if (flight_ != nullptr) flight_->save_state(os);
  binio::write_u8(os, hotspots_ != nullptr ? 1 : 0);
  if (hotspots_ != nullptr) hotspots_->save_state(os);
}

void Telemetry::load_state(std::istream& is) {
  sequence_ = binio::read_u64(is);
  registry_.load_state(is);
  drift_.load_state(is);
  const std::uint8_t has_flight = binio::read_u8(is);
  if ((has_flight != 0) != (flight_ != nullptr)) {
    throw std::runtime_error(
        "Telemetry: checkpoint flight-recorder presence does not match "
        "this session's configuration");
  }
  if (flight_ != nullptr) flight_->load_state(is);
  const std::uint8_t has_hotspots = binio::read_u8(is);
  if ((has_hotspots != 0) != (hotspots_ != nullptr)) {
    throw std::runtime_error(
        "Telemetry: checkpoint hotspot-tracker presence does not match "
        "this session's configuration");
  }
  if (hotspots_ != nullptr) hotspots_->load_state(is);
}

}  // namespace lgg::obs
