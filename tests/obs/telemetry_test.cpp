// The telemetry layer's contracts: deterministic JSON emission, metric
// registry handle discipline, flight-recorder ring semantics, and the
// Telemetry session driven by a live simulator — including the cost
// discipline (attached-but-unarmed changes nothing) and the Lemma 1
// bound-slack gauges staying non-negative on an unsaturated network.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "lgg.hpp"

namespace lgg {
namespace {

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// ---------------------------------------------------------------- JSON --

TEST(JsonWriter, EscapesStringsPerRfc8259) {
  std::string out;
  obs::append_json_string(out, "a\"b\\c\n\t\x01z");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\n\\t\\u0001z\"");
}

TEST(JsonWriter, DoublesAreShortestRoundTrip) {
  std::string out;
  obs::append_json_double(out, 0.5);
  EXPECT_EQ(out, "0.5");
  out.clear();
  obs::append_json_double(out, 720.0);
  EXPECT_EQ(out, "720");
  out.clear();
  obs::append_json_double(out, std::nan(""));
  EXPECT_EQ(out, "null");
  out.clear();
  obs::append_json_double(out, std::numeric_limits<double>::infinity());
  EXPECT_EQ(out, "null");
}

TEST(JsonWriter, NestedContainersAndCommas) {
  obs::JsonWriter json;
  json.begin_object();
  json.field("a", std::int64_t{1});
  json.begin_array("xs");
  json.value(std::int64_t{1});
  json.value(std::int64_t{2});
  json.end_array();
  json.begin_object("o");
  json.field("b", "s");
  json.end_object();
  json.end_object();
  EXPECT_EQ(json.str(), R"({"a":1,"xs":[1,2],"o":{"b":"s"}})");
}

// ------------------------------------------------------------ registry --

TEST(MetricRegistry, SameNameYieldsSameHandle) {
  obs::MetricRegistry registry;
  obs::Counter& a = registry.counter("x");
  obs::Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricRegistry, KindMismatchThrows) {
  obs::MetricRegistry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), ContractViolation);
  EXPECT_THROW(registry.histogram("x"), ContractViolation);
  EXPECT_THROW(registry.counter(""), ContractViolation);
}

TEST(MetricRegistry, SnapshotKeepsRegistrationOrder) {
  obs::MetricRegistry registry;
  registry.counter("zz");
  registry.counter("aa");
  registry.gauge("mm");
  obs::JsonWriter json;
  json.begin_object();
  registry.write_snapshot(json);
  json.end_object();
  const std::string& out = json.str();
  EXPECT_LT(out.find("\"zz\""), out.find("\"aa\""));
  EXPECT_NE(out.find("\"counters\""), std::string::npos);
  EXPECT_NE(out.find("\"gauges\""), std::string::npos);
  EXPECT_NE(out.find("\"histograms\""), std::string::npos);
}

TEST(MetricRegistry, SaveLoadRoundTripsValues) {
  obs::MetricRegistry registry;
  registry.counter("c").add(42);
  registry.gauge("g").set(2.5);
  registry.histogram("h").observe(8.0);
  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  registry.save_state(blob);

  obs::MetricRegistry twin;
  twin.counter("c");
  twin.gauge("g");
  twin.histogram("h");
  twin.load_state(blob);
  EXPECT_EQ(twin.counter("c").value(), 42u);
  EXPECT_EQ(twin.gauge("g").value(), 2.5);
  EXPECT_EQ(twin.histogram("h").count(), 1u);
  EXPECT_EQ(twin.histogram("h").sum(), 8.0);

  // A differently shaped registry must refuse the blob.
  std::stringstream blob2(std::ios::in | std::ios::out | std::ios::binary);
  registry.save_state(blob2);
  obs::MetricRegistry other;
  other.counter("different");
  EXPECT_THROW(other.load_state(blob2), std::runtime_error);
}

TEST(Histogram, BucketsArePowersOfTwo) {
  obs::Histogram h;
  h.observe(0.0);   // bucket 0: value <= 0
  h.observe(-3.0);  // clamps into bucket 0
  h.observe(0.5);   // bucket 1: (0, 1]
  h.observe(1.0);   // bucket 1
  h.observe(2.0);   // bucket 2: (1, 2]
  h.observe(3.0);   // bucket 3: (2, 4]
  h.observe(4.0);   // bucket 3
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.min(), -3.0);
  EXPECT_EQ(h.max(), 4.0);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 2u);
}

// ---------------------------------------------------- flight recorder --

obs::FlightEvent send_at(TimeStep t) {
  return {t, obs::EventKind::kSend, 0, 1, t};
}

TEST(FlightRecorder, RingKeepsNewestAndOrdersOldestFirst) {
  obs::FlightRecorder ring(4);
  for (TimeStep t = 0; t < 6; ++t) ring.record(send_at(t));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.recorded(), 6u);
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].t, static_cast<TimeStep>(2 + i)) << i;
  }
  // The dump's global sequence numbers expose how much history was shed.
  std::ostringstream os;
  EXPECT_EQ(ring.dump(os), 4u);
  EXPECT_NE(os.str().find("\"seq\":2"), std::string::npos);
  EXPECT_EQ(os.str().find("\"seq\":0"), std::string::npos);
}

TEST(FlightRecorder, TinyCapacitiesWrapExactly) {
  // --flight-recorder accepts any positive size; the degenerate
  // rings (1..3 slots) must keep exactly the newest window and number the
  // survivors on the global sequence axis.
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{2},
                                     std::size_t{3}}) {
    SCOPED_TRACE("capacity=" + std::to_string(capacity));
    obs::FlightRecorder ring(capacity);
    constexpr TimeStep kEvents = 9;
    for (TimeStep t = 0; t < kEvents; ++t) ring.record(send_at(t));
    EXPECT_EQ(ring.size(), capacity);
    EXPECT_EQ(ring.recorded(), static_cast<std::uint64_t>(kEvents));
    const auto events = ring.events();
    ASSERT_EQ(events.size(), capacity);
    for (std::size_t i = 0; i < capacity; ++i) {
      EXPECT_EQ(events[i].t,
                static_cast<TimeStep>(kEvents - capacity + i));
    }
    std::ostringstream os;
    EXPECT_EQ(ring.dump(os), capacity);
    // The oldest surviving event's global seq is recorded - size.
    EXPECT_NE(os.str().find("\"seq\":" + std::to_string(kEvents - capacity)),
              std::string::npos);
    EXPECT_EQ(os.str().find("\"seq\":" +
                            std::to_string(kEvents - capacity - 1)),
              std::string::npos);
  }
}

TEST(FlightRecorder, ZeroCapacityDropsEverything) {
  obs::FlightRecorder ring(0);
  ring.record(send_at(1));
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.recorded(), 0u);
}

TEST(FlightRecorder, SaveLoadRoundTrips) {
  obs::FlightRecorder ring(3);
  for (TimeStep t = 0; t < 5; ++t) ring.record(send_at(t));
  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  ring.save_state(blob);

  obs::FlightRecorder twin(3);
  twin.load_state(blob);
  EXPECT_EQ(twin.recorded(), ring.recorded());
  EXPECT_EQ(twin.events(), ring.events());

  std::stringstream blob2(std::ios::in | std::ios::out | std::ios::binary);
  ring.save_state(blob2);
  obs::FlightRecorder wrong_capacity(8);
  EXPECT_THROW(wrong_capacity.load_state(blob2), std::runtime_error);
}

// --------------------------------------------- simulator integration --

core::SdNetwork test_network() {
  return core::scenarios::barbell_bottleneck(3, 1, 2);
}

std::unique_ptr<core::Simulator> make_sim(std::uint64_t seed = 0xBEEF) {
  core::SimulatorOptions options;
  options.seed = seed;
  auto sim = std::make_unique<core::Simulator>(test_network(), options);
  sim->set_arrival(std::make_unique<core::BernoulliArrival>(0.8));
  sim->set_loss(std::make_unique<core::BernoulliLoss>(0.05));
  return sim;
}

TEST(Telemetry, AttachedButUnarmedChangesNothing) {
  auto plain = make_sim();
  plain->run(200);

  obs::Telemetry telemetry;  // no sink, no flight recorder
  ASSERT_FALSE(telemetry.armed());
  auto observed = make_sim();
  observed->set_telemetry(&telemetry);
  observed->run(200);

  const auto a = plain->queues();
  const auto b = observed->queues();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t v = 0; v < a.size(); ++v) EXPECT_EQ(a[v], b[v]);
  EXPECT_EQ(plain->cumulative().sent, observed->cumulative().sent);
  EXPECT_EQ(plain->cumulative().lost, observed->cumulative().lost);

  // Nothing was fed: no snapshots, no step counters, no drift.
  EXPECT_EQ(telemetry.sequence(), 0u);
  EXPECT_EQ(telemetry.registry().counter("sim.steps").value(), 0u);
  std::size_t touched = 0;
  telemetry.drift().for_each_touched([&touched](NodeId) { ++touched; });
  EXPECT_EQ(touched, 0u);
}

TEST(Telemetry, SnapshotStreamHasHeaderAndStableCadence) {
  obs::TelemetryOptions topts;
  topts.snapshot_every = 10;
  topts.flight_capacity = 8;
  obs::Telemetry telemetry(topts);
  std::ostringstream stream;
  obs::OstreamJsonlSink sink(stream);
  telemetry.set_sink(&sink);

  auto sim = make_sim();
  sim->set_telemetry(&telemetry);
  sim->run(100);

  EXPECT_EQ(telemetry.sequence(), 10u);
  const std::string out = stream.str();
  EXPECT_EQ(count_occurrences(out, "\"type\":\"header\""), 1u);
  EXPECT_EQ(out.rfind("{\"type\":\"header\"", 0), 0u)
      << "header must be the first line";
  EXPECT_EQ(count_occurrences(out, "\"type\":\"snapshot\""), 10u);
  // Component metrics registered themselves through the simulator.
  EXPECT_NE(out.find("\"protocol.active_nodes\""), std::string::npos);
  EXPECT_NE(out.find("\"drift\""), std::string::npos);
  // Steps ran under telemetry: the step counter matches exactly.
  EXPECT_EQ(telemetry.registry().counter("sim.steps").value(), 100u);
}

TEST(Telemetry, IdenticalSeedsEmitIdenticalStreams) {
  const auto run_once = [] {
    obs::TelemetryOptions topts;
    topts.snapshot_every = 7;
    topts.flight_capacity = 16;
    obs::Telemetry telemetry(topts);
    std::ostringstream stream;
    obs::OstreamJsonlSink sink(stream);
    telemetry.set_sink(&sink);
    auto sim = make_sim(0x5EED);
    sim->set_telemetry(&telemetry);
    sim->run(120);
    telemetry.dump_flight(stream);
    return stream.str();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Telemetry, BoundSlackGaugesStayNonNegativeWhenUnsaturated) {
  // grid_single is unsaturated for in = 1, so Property 1 (ΔP_t <= 5nΔ²)
  // and Lemma 1 (P_t <= nY² + 5nΔ²) must hold along the whole run — the
  // live slack gauges are those inequalities, evaluated every step.
  const core::SdNetwork net = core::scenarios::grid_single(3, 3);
  const auto report = core::analyze(net);
  ASSERT_TRUE(report.unsaturated);
  const core::UnsaturatedBounds bounds = core::unsaturated_bounds(net, report);

  obs::TelemetryOptions topts;
  topts.flight_capacity = 4;  // arms the session without a sink
  obs::Telemetry telemetry(topts);
  telemetry.set_lemma1_bounds(bounds.growth, bounds.state);
  ASSERT_TRUE(telemetry.has_bounds());

  core::SimulatorOptions options;
  options.seed = 0xD1CE;
  core::Simulator sim(net, options);
  sim.set_telemetry(&telemetry);
  for (int step = 0; step < 400; ++step) {
    sim.run(1);
    EXPECT_GE(telemetry.registry().gauge("sim.bound_slack_growth").value(),
              0.0)
        << "Property 1 violated at step " << step;
    EXPECT_GE(telemetry.registry().gauge("sim.bound_slack_state").value(),
              0.0)
        << "Lemma 1 violated at step " << step;
  }
}

TEST(Telemetry, FaultTransitionsLandInTheFlightRecorder) {
  obs::TelemetryOptions topts;
  topts.flight_capacity = 512;
  obs::Telemetry telemetry(topts);

  core::FaultSchedule schedule;
  core::FaultEvent crash;
  crash.kind = core::FaultKind::kCrash;
  crash.node = 1;
  crash.at = 10;
  crash.duration = 5;
  crash.mode = core::CrashMode::kWipe;
  schedule.add(crash);

  auto sim = make_sim();
  sim->set_faults(std::make_unique<core::FaultInjector>(schedule, 0xFA));
  sim->set_telemetry(&telemetry);
  sim->run(30);

  bool saw_down = false;
  bool saw_up = false;
  for (const obs::FlightEvent& event : telemetry.flight()->events()) {
    if (event.kind == obs::EventKind::kNodeDown && event.a == 1) {
      saw_down = true;
      EXPECT_EQ(event.t, 10);
    }
    if (event.kind == obs::EventKind::kNodeUp && event.a == 1) saw_up = true;
  }
  EXPECT_TRUE(saw_down);
  EXPECT_TRUE(saw_up);
  EXPECT_EQ(telemetry.registry().counter("faults.crashes").value(), 1u);
  EXPECT_EQ(telemetry.registry().counter("faults.recoveries").value(), 1u);
}

TEST(Telemetry, RecordCheckpointBumpsCounterAndRing) {
  obs::TelemetryOptions topts;
  topts.flight_capacity = 4;
  obs::Telemetry telemetry(topts);
  telemetry.record_checkpoint(42);
  EXPECT_EQ(telemetry.registry().counter("sim.checkpoints").value(), 1u);
  const auto events = telemetry.flight()->events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, obs::EventKind::kCheckpoint);
  EXPECT_EQ(events[0].t, 42);
}

TEST(Telemetry, HotspotWindowsKeepTheSpaceSavingGuarantees) {
  // The window feed hands each sketch one pre-aggregated update per node
  // per window.  Against exact per-node counters fed every step, every
  // reported entry must still bound its node's true weight
  // (true <= w, w - err <= true) and every node above total / K must be
  // monitored, at every window close.  No sink is attached: the windows
  // close on the snapshot cadence regardless.
  constexpr std::size_t kK = 3;
  for (const TimeStep every : {TimeStep{10}, TimeStep{100}}) {
    SCOPED_TRACE(every);
    obs::TelemetryOptions topts;
    topts.snapshot_every = every;
    topts.hotspot_k = kK;
    obs::Telemetry telemetry(topts);
    core::SimulatorOptions options;
    options.seed = 0x5A5A;
    core::Simulator sim(core::scenarios::random_unsaturated(60, 220, 3, 3, 23),
                        options);
    sim.set_arrival(std::make_unique<core::BernoulliArrival>(0.85));
    sim.set_loss(std::make_unique<core::BernoulliLoss>(0.05));
    sim.set_telemetry(&telemetry);
    const obs::HotspotTracker& tracker = *telemetry.hotspots();

    const auto n = static_cast<std::size_t>(sim.network().node_count());
    std::vector<std::uint64_t> exact[2] = {std::vector<std::uint64_t>(n, 0),
                                           std::vector<std::uint64_t>(n, 0)};
    std::size_t closes = 0;
    bool evicted = false;
    for (TimeStep t = 0; t < 1000; ++t) {
      sim.step();
      telemetry.drift().for_each_touched([&](NodeId v) {
        const auto i = static_cast<std::size_t>(v);
        const std::int64_t drift = telemetry.drift().node_drift(v);
        if (drift > 0) exact[0][i] += static_cast<std::uint64_t>(drift);
        exact[1][i] += static_cast<std::uint64_t>(sim.queues()[i]);
      });
      if ((t + 1) % every != 0) continue;
      ++closes;
      const obs::SpaceSaving* sketches[2] = {&tracker.drift_sketch(),
                                             &tracker.queue_sketch()};
      for (int s = 0; s < 2; ++s) {
        std::uint64_t total = 0;
        for (const std::uint64_t w : exact[s]) total += w;
        ASSERT_EQ(sketches[s]->total_weight(), total) << "sketch " << s;
        std::vector<bool> monitored(n, false);
        for (const obs::SpaceSaving::Entry& e : sketches[s]->top()) {
          monitored[e.key] = true;
          EXPECT_LE(exact[s][e.key], e.weight) << "sketch " << s;
          EXPECT_LE(e.weight - e.error, exact[s][e.key]) << "sketch " << s;
          evicted = evicted || e.error > 0;
        }
        for (std::size_t v = 0; v < n; ++v) {
          if (exact[s][v] * kK > total) {
            EXPECT_TRUE(monitored[v])
                << "sketch " << s << " lost heavy node " << v << " at t=" << t;
          }
        }
      }
    }
    EXPECT_EQ(closes, static_cast<std::size_t>(1000 / every));
    EXPECT_TRUE(evicted) << "the fixture must exercise evictions";
  }
}

}  // namespace
}  // namespace lgg
