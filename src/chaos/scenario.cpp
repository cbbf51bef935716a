#include "chaos/scenario.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/require.hpp"
#include "core/scenarios.hpp"
#include "core/trace_io.hpp"
#include "graph/generators.hpp"

namespace lgg::chaos {

namespace {

struct OracleName {
  std::uint32_t flag;
  const char* name;
};

constexpr OracleName kOracleNames[] = {
    {kOracleConservation, "conservation"}, {kOracleGrowth, "growth"},
    {kOracleState, "state"},               {kOracleRBound, "rbound"},
    {kOracleCheckpoint, "checkpoint"},     {kOracleContract, "contract"},
    {kOracleGoverned, "governed"},         {kOracleCrashRecovery,
                                            "crash_recovery"},
};

/// Shortest round-trippable decimal form — scenario files must replay the
/// exact double the generator drew.
std::string fmt_double(double v) {
  char buffer[64];
  const auto [ptr, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), v);
  LGG_REQUIRE(ec == std::errc(), "fmt_double: to_chars failed");
  return {buffer, ptr};
}

double parse_double_field(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  LGG_REQUIRE(used == value.size() && !value.empty(),
              "scenario: " + key + " wants a number, got '" + value + "'");
  return parsed;
}

std::int64_t parse_int_field(const std::string& key,
                             const std::string& value) {
  std::size_t used = 0;
  std::int64_t parsed = 0;
  try {
    parsed = std::stoll(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  LGG_REQUIRE(used == value.size() && !value.empty(),
              "scenario: " + key + " wants an integer, got '" + value + "'");
  return parsed;
}

std::uint64_t parse_uint_field(const std::string& key,
                               const std::string& value) {
  // Full-width unsigned parse: generator seeds use all 64 bits, which
  // overflows a stoll round-trip.
  std::size_t used = 0;
  std::uint64_t parsed = 0;
  try {
    parsed = std::stoull(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  LGG_REQUIRE(used == value.size() && !value.empty() && value[0] != '-',
              "scenario: " + key + " wants a non-negative integer, got '" +
                  value + "'");
  return parsed;
}

core::DeclarationPolicy parse_declaration(const std::string& value) {
  if (value == "truthful") return core::DeclarationPolicy::kTruthful;
  if (value == "declare_r") return core::DeclarationPolicy::kDeclareR;
  if (value == "declare_zero") return core::DeclarationPolicy::kDeclareZero;
  if (value == "random") return core::DeclarationPolicy::kRandom;
  LGG_REQUIRE(false, "scenario: unknown declaration policy '" + value + "'");
  return core::DeclarationPolicy::kTruthful;  // unreachable
}

}  // namespace

std::string oracles_to_string(std::uint32_t flags) {
  std::string out;
  for (const OracleName& o : kOracleNames) {
    if ((flags & o.flag) == 0) continue;
    if (!out.empty()) out += ',';
    out += o.name;
  }
  return out.empty() ? "none" : out;
}

std::uint32_t oracles_from_string(const std::string& list) {
  if (list == "none") return 0;
  std::uint32_t flags = 0;
  std::istringstream names(list);
  std::string name;
  while (std::getline(names, name, ',')) {
    bool known = false;
    for (const OracleName& o : kOracleNames) {
      if (name == o.name) {
        flags |= o.flag;
        known = true;
        break;
      }
    }
    LGG_REQUIRE(known, "scenario: unknown oracle '" + name + "'");
  }
  return flags;
}

void write_scenario(std::ostream& os, const ScenarioConfig& c) {
  os << "lgg-scenario v1\n";
  os << "label " << c.label << '\n';
  os << "seed " << c.seed << '\n';
  os << "horizon " << c.horizon << '\n';
  os << "protocol " << c.protocol << '\n';
  if (c.loss > 0.0) os << "loss " << fmt_double(c.loss) << '\n';
  if (c.arrival_scale >= 0.0) {
    os << "arrival_scale " << fmt_double(c.arrival_scale) << '\n';
  }
  if (!c.arrival_spec.empty()) os << "arrival " << c.arrival_spec << '\n';
  if (c.churn_off >= 0.0) {
    os << "churn " << fmt_double(c.churn_off) << ' ' << fmt_double(c.churn_on)
       << '\n';
  }
  if (c.matching) os << "matching 1\n";
  if (c.declaration != core::DeclarationPolicy::kTruthful) {
    os << "declaration " << core::to_string(c.declaration) << '\n';
  }
  if (!c.faults.empty()) os << "faults " << core::to_string(c.faults) << '\n';
  if (!c.churn_events.empty()) {
    os << "churn_events " << core::to_string(c.churn_events) << '\n';
  }
  if (c.fault_seed != 0) os << "fault_seed " << c.fault_seed << '\n';
  if (c.divergence_bound > 0.0) {
    os << "divergence_bound " << fmt_double(c.divergence_bound) << '\n';
  }
  if (c.deadline_ms > 0) os << "deadline_ms " << c.deadline_ms << '\n';
  if (c.governor) os << "governor 1\n";
  if (c.governor_target_eps != 0.05) {
    os << "governor_target_eps " << fmt_double(c.governor_target_eps) << '\n';
  }
  if (c.brownout) os << "brownout 1\n";
  if (c.expect_stable) os << "expect_stable 1\n";
  os << "oracles " << oracles_to_string(c.oracles) << '\n';
  if (c.strict_declarations) os << "strict_declarations 1\n";
  if (!c.failpoints.empty()) os << "failpoints " << c.failpoints << '\n';
  if (c.hang_ms > 0) os << "hang_ms " << c.hang_ms << '\n';
  if (c.check_every != 64) os << "check_every " << c.check_every << '\n';
  if (c.shards != 0) os << "shards " << c.shards << '\n';
  os << "network\n";
  core::write_network(os, c.network);
}

std::string to_string(const ScenarioConfig& config) {
  std::ostringstream os;
  write_scenario(os, config);
  return os.str();
}

ScenarioConfig read_scenario(std::istream& is) {
  ScenarioConfig c;
  std::string line;
  // Hand-authored fixtures start with an explanatory comment block; skip
  // blank/comment lines until the magic line.
  do {
    LGG_REQUIRE(static_cast<bool>(std::getline(is, line)),
                "scenario: empty input");
  } while (line.empty() || line[0] == '#');
  LGG_REQUIRE(line == "lgg-scenario v1",
              "scenario: bad magic line '" + line + "'");
  bool saw_network = false;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line == "network") {
      saw_network = true;
      break;
    }
    const auto space = line.find(' ');
    LGG_REQUIRE(space != std::string::npos && space > 0,
                "scenario: expected 'key value', got '" + line + "'");
    const std::string key = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    if (key == "label") {
      c.label = value;
    } else if (key == "seed") {
      c.seed = parse_uint_field(key, value);
    } else if (key == "horizon") {
      c.horizon = parse_int_field(key, value);
      LGG_REQUIRE(c.horizon > 0, "scenario: horizon must be > 0");
    } else if (key == "protocol") {
      c.protocol = value;
    } else if (key == "loss") {
      c.loss = parse_double_field(key, value);
      LGG_REQUIRE(c.loss >= 0.0 && c.loss <= 1.0,
                  "scenario: loss must be in [0, 1]");
    } else if (key == "arrival_scale") {
      c.arrival_scale = parse_double_field(key, value);
    } else if (key == "arrival") {
      LGG_REQUIRE(!value.empty(), "scenario: arrival wants a spec");
      c.arrival_spec = value;
    } else if (key == "churn") {
      const auto mid = value.find(' ');
      LGG_REQUIRE(mid != std::string::npos,
                  "scenario: churn wants 'p_off p_on'");
      c.churn_off = parse_double_field(key, value.substr(0, mid));
      c.churn_on = parse_double_field(key, value.substr(mid + 1));
    } else if (key == "matching") {
      c.matching = parse_int_field(key, value) != 0;
    } else if (key == "declaration") {
      c.declaration = parse_declaration(value);
    } else if (key == "faults") {
      c.faults = core::parse_fault_spec(value);
      LGG_REQUIRE(c.faults.random_churn() == nullptr,
                  "scenario: random edge churn belongs on the churn line");
    } else if (key == "churn_events") {
      c.churn_events = core::parse_fault_spec(value);
      LGG_REQUIRE(c.churn_events.random_crashes().p_per_step <= 0.0 &&
                      c.churn_events.random_churn() == nullptr,
                  "scenario: churn_events cannot carry random_crashes or "
                  "random_churn");
      for (const core::FaultEvent& e : c.churn_events.events()) {
        LGG_REQUIRE(core::is_churn(e.kind),
                    "scenario: churn_events only takes topology-churn "
                    "clauses; '" +
                        std::string(core::to_string(e.kind)) +
                        "' belongs in faults");
      }
    } else if (key == "fault_seed") {
      c.fault_seed = parse_uint_field(key, value);
    } else if (key == "divergence_bound") {
      c.divergence_bound = parse_double_field(key, value);
    } else if (key == "deadline_ms") {
      c.deadline_ms = parse_int_field(key, value);
    } else if (key == "governor") {
      c.governor = parse_int_field(key, value) != 0;
    } else if (key == "governor_target_eps") {
      c.governor_target_eps = parse_double_field(key, value);
      LGG_REQUIRE(c.governor_target_eps >= 0.0,
                  "scenario: governor_target_eps must be >= 0");
    } else if (key == "brownout") {
      c.brownout = parse_int_field(key, value) != 0;
    } else if (key == "expect_stable") {
      c.expect_stable = parse_int_field(key, value) != 0;
    } else if (key == "oracles") {
      c.oracles = oracles_from_string(value);
    } else if (key == "strict_declarations") {
      c.strict_declarations = parse_int_field(key, value) != 0;
    } else if (key == "failpoints") {
      LGG_REQUIRE(!value.empty(), "scenario: failpoints wants a spec");
      c.failpoints = value;
    } else if (key == "hang_ms") {
      c.hang_ms = parse_int_field(key, value);
    } else if (key == "check_every") {
      c.check_every = parse_int_field(key, value);
      LGG_REQUIRE(c.check_every >= 1, "scenario: check_every must be >= 1");
    } else if (key == "shards") {
      const auto shards = parse_int_field(key, value);
      LGG_REQUIRE(shards >= 0, "scenario: shards must be >= 0");
      c.shards = static_cast<std::uint32_t>(shards);
    } else {
      LGG_REQUIRE(false, "scenario: unknown key '" + key + "'");
    }
  }
  LGG_REQUIRE(saw_network, "scenario: missing 'network' section");
  LGG_REQUIRE(c.arrival_spec.empty() || c.arrival_scale < 0.0,
              "scenario: arrival and arrival_scale are mutually exclusive");
  c.network = core::read_network(is);
  c.faults.validate(c.network);
  c.churn_events.validate(c.network);
  return c;
}

ScenarioConfig scenario_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_scenario(is);
}

ScenarioConfig read_scenario_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot open scenario " + path);
  return read_scenario(file);
}

void write_scenario_file(const ScenarioConfig& config,
                         const std::string& path) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) throw std::runtime_error("cannot write scenario " + path);
  write_scenario(file, config);
}

// ---------------------------------------------------------------------------
// Generator

ScenarioGenerator::ScenarioGenerator(std::uint64_t seed,
                                     GeneratorOptions options)
    : rng_(derive_seed(seed, 0xC4A05)), options_(options) {}

ScenarioConfig ScenarioGenerator::next() {
  const GeneratorOptions& o = options_;
  ScenarioConfig c;
  c.label = "gen-" + std::to_string(count_);
  c.seed = derive_seed(static_cast<std::uint64_t>(rng_()), count_);
  ++count_;

  // Topology family.  Sizes stay small: the soak's power comes from the
  // number of configurations, not from instance size.
  const auto span = [&](NodeId lo, NodeId hi) {
    return static_cast<NodeId>(rng_.uniform_int(lo, std::max(lo, hi)));
  };
  switch (rng_.uniform_int(0, 5)) {
    case 0: {
      const int mult = static_cast<int>(rng_.uniform_int(2, 4));
      c.network = core::scenarios::fat_path(span(3, 7), mult,
                                            rng_.uniform_int(1, mult - 1), 2);
      break;
    }
    case 1:
      c.network = core::scenarios::grid_single(span(2, 4), span(2, 5));
      break;
    case 2:
      c.network = core::scenarios::bipartite(span(2, 4), span(2, 4));
      break;
    case 3:
      c.network = core::scenarios::barbell_bottleneck(span(3, 5));
      break;
    case 4:
      c.network = core::scenarios::clique_chain(
          span(3, 4), static_cast<int>(rng_.uniform_int(2, 3)));
      break;
    default:
      try {
        const NodeId n = span(o.min_nodes + 2, o.max_nodes);
        c.network = core::scenarios::random_unsaturated(
            n, static_cast<EdgeId>(2 * n),
            static_cast<int>(rng_.uniform_int(1, 3)),
            static_cast<int>(rng_.uniform_int(1, 3)),
            static_cast<std::uint64_t>(rng_()));
      } catch (const std::exception&) {
        // The retry budget ran out for this draw; fall back to a shape
        // that always exists.
        c.network = core::scenarios::fat_path(5, 3, 1, 2);
      }
      break;
  }

  // R-generalized variant (Definitions 7/8) with a lying-but-legal
  // declaration policy — the R-bound oracle checks the lies stay legal.
  if (rng_.bernoulli(o.p_generalized)) {
    c.network = core::scenarios::generalize(c.network,
                                            rng_.uniform_int(1, 3));
    switch (rng_.uniform_int(0, 2)) {
      case 0: c.declaration = core::DeclarationPolicy::kDeclareR; break;
      case 1: c.declaration = core::DeclarationPolicy::kDeclareZero; break;
      default: c.declaration = core::DeclarationPolicy::kRandom; break;
    }
  }

  c.protocol = "lgg";
  if (rng_.bernoulli(o.p_baseline_protocol)) {
    constexpr const char* kBaselines[] = {"lgg_random_tiebreak",
                                          "backpressure", "hot_potato",
                                          "random_walk"};
    c.protocol = kBaselines[rng_.uniform_int(0, 3)];
  }

  // Arrival: biased toward the near-saturated hostile region.  The
  // adversarial family straddles the frontier (rho around 1) instead; the
  // p_adversarial > 0 guard keeps the default generator stream — and with
  // it every pinned-seed soak sequence — unchanged.
  if (o.p_adversarial > 0.0 && rng_.bernoulli(o.p_adversarial)) {
    constexpr const char* kStrategies[] = {"hoard", "sweep", "queue_aware"};
    const double rho = 0.85 + 0.20 * rng_.uniform01();
    const auto sigma = rng_.uniform_int(4, 64);
    const auto period = rng_.uniform_int(4, 32);
    const auto fanout = rng_.uniform_int(
        1, std::max<std::int64_t>(
               1, static_cast<std::int64_t>(c.network.sources().size())));
    std::ostringstream spec;
    spec << "adversary:strategy=" << kStrategies[rng_.uniform_int(0, 2)]
         << ",rho=" << fmt_double(rho) << ",sigma=" << sigma
         << ",period=" << period << ",fanout=" << fanout;
    c.arrival_spec = spec.str();
  } else if (rng_.bernoulli(o.p_near_saturated)) {
    c.arrival_scale = 0.85 + 0.15 * rng_.uniform01();
  } else if (rng_.bernoulli(0.5)) {
    c.arrival_scale = 0.3 + 0.55 * rng_.uniform01();
  }  // else exact arrivals

  if (rng_.bernoulli(0.5)) c.loss = o.max_loss * rng_.uniform01();
  if (rng_.bernoulli(o.p_churn)) {
    c.churn_off = 0.01 + 0.09 * rng_.uniform01();
    c.churn_on = 0.2 + 0.4 * rng_.uniform01();
  }
  c.matching = rng_.bernoulli(0.2);

  // Faults: crash/recover churn, outage and surge windows, scripted lies.
  const NodeId n = c.network.node_count();
  c.horizon = rng_.uniform_int(o.min_horizon, o.max_horizon);
  bool any_byzantine = false;
  if (rng_.bernoulli(o.p_faulted)) {
    core::FaultSchedule schedule;
    if (rng_.bernoulli(0.5)) {
      core::RandomCrashConfig crashes;
      crashes.p_per_step = 1e-4 + 5e-3 * rng_.uniform01();
      crashes.min_down = rng_.uniform_int(3, 20);
      crashes.max_down = crashes.min_down + rng_.uniform_int(0, 40);
      crashes.mode = rng_.bernoulli(0.5) ? core::CrashMode::kWipe
                                         : core::CrashMode::kFreeze;
      schedule.set_random_crashes(crashes);
    }
    const auto window_start = [&] {
      return rng_.uniform_int(0, std::max<TimeStep>(1, c.horizon / 2));
    };
    const int crashes = static_cast<int>(rng_.uniform_int(0, 2));
    for (int i = 0; i < crashes; ++i) {
      core::FaultEvent e;
      e.kind = core::FaultKind::kCrash;
      e.node = span(0, n - 1);
      e.at = window_start();
      e.duration = rng_.uniform_int(10, 200);
      e.mode = rng_.bernoulli(0.5) ? core::CrashMode::kWipe
                                   : core::CrashMode::kFreeze;
      schedule.add(e);
    }
    if (!c.network.sinks().empty() && rng_.bernoulli(0.3)) {
      core::FaultEvent e;
      e.kind = core::FaultKind::kSinkOutage;
      e.node = c.network.sinks()[static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(c.network.sinks().size()) - 1))];
      e.at = window_start();
      e.duration = rng_.uniform_int(10, 120);
      schedule.add(e);
    }
    if (!c.network.sources().empty() && rng_.bernoulli(0.3)) {
      core::FaultEvent e;
      e.kind = core::FaultKind::kSourceSurge;
      e.node = c.network.sources()[static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(c.network.sources().size()) - 1))];
      e.at = window_start();
      e.duration = rng_.uniform_int(5, 60);
      e.extra = rng_.uniform_int(1, 4);
      schedule.add(e);
    }
    if (rng_.bernoulli(o.p_byzantine)) {
      core::FaultEvent e;
      e.kind = core::FaultKind::kByzantine;
      e.node = span(0, n - 1);
      e.at = window_start();
      e.duration = rng_.bernoulli(0.5) ? TimeStep{-1}
                                       : rng_.uniform_int(50, 500);
      e.declare = rng_.bernoulli(0.5) ? 0 : rng_.uniform_int(10, 1000);
      schedule.add(e);
      any_byzantine = true;
    }
    c.faults = std::move(schedule);
  }

  // Scheduled topology churn: the scripted mutate-and-heal family.  Every
  // cut is paired with a later restore, so the hostile part is the window
  // in between and the instance ends structurally whole — the shape the
  // incremental certificate and shard repair have to survive.
  if (rng_.bernoulli(o.p_scheduled_churn)) {
    core::FaultSchedule churn;
    const TimeStep mid = std::max<TimeStep>(2, c.horizon / 2);
    const EdgeId edges = c.network.topology().edge_count();
    {
      const EdgeId e = static_cast<EdgeId>(rng_.uniform_int(0, edges - 1));
      const TimeStep at = rng_.uniform_int(1, mid);
      churn.add({.kind = core::FaultKind::kEdgeRemove, .at = at, .edge = e});
      churn.add({.kind = core::FaultKind::kEdgeAdd,
                 .at = at + rng_.uniform_int(5, 60),
                 .edge = e});
    }
    if (rng_.bernoulli(0.5)) {
      const NodeId v = span(0, n - 1);
      const TimeStep at = rng_.uniform_int(1, mid);
      churn.add({.kind = core::FaultKind::kNodeLeave, .node = v, .at = at});
      churn.add({.kind = core::FaultKind::kNodeJoin,
                 .node = v,
                 .at = at + rng_.uniform_int(5, 60)});
    }
    if (rng_.bernoulli(0.5)) {
      core::FaultEvent nudge;
      nudge.kind = core::FaultKind::kCapacityNudge;
      nudge.node = span(0, n - 1);
      nudge.at = rng_.uniform_int(1, std::max<TimeStep>(1, c.horizon - 1));
      nudge.din = rng_.bernoulli(0.5) ? 1 : -1;
      if (rng_.bernoulli(0.5)) nudge.dout = rng_.bernoulli(0.5) ? 1 : -1;
      churn.add(nudge);
    }
    c.churn_events = std::move(churn);
    // A slice of the churn family runs sharded: churn mutates the topology
    // under a ShardPlan built from the base graph, and the sharded run must
    // stay bitwise-faithful to serial.
    if (rng_.bernoulli(0.3)) c.shards = 2;
  }

  // Oracle arming.  The always-sound set goes everywhere; the Lemma-1
  // bounds only where Section III proves them: unsaturated instance, LGG,
  // truthful declarations, arrivals within in(v), static topology, no
  // fault interference.  Silent loss is covered by the paper and stays
  // armed-compatible.
  c.oracles = kOracleAlwaysSound;
  const bool clean = c.faults.empty() && c.churn_events.empty() &&
                     c.churn_off < 0.0 && c.arrival_spec.empty() &&
                     c.protocol == "lgg" && !c.matching &&
                     c.declaration == core::DeclarationPolicy::kTruthful &&
                     c.arrival_scale <= 1.0;
  if (clean) {
    try {
      const auto report = core::analyze(c.network);
      if (report.unsaturated) {
        c.oracles |= kOracleGrowth | kOracleState;
        c.expect_stable = true;
        // A slice of the certified-stable instances also runs governed: the
        // governed oracle then proves the zero-shed guarantee in the wild.
        // The bit is seed-derived (not drawn from rng_) so arming governors
        // never perturbs the generator's RNG stream — pinned-seed soaks
        // keep producing the exact same scenario sequence.
        if ((derive_seed(c.seed, 0x60F) & 3) == 0) {
          c.governor = true;
          c.oracles |= kOracleGoverned;
        }
      }
    } catch (const std::exception&) {
      // Analysis can reject degenerate instances; keep the sound set.
    }
  }
  (void)any_byzantine;  // scripted lies are excluded by the non-strict
                        // R-bound oracle; nothing to arm differently.

  // Crash-recovery drill: arm the end-of-run failpoint-injected chain
  // exercise on a slice of scenarios.  The p_crash_recovery > 0 guard
  // keeps the default generator stream — and every pinned-seed soak
  // sequence — unchanged, exactly like p_adversarial above.
  if (o.p_crash_recovery > 0.0 && rng_.bernoulli(o.p_crash_recovery)) {
    c.oracles |= kOracleCrashRecovery;
  }

  // Cap runaway divergence so an infeasible draw ends in bounded time.
  c.divergence_bound = 1e14;
  return c;
}

}  // namespace lgg::chaos
