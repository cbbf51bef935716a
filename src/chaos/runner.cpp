#include "chaos/runner.hpp"

#include <chrono>
#include <memory>
#include <optional>
#include <thread>

#include "baselines/protocol_registry.hpp"
#include "common/exit_codes.hpp"
#include "common/failpoint.hpp"
#include "common/require.hpp"
#include "control/governor.hpp"
#include "control/sentinel.hpp"
#include "core/arrival.hpp"
#include "core/interference.hpp"
#include "core/loss.hpp"
#include "core/simulator.hpp"
#include "traffic/spec.hpp"

namespace lgg::chaos {

std::string_view to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::kOk: return "ok";
    case Verdict::kViolation: return "violation";
    case Verdict::kDiverged: return "diverged";
    case Verdict::kDeadline: return "deadline";
    case Verdict::kError: return "error";
  }
  return "?";
}

int verdict_exit_code(Verdict verdict) {
  switch (verdict) {
    case Verdict::kOk: return kExitOk;
    case Verdict::kViolation: return kExitViolation;
    case Verdict::kDiverged: return kExitDiverged;
    case Verdict::kDeadline: return kExitTimeout;
    case Verdict::kError: return kExitUsage;
  }
  return kExitUsage;
}

bool is_finding(const ScenarioConfig& config, const ScenarioOutcome& outcome) {
  if (outcome.verdict == Verdict::kViolation) return true;
  return outcome.verdict == Verdict::kDiverged && config.expect_stable;
}

ScenarioOutcome run_scenario(const ScenarioConfig& config,
                             std::int64_t deadline_ms_override) {
  using Clock = std::chrono::steady_clock;
  ScenarioOutcome outcome;
  const std::int64_t deadline_ms =
      config.deadline_ms > 0 ? config.deadline_ms : deadline_ms_override;

  // Test hook: a scenario that pretends to hang, so the executor's watchdog
  // has something to reap deterministically.
  if (config.hang_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(config.hang_ms));
  }

  // Assembly failures (bad protocol name, invalid network or schedule) are
  // usage errors, not findings — keep them outside the loop's catch, which
  // folds ContractViolation into the contract oracle.
  std::unique_ptr<core::Simulator> sim;
  std::unique_ptr<control::AdmissionGovernor> governor;
  // Scenario failpoints stay armed for the whole run (the RAII guard clears
  // the registry on every exit path); a malformed spec is a usage error.
  std::optional<common::ScopedFailpoints> failpoints;
  try {
    failpoints.emplace(config.failpoints);
    config.network.validate();
    config.faults.validate(config.network);
    config.churn_events.validate(config.network);

    core::SimulatorOptions options;
    options.declaration_policy = config.declaration;
    options.check_contract = (config.oracles & kOracleContract) != 0;
    options.seed = config.seed;
    sim = std::make_unique<core::Simulator>(
        config.network, options, baselines::make_protocol(config.protocol));
    if (config.arrival_scale >= 0.0) {
      sim->set_arrival(
          std::make_unique<core::ScaledArrival>(config.arrival_scale));
    }
    if (!config.arrival_spec.empty()) {
      // Mutual exclusion with arrival_scale is enforced at parse time.
      sim->set_arrival(traffic::make_arrival(config.arrival_spec));
    }
    if (config.loss > 0.0) {
      sim->set_loss(std::make_unique<core::BernoulliLoss>(config.loss));
    }
    if (config.matching) {
      sim->set_scheduler(std::make_unique<core::GreedyMatchingScheduler>());
    }
    if (!config.faults.empty() || !config.churn_events.empty() ||
        config.churn_off >= 0.0) {
      // One injector drives all three stanzas; the churn line and the
      // churn clauses are kept separate in the file format only for
      // legibility and shrinking.
      core::FaultSchedule merged = config.faults;
      for (const core::FaultEvent& e : config.churn_events.events()) {
        merged.add(e);
      }
      if (config.churn_off >= 0.0) {
        merged.set_random_churn({config.churn_off, config.churn_on, {}});
      }
      sim->set_faults(std::make_unique<core::FaultInjector>(
          std::move(merged), config.effective_fault_seed()));
    }
    if (config.shards >= 1) {
      // The shard engine reproduces the serial trajectory bitwise, so a
      // sharded soak exercises the engine's concurrency without changing
      // what the oracles should observe.
      sim->enable_sharding(config.shards);
    }
    if (config.governor) {
      control::GovernorOptions gov;
      gov.target_eps = config.governor_target_eps;
      gov.brownout = config.brownout;
      governor = std::make_unique<control::AdmissionGovernor>(sim->network(),
                                                              gov);
      sim->set_admission(governor.get());
    }
  } catch (const std::exception& e) {
    outcome.verdict = Verdict::kError;
    outcome.error = e.what();
    return outcome;
  }

  try {
    OracleSuite oracle(config, *sim);
    sim->set_observer(&oracle);

    // Unified divergence detection (shared with RunSupervisor): the
    // configured bound stays as the raw backstop; the sentinel adds the
    // statistical verdict.  A governed run is expected to *contain*
    // statistical overload, so only the raw backstop ends it early.
    std::optional<control::SaturationSentinel> sentinel;
    if (config.divergence_bound > 0.0) {
      sentinel.emplace(sim->network());
    }

    const Clock::time_point start = Clock::now();
    const TimeStep chunk = std::max<TimeStep>(1, config.check_every);
    bool deadline_hit = false;
    while (outcome.steps_done < config.horizon && !oracle.violated()) {
      const TimeStep todo =
          std::min(chunk, config.horizon - outcome.steps_done);
      for (TimeStep i = 0; i < todo && !oracle.violated(); ++i) {
        sim->step();
        ++outcome.steps_done;
      }
      if (sentinel.has_value()) {
        const double potential = sim->network_state();
        sentinel->observe(sim->now(), potential);
        const bool raw = potential > config.divergence_bound;
        if (raw || (!config.governor && sentinel->diverged(0.0, potential))) {
          outcome.verdict = Verdict::kDiverged;
          break;
        }
      }
      if (deadline_ms > 0 &&
          Clock::now() - start >= std::chrono::milliseconds(deadline_ms)) {
        deadline_hit = true;
        break;
      }
    }
    if (!oracle.violated() && outcome.verdict != Verdict::kDiverged &&
        !deadline_hit) {
      oracle.finish();
    }
    outcome.final_packets = sim->total_packets();
    outcome.final_state = sim->network_state();
    outcome.recoveries = oracle.recoveries();
    if (oracle.violated()) {
      outcome.verdict = Verdict::kViolation;
      outcome.violation = oracle.violation();
    } else if (deadline_hit) {
      outcome.verdict = Verdict::kDeadline;
    }
  } catch (const ContractViolation& e) {
    // The simulator's own contract checking (check_contract) throws; fold
    // it into the contract oracle so shrink/replay treat it uniformly.
    outcome.verdict = Verdict::kViolation;
    outcome.violation =
        Violation{kOracleContract, outcome.steps_done, e.what()};
  } catch (const std::exception& e) {
    outcome.verdict = Verdict::kError;
    outcome.error = e.what();
  }
  return outcome;
}

void write_outcome(std::ostream& os, const ScenarioOutcome& outcome) {
  os << "verdict " << to_string(outcome.verdict) << '\n';
  os << "steps " << outcome.steps_done << '\n';
  os << "packets " << outcome.final_packets << '\n';
  os << "state " << outcome.final_state << '\n';
  if (outcome.recoveries > 0) os << "recoveries " << outcome.recoveries << '\n';
  if (outcome.violation) {
    os << "oracle " << oracles_to_string(outcome.violation->oracle) << '\n';
    os << "violation_step " << outcome.violation->step << '\n';
    os << "message " << outcome.violation->message << '\n';
  }
  if (!outcome.error.empty()) os << "error " << outcome.error << '\n';
}

ScenarioOutcome read_outcome(std::istream& is) {
  ScenarioOutcome outcome;
  Violation violation;
  bool has_violation = false;
  std::string line;
  while (std::getline(is, line)) {
    const auto space = line.find(' ');
    if (space == std::string::npos) continue;
    const std::string key = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    if (key == "verdict") {
      for (const Verdict v :
           {Verdict::kOk, Verdict::kViolation, Verdict::kDiverged,
            Verdict::kDeadline, Verdict::kError}) {
        if (value == to_string(v)) outcome.verdict = v;
      }
    } else if (key == "steps") {
      outcome.steps_done = std::stoll(value);
    } else if (key == "packets") {
      outcome.final_packets = std::stoll(value);
    } else if (key == "state") {
      outcome.final_state = std::stod(value);
    } else if (key == "recoveries") {
      outcome.recoveries = std::stoll(value);
    } else if (key == "oracle") {
      violation.oracle = oracles_from_string(value);
      has_violation = true;
    } else if (key == "violation_step") {
      violation.step = std::stoll(value);
      has_violation = true;
    } else if (key == "message") {
      violation.message = value;
      has_violation = true;
    } else if (key == "error") {
      outcome.error = value;
    }
  }
  if (has_violation) outcome.violation = violation;
  return outcome;
}

}  // namespace lgg::chaos
