#include "analysis/supervisor.hpp"

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <limits>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include <signal.h>

#include "common/backoff.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "control/sentinel.hpp"
#include "core/checkpoint.hpp"
#include "core/ckpt_chain.hpp"
#include "core/faults.hpp"
#include "core/simulator.hpp"
#include "obs/expose.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"

namespace lgg::analysis {

void Deadline::check(const std::string& what) const {
  if (!expired()) return;
  throw DeadlineExceeded(what + ": wall-clock deadline of " +
                         std::to_string(budget_.count()) + " ms exceeded");
}

RunSupervisor::RunSupervisor(SupervisorOptions options)
    : options_(std::move(options)) {
  LGG_REQUIRE(options_.check_every >= 1, "RunSupervisor: check_every >= 1");
  LGG_REQUIRE(options_.checkpoint_every >= 0,
              "RunSupervisor: checkpoint_every >= 0");
  LGG_REQUIRE(options_.checkpoint_every == 0 ||
                  !options_.checkpoint_path.empty(),
              "RunSupervisor: periodic checkpoints need a checkpoint_path");
  LGG_REQUIRE(options_.generations >= 1, "RunSupervisor: generations >= 1");
  LGG_REQUIRE(options_.max_recoveries >= 0,
              "RunSupervisor: max_recoveries >= 0");
  LGG_REQUIRE(options_.max_recoveries == 0 || options_.generations >= 2,
              "RunSupervisor: self-healing needs generations >= 2");
}

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;
volatile std::sig_atomic_t g_statusz_requested = 0;

extern "C" void supervisor_stop_handler(int) { g_stop_requested = 1; }
extern "C" void supervisor_statusz_handler(int) { g_statusz_requested = 1; }

/// RAII SIGINT/SIGTERM/SIGUSR1 trap: handlers set only sig_atomic_t flags
/// (async-signal safe); the run loop polls them at chunk boundaries.  The
/// previous dispositions are restored on destruction, so supervised runs
/// compose with whatever the embedding tool installed.
class ScopedSignalTrap {
 public:
  ScopedSignalTrap() {
    g_stop_requested = 0;
    g_statusz_requested = 0;
    struct sigaction action {};
    action.sa_handler = supervisor_stop_handler;
    sigemptyset(&action.sa_mask);
    sigaction(SIGINT, &action, &old_int_);
    sigaction(SIGTERM, &action, &old_term_);
    struct sigaction statusz {};
    statusz.sa_handler = supervisor_statusz_handler;
    sigemptyset(&statusz.sa_mask);
    sigaction(SIGUSR1, &statusz, &old_usr1_);
  }
  ~ScopedSignalTrap() {
    sigaction(SIGINT, &old_int_, nullptr);
    sigaction(SIGTERM, &old_term_, nullptr);
    sigaction(SIGUSR1, &old_usr1_, nullptr);
  }
  ScopedSignalTrap(const ScopedSignalTrap&) = delete;
  ScopedSignalTrap& operator=(const ScopedSignalTrap&) = delete;

  [[nodiscard]] static bool stop_requested() {
    return g_stop_requested != 0;
  }
  /// True once per SIGUSR1: reading consumes the request.
  [[nodiscard]] static bool take_statusz_request() {
    if (g_statusz_requested == 0) return false;
    g_statusz_requested = 0;
    return true;
  }

 private:
  struct sigaction old_int_ {};
  struct sigaction old_term_ {};
  struct sigaction old_usr1_ {};
};

/// One self-heal: pre-restore flight event, rollback via the chain, then a
/// durable side-journal line.  The flight event goes in *before* the
/// restore so the restored ring wipes it — the event stream stays
/// byte-identical to an uninterrupted run's — leaving it visible only in
/// crash dumps written between the failure and the rollback.  The journal
/// (`<base>.recovery.jsonl`, append-only) is the durable out-of-band record
/// of every heal, for the same reason the counters live in statusz rather
/// than the metric registry.
std::optional<core::CheckpointChain::Recovery> self_heal(
    const SupervisorOptions& options, core::Simulator& sim,
    core::CheckpointChain& chain, const std::string& error, int attempt) {
  if (sim.telemetry() != nullptr && sim.telemetry()->flight() != nullptr) {
    sim.telemetry()->record_event(
        {sim.now(), obs::EventKind::kRecovery, kInvalidNode, kInvalidNode,
         static_cast<std::int64_t>(chain.latest())});
  }
  const TimeStep failed_at = sim.now();
  auto recovered = chain.recover(sim, options.telemetry_rewind);
  if (!recovered.has_value()) return recovered;

  std::ofstream journal(chain.base_path() + ".recovery.jsonl",
                        std::ios::app);
  if (journal.is_open()) {
    obs::JsonWriter w;
    w.begin_object();
    w.field("type", "recovery");
    w.field("attempt", static_cast<std::int64_t>(attempt));
    w.field("failed_at", static_cast<std::int64_t>(failed_at));
    w.field("restored_step", static_cast<std::int64_t>(recovered->step));
    w.field("generation", recovered->generation);
    w.field("rollback_depth",
            static_cast<std::int64_t>(recovered->rollback_depth));
    w.field("error", error);
    w.end_object();
    journal << w.str() << '\n';
  }
  return recovered;
}

}  // namespace

std::string RunSupervisor::write_crash_dump(core::Simulator& sim,
                                            const std::string& error) const {
  if (options_.crash_dump_dir.empty()) return {};
  const std::string base =
      options_.crash_dump_dir + "/" + options_.label + ".crash";
  const std::string ckpt_path = base + ".ckpt";
  bool have_ckpt = false;
  try {
    core::write_checkpoint_file(sim, ckpt_path);
    have_ckpt = true;
  } catch (const std::exception&) {
    // The dump text still records the failure even without a checkpoint.
  }

  // The flight recorder's recent-event ring is the post-mortem's step-by-
  // step record; dump it next to the checkpoint when one is attached.
  std::string events_path;
  if (sim.telemetry() != nullptr && sim.telemetry()->flight() != nullptr &&
      sim.telemetry()->flight()->size() > 0) {
    events_path = base + ".events.jsonl";
    std::ofstream events(events_path, std::ios::trunc);
    if (events.is_open()) {
      sim.telemetry()->dump_flight(events);
    } else {
      events_path.clear();
    }
  }

  std::ofstream os(base + ".txt", std::ios::trunc);
  if (!os.is_open()) return {};
  os << "# lgg crash dump\n"
     << "label: " << options_.label << '\n'
     << "seed: " << options_.seed << '\n'
     << "step: " << sim.now() << '\n'
     << "total_packets: " << sim.total_packets() << '\n'
     << "network_state: " << sim.network_state() << '\n'
     << "error: " << error << '\n';
  if (sim.faults() != nullptr) {
    os << "faults: " << core::to_string(sim.faults()->schedule()) << '\n';
  }
  if (have_ckpt) os << "checkpoint: " << ckpt_path << '\n';
  if (!events_path.empty()) os << "events: " << events_path << '\n';
  if (!options_.repro_config.empty()) {
    os << "config:\n" << options_.repro_config << '\n';
  }
  return base + ".txt";
}

SupervisedResult RunSupervisor::run(core::Simulator& sim, TimeStep steps,
                                    core::MetricsRecorder* recorder) const {
  LGG_REQUIRE(steps >= 0, "RunSupervisor::run: negative step count");
  SupervisedResult result;
  const Deadline deadline(options_.deadline);
  std::optional<ScopedSignalTrap> trap;
  if (options_.handle_signals) trap.emplace();

  // Self-healing works against a *target* step, not a remaining count: a
  // rollback moves sim.now() backwards and the healed attempt must re-run
  // the lost ground, so every loop recomputes remaining = target - now().
  const TimeStep start_step = sim.now();
  const TimeStep target_step = start_step + steps;

  // Generation-chain mode (generations >= 2): periodic checkpoints become
  // ring generations with a CRC'd manifest, the substrate self-healing
  // rolls back onto.  generations == 1 keeps the classic single-file path
  // bit for bit.
  std::optional<core::CheckpointChain> chain;
  if (options_.generations >= 2 && !options_.checkpoint_path.empty()) {
    chain.emplace(options_.checkpoint_path, options_.generations);
  }
  const auto write_checkpoint = [&]() {
    if (options_.checkpoint_path.empty()) return;
    // Record the event *before* writing: the saved telemetry state then
    // includes it, so a resumed stream matches the uninterrupted one byte
    // for byte.
    if (sim.telemetry() != nullptr && sim.telemetry()->armed()) {
      sim.telemetry()->record_checkpoint(sim.now());
    }
    if (chain.has_value()) {
      chain->append(sim, options_.telemetry_offset != nullptr
                             ? options_.telemetry_offset()
                             : 0);
    } else {
      core::write_checkpoint_file_atomic(sim, options_.checkpoint_path);
    }
  };

  // Live exposition: periodic and SIGUSR1-triggered statusz snapshots.
  // Writes are atomic (temp + rename) and read only completed-step state,
  // so a watcher never perturbs — or tears — the run.  Recovery counters
  // ride along here (and in the side journal) rather than in the metric
  // registry: registry contents land in telemetry snapshot lines, and the
  // healed stream must stay byte-identical to an uninterrupted run's.
  std::uint64_t statusz_writes = 0;
  const auto write_statusz = [&]() {
    obs::StatuszInfo info;
    info.label = options_.label;
    info.step = sim.now();
    info.potential = sim.network_state();
    info.total_packets = sim.total_packets();
    obs::Telemetry* const tel = sim.telemetry();
    info.snapshots = tel != nullptr ? tel->sequence() : 0;
    info.flight_recorded = tel != nullptr && tel->flight() != nullptr
                               ? tel->flight()->recorded()
                               : 0;
    info.writes = ++statusz_writes;
    info.recoveries = static_cast<std::uint64_t>(result.recoveries);
    info.rollback_depth = static_cast<std::uint64_t>(result.rollback_depth);
    obs::write_statusz_file(options_.statusz_path, info,
                            tel != nullptr ? &tel->registry() : nullptr);
  };

  // Divergence watching is unified behind the saturation sentinel: the
  // configured raw bound stays as the compatibility backstop, and on top of
  // it the sentinel's statistical verdict (Page–Hinkley past threshold with
  // P_t beyond an absolute floor) catches runaway growth the fixed
  // threshold would only meet much later.  When an admission controller is
  // attached, statistical overload is its job to govern — the supervisor
  // then aborts only on the raw backstop, i.e. govern-and-continue.
  std::optional<control::SaturationSentinel> sentinel;
  common::Backoff backoff(options_.recovery_backoff_ms,
                          options_.recovery_backoff_max_ms);
  for (;;) {
    // (Re)armed fresh on every attempt: after a rollback the sentinel
    // would otherwise see time run backwards.
    if (options_.divergence_bound > 0.0) sentinel.emplace(sim.network());
    TimeStep next_checkpoint =
        options_.checkpoint_every > 0 ? sim.now() + options_.checkpoint_every
                                      : std::numeric_limits<TimeStep>::max();
    TimeStep next_statusz =
        !options_.statusz_path.empty() && options_.statusz_every > 0
            ? sim.now() + options_.statusz_every
            : std::numeric_limits<TimeStep>::max();
    try {
      while (sim.now() < target_step) {
        if (trap && ScopedSignalTrap::stop_requested()) {
          // Graceful stop: leave resumable state behind before returning.
          write_checkpoint();
          result.kind = SupervisedResult::FailureKind::kStopped;
          result.error = "stopped by signal at step " +
                         std::to_string(static_cast<long long>(sim.now()));
          result.crash_dump_path = write_crash_dump(sim, result.error);
          result.steps_done = sim.now() - start_step;
          if (!options_.statusz_path.empty()) write_statusz();
          return result;
        }
        if (trap && !options_.statusz_path.empty() &&
            ScopedSignalTrap::take_statusz_request()) {
          // SIGUSR1: statusz plus a flight-recorder dump, then keep going —
          // the flight ring is read-only here, so the trajectory is
          // untouched.
          write_statusz();
          if (sim.telemetry() != nullptr &&
              sim.telemetry()->flight() != nullptr) {
            std::ostringstream events;
            sim.telemetry()->dump_flight(events);
            obs::write_file_atomic(options_.statusz_path + ".events.jsonl",
                                   events.str());
          }
        }
        // Shrink the chunk so checkpoints land exactly on multiples of
        // checkpoint_every — a resumed run then restarts at a predictable
        // step instead of whatever health-check boundary came next.
        const TimeStep chunk =
            std::min({target_step - sim.now(), options_.check_every,
                      next_checkpoint - sim.now(), next_statusz - sim.now()});
        sim.run(chunk, recorder);

        if (sim.now() >= next_statusz) {
          write_statusz();
          next_statusz = sim.now() + options_.statusz_every;
        }

        if (sentinel.has_value()) {
          const double potential = sim.network_state();
          sentinel->observe(sim.now(), potential);
          const bool raw = potential > options_.divergence_bound;
          if (raw || (sim.admission() == nullptr &&
                      sentinel->diverged(0.0, potential))) {
            std::ostringstream msg;
            msg << sentinel->describe_divergence(
                       raw ? options_.divergence_bound : 0.0, potential)
                << " at step " << sim.now();
            throw DivergenceDetected(msg.str());
          }
        }
        deadline.check(options_.label);

        if (sim.now() >= next_checkpoint) {
          write_checkpoint();
          next_checkpoint = sim.now() + options_.checkpoint_every;
        }
      }
      result.ok = true;
      break;
    } catch (const DivergenceDetected& e) {
      // Not healed: the trajectory is deterministic, so a rollback would
      // replay the identical divergence.  Same for deadlines — the budget
      // is already spent.
      result.kind = SupervisedResult::FailureKind::kDivergence;
      result.error = e.what();
      result.crash_dump_path = write_crash_dump(sim, result.error);
      break;
    } catch (const DeadlineExceeded& e) {
      result.kind = SupervisedResult::FailureKind::kDeadline;
      result.error = e.what();
      result.crash_dump_path = write_crash_dump(sim, result.error);
      break;
    } catch (const std::exception& e) {
      const bool healing =
          chain.has_value() && options_.max_recoveries > 0;
      if (!healing) {
        result.kind = SupervisedResult::FailureKind::kError;
        result.error = e.what();
        result.crash_dump_path = write_crash_dump(sim, result.error);
        break;
      }
      if (result.recoveries >= options_.max_recoveries) {
        result.kind = SupervisedResult::FailureKind::kRecoveryExhausted;
        result.error = "recovery budget (" +
                       std::to_string(options_.max_recoveries) +
                       ") exhausted; last error: " + e.what();
        result.crash_dump_path = write_crash_dump(sim, result.error);
        break;
      }
      const std::optional<core::CheckpointChain::Recovery> recovered =
          self_heal(options_, sim, *chain, e.what(), result.recoveries + 1);
      if (!recovered.has_value()) {
        result.kind = SupervisedResult::FailureKind::kRecoveryExhausted;
        result.error = "no valid checkpoint generation to roll back to; "
                       "last error: " +
                       std::string(e.what());
        result.crash_dump_path = write_crash_dump(sim, result.error);
        break;
      }
      ++result.recoveries;
      result.rollback_depth =
          std::max(result.rollback_depth, recovered->rollback_depth);
      const std::int64_t pause_ms = backoff.next();
      if (pause_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(pause_ms));
      }
      continue;
    }
  }
  result.steps_done = sim.now() - start_step;
  // Final exposition so watchers see the terminal state (ok or failed).
  if (!options_.statusz_path.empty()) write_statusz();
  return result;
}

RunSupervisor::ReplicateReport RunSupervisor::run_replicates(
    ThreadPool& pool, std::size_t count, std::uint64_t master_seed,
    const Replicate& replicate) const {
  LGG_REQUIRE(static_cast<bool>(replicate),
              "run_replicates: empty replicate");
  ReplicateReport report;
  report.values.assign(count, std::numeric_limits<double>::quiet_NaN());
  std::mutex failures_mutex;
  parallel_for(pool, count, [&](std::size_t i) {
    const std::uint64_t seed =
        derive_seed(master_seed, static_cast<std::uint64_t>(i));
    const Deadline deadline(options_.deadline);
    try {
      report.values[i] = replicate(i, seed, deadline);
    } catch (const std::exception& e) {
      const std::lock_guard<std::mutex> lock(failures_mutex);
      report.failures.push_back(
          {i, options_.label + " replicate " + std::to_string(i), e.what()});
    }
  });
  std::sort(report.failures.begin(), report.failures.end(),
            [](const ReplicateFailure& a, const ReplicateFailure& b) {
              return a.index < b.index;
            });
  return report;
}

}  // namespace lgg::analysis
