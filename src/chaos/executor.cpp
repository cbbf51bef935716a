#include "chaos/executor.hpp"

#include <algorithm>
#include <cctype>
#include <csignal>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>

#include "chaos/shrink.hpp"
#include "common/backoff.hpp"
#include "common/exit_codes.hpp"
#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "obs/expose.hpp"

namespace lgg::chaos {

namespace fs = std::filesystem;

namespace {

volatile std::sig_atomic_t g_stop = 0;

extern "C" void stop_handler(int) { g_stop = 1; }

/// Interruptible sleep: returns early when a stop is requested.
void sleep_ms(std::int64_t ms) {
  constexpr std::int64_t kChunk = 20;
  while (ms > 0 && g_stop == 0) {
    const std::int64_t step = std::min(ms, kChunk);
    timespec ts{static_cast<time_t>(step / 1000),
                static_cast<long>((step % 1000) * 1000000)};
    nanosleep(&ts, nullptr);
    ms -= step;
  }
}

/// What happened to the forked child, before verdict interpretation.
struct ChildResult {
  enum class Kind {
    kExited,       ///< normal exit; `code` is the exit code
    kWatchdog,     ///< we SIGKILLed it past the deadline
    kSignaled,     ///< died to some other signal (crash)
    kSpawnFailed,  ///< fork() failed
    kStopped,      ///< graceful stop arrived mid-run
  };
  Kind kind = Kind::kSpawnFailed;
  int code = -1;
};

ChildResult run_in_child(const ScenarioConfig& config,
                         const fs::path& outcome_path,
                         std::int64_t deadline_ms) {
  using Clock = std::chrono::steady_clock;
  const pid_t pid = fork();
  if (pid < 0) return {ChildResult::Kind::kSpawnFailed, -1};
  if (pid == 0) {
    // Child: run to a verdict, leave the outcome for the parent, and exit
    // with the contract code.  _exit skips atexit/static destructors —
    // nothing in this process owns external state.
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    const ScenarioOutcome outcome = run_scenario(config, deadline_ms);
    {
      std::ofstream os(outcome_path, std::ios::trunc);
      write_outcome(os, outcome);
    }
    _exit(verdict_exit_code(outcome.verdict));
  }
  // Parent: poll-reap under the hard watchdog.  The child's own soft
  // deadline fires first on a slow-but-live run; this path is for hangs
  // (including the hang_ms fixture, which sleeps before its soft-deadline
  // checks even start).
  const auto hard_deadline =
      Clock::now() + std::chrono::milliseconds(deadline_ms + 500);
  for (;;) {
    int status = 0;
    const pid_t reaped = waitpid(pid, &status, WNOHANG);
    if (reaped == pid) {
      if (WIFEXITED(status)) {
        return {ChildResult::Kind::kExited, WEXITSTATUS(status)};
      }
      return {ChildResult::Kind::kSignaled,
              WIFSIGNALED(status) ? WTERMSIG(status) : -1};
    }
    if (g_stop != 0) {
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      return {ChildResult::Kind::kStopped, -1};
    }
    if (Clock::now() >= hard_deadline) {
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      return {ChildResult::Kind::kWatchdog, -1};
    }
    timespec ts{0, 10 * 1000000};  // 10ms
    nanosleep(&ts, nullptr);
  }
}

std::string artifact_stem(const ScenarioConfig& config) {
  std::string stem = config.label;
  for (char& c : stem) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
          c == '_')) {
      c = '_';
    }
  }
  return stem + "-seed" + std::to_string(config.seed);
}

}  // namespace

std::string_view to_string(RunClass c) {
  switch (c) {
    case RunClass::kOk: return "ok";
    case RunClass::kExpectedDivergence: return "diverged";
    case RunClass::kFinding: return "finding";
    case RunClass::kTimeout: return "timeout";
    case RunClass::kQuarantined: return "quarantined";
    case RunClass::kStopped: return "stopped";
  }
  return "?";
}

Executor::Executor(ExecutorOptions options) : options_(std::move(options)) {
  fs::create_directories(fs::path(options_.out_dir) / "violations");
  fs::create_directories(fs::path(options_.out_dir) / "timeouts");
  fs::create_directories(fs::path(options_.out_dir) / "quarantine");
}

void Executor::install_signal_handlers() {
  struct sigaction action {};
  action.sa_handler = stop_handler;
  sigemptyset(&action.sa_mask);
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

bool Executor::stop_requested() { return g_stop != 0; }

void Executor::reset_stop() { g_stop = 0; }

RunClass Executor::run_one(const ScenarioConfig& config) {
  if (stop_requested()) return RunClass::kStopped;
  ++totals_.scenarios;

  const fs::path out_dir(options_.out_dir);
  const fs::path outcome_tmp = out_dir / ".child-outcome.txt";
  const std::string stem = artifact_stem(config);
  common::Backoff backoff(options_.backoff_initial_ms,
                          options_.backoff_max_ms);
  const int max_attempts = std::max(1, options_.max_attempts);

  RunClass result = RunClass::kQuarantined;
  std::string note;
  std::int64_t run_recoveries = 0;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1) {
      ++totals_.retries;
      // ±25% deterministic jitter decorrelates retry storms across a soak
      // fleet without touching the wall clock or any global RNG — the same
      // (seed, attempt) always sleeps the same span, so replays stay exact.
      sleep_ms(backoff.next_jittered(derive_seed(
          config.seed, 0xB0FFu + static_cast<unsigned>(attempt))));
      if (stop_requested()) {
        result = RunClass::kStopped;
        break;
      }
    }
    std::error_code ec;
    fs::remove(outcome_tmp, ec);
    const ChildResult child =
        run_in_child(config, outcome_tmp, options_.deadline_ms);

    if (child.kind == ChildResult::Kind::kStopped) {
      result = RunClass::kStopped;
      break;
    }
    if (child.kind == ChildResult::Kind::kWatchdog ||
        (child.kind == ChildResult::Kind::kExited &&
         child.code == kExitTimeout)) {
      // Hung (or soft-deadlined) replicate: record and move on — hangs are
      // deterministic functions of the config here, retrying buys nothing.
      write_scenario_file(config,
                          (out_dir / "timeouts" / (stem + ".scenario"))
                              .string());
      note = child.kind == ChildResult::Kind::kWatchdog ? "watchdog-killed"
                                                        : "soft-deadline";
      result = RunClass::kTimeout;
      break;
    }
    if (child.kind == ChildResult::Kind::kExited &&
        (child.code == kExitOk || child.code == kExitDiverged ||
         child.code == kExitViolation)) {
      ScenarioOutcome outcome;
      {
        std::ifstream is(outcome_tmp);
        if (is) outcome = read_outcome(is);
      }
      run_recoveries = outcome.recoveries;
      totals_.recoveries += static_cast<std::size_t>(
          std::max<std::int64_t>(0, outcome.recoveries));
      if (child.code == kExitOk) {
        result = RunClass::kOk;
      } else if (child.code == kExitDiverged && !config.expect_stable) {
        result = RunClass::kExpectedDivergence;
      } else {
        // Violation, or divergence the analysis said could not happen.
        const fs::path dir = out_dir / "violations";
        write_scenario_file(config, (dir / (stem + ".scenario")).string());
        {
          std::ofstream os(dir / (stem + ".outcome"), std::ios::trunc);
          write_outcome(os, outcome);
        }
        if (outcome.violation) {
          note = "oracle=" + oracles_to_string(outcome.violation->oracle);
        } else {
          note = "unexpected-divergence";
        }
        if (options_.shrink_findings && is_finding(config, outcome)) {
          try {
            const ShrinkResult minimized = shrink(config, outcome);
            write_scenario_file(
                minimized.minimized,
                (dir / (stem + ".min.scenario")).string());
            std::ofstream os(dir / (stem + ".min.outcome"),
                             std::ios::trunc);
            write_outcome(os, minimized.outcome);
          } catch (const std::exception&) {
            // Shrink trouble never loses the original artifact.
          }
        }
        result = RunClass::kFinding;
      }
      break;
    }
    // Crash, spawn failure, or usage error: transient-or-broken.  Retry
    // with backoff; quarantine when attempts run out.
    if (attempt == max_attempts) {
      write_scenario_file(
          config,
          (out_dir / "quarantine" / (stem + ".scenario")).string());
      std::ostringstream why;
      why << "attempts " << max_attempts << ", last: ";
      if (child.kind == ChildResult::Kind::kSignaled) {
        why << "killed by signal " << child.code;
      } else if (child.kind == ChildResult::Kind::kSpawnFailed) {
        why << "fork failed";
      } else {
        why << "exit code " << child.code;
        // The child records what went wrong in its outcome file; pull the
        // error text into the reason so triage doesn't need a replay.
        std::ifstream is(outcome_tmp);
        if (is) {
          try {
            const ScenarioOutcome last = read_outcome(is);
            if (!last.error.empty()) why << " (" << last.error << ')';
          } catch (const std::exception&) {
            // A half-written outcome file just means no extra detail.
          }
        }
      }
      note = why.str();
      (void)common::write_file_durable(
          (out_dir / "quarantine" / (stem + ".reason.txt")).string(),
          note + "\n", "soak");
      result = RunClass::kQuarantined;
    }
  }

  std::error_code ec;
  fs::remove(outcome_tmp, ec);

  switch (result) {
    case RunClass::kOk: ++totals_.ok; break;
    case RunClass::kExpectedDivergence: ++totals_.diverged; break;
    case RunClass::kFinding: ++totals_.findings; break;
    case RunClass::kTimeout: ++totals_.timeouts; break;
    case RunClass::kQuarantined: ++totals_.quarantined; break;
    case RunClass::kStopped: --totals_.scenarios; break;
  }
  if (result != RunClass::kStopped) {
    std::ostringstream line;
    line << stem << " class=" << to_string(result);
    if (run_recoveries > 0) line << " recoveries=" << run_recoveries;
    if (!note.empty()) line << " (" << note << ')';
    events_.push_back(line.str());
    write_summary();
  }
  return result;
}

std::string Executor::summary_line() const {
  std::ostringstream os;
  os << "soak: scenarios=" << totals_.scenarios << " ok=" << totals_.ok
     << " violations=" << totals_.findings
     << " diverged=" << totals_.diverged << " timeouts=" << totals_.timeouts
     << " quarantined=" << totals_.quarantined
     << " retries=" << totals_.retries
     << " recoveries=" << totals_.recoveries;
  return os.str();
}

void Executor::write_summary() const {
  std::ostringstream os;
  os << summary_line() << '\n';
  for (const std::string& line : events_) os << line << '\n';
  // Best effort: a failed summary write must never stop the soak.
  (void)common::write_file_durable(
      (fs::path(options_.out_dir) / "soak-summary.txt").string(), os.str(),
      "soak");

  // Prometheus twin: the same totals as lgg_soak_* counters, one scrape-
  // able file per soak directory.  Rides the same after-every-scenario
  // hook, so a watcher's view is at most one scenario stale.
  std::string prom;
  const auto counter = [&prom](std::string_view name, std::size_t value) {
    prom += "# TYPE ";
    prom.append(name.begin(), name.end());
    prom += " counter\n";
    prom.append(name.begin(), name.end());
    prom.push_back(' ');
    prom += std::to_string(value);
    prom.push_back('\n');
  };
  counter("lgg_soak_scenarios", totals_.scenarios);
  counter("lgg_soak_ok", totals_.ok);
  counter("lgg_soak_findings", totals_.findings);
  counter("lgg_soak_diverged", totals_.diverged);
  counter("lgg_soak_timeouts", totals_.timeouts);
  counter("lgg_soak_quarantined", totals_.quarantined);
  counter("lgg_soak_retries", totals_.retries);
  counter("lgg_soak_recoveries", totals_.recoveries);
  obs::write_file_atomic(
      (fs::path(options_.out_dir) / "soak-status.prom").string(), prom);
}

}  // namespace lgg::chaos
