// lgg_sim — command-line driver for the liblgg simulator.
//
// Reads an S-D-network (sdnet format, see core/trace_io.hpp) from a file
// or stdin, runs a protocol for a number of steps, and reports the
// feasibility analysis, the stability verdict, and (optionally) the full
// trajectory as CSV.
//
// Usage:
//   lgg_sim [options] [network.sdnet]
//     --steps N            simulation horizon           (default 2000)
//     --seed S             RNG seed                     (default 1)
//     --protocol NAME      lgg | lgg_random_tiebreak | flow_routing |
//                          backpressure | hot_potato | random_walk
//     --loss P             Bernoulli loss probability   (default 0)
//     --arrival-scale F    ScaledArrival factor         (default: exact)
//     --arrival SPEC       arrival process (src/traffic/spec.hpp grammar):
//                          exact | scaled:factor= | bernoulli:p= |
//                          uniform:mean= | poisson:mean= | geometric:mean= |
//                          burst:high=,low=,len=,period= |
//                          diurnal:mean=,amp=,period= | pareto:alpha=,mean= |
//                          leaky:rho=,sigma= | token_bucket:r=,b=,period= |
//                          adversary[:strategy=hoard|sweep|queue_aware,
//                                     rho=,sigma=,period=,fanout=]
//                          Strictly validated (unknown name/key, duplicate
//                          or missing keys, malformed numbers, and invalid
//                          parameters are usage errors, exit 2).  Mutually
//                          exclusive with --arrival-scale.
//     --matching           node-exclusive greedy matching scheduler
//     --faults SPEC        fault schedule (core/faults.hpp grammar), e.g.
//                          'crash:node=2,at=100,for=50;random_crashes:p=1e-3'
//                          Scheduled topology churn uses the same grammar:
//                          'edge_remove:edge=3,at=100;edge_add:edge=3,at=200;
//                           node_leave:node=5,at=50;node_join:node=5,at=90;
//                           nudge:node=2,at=10,din=1,dout=-1'
//                          and so does random edge churn:
//                          'random_churn:off=0.02,on=0.3[,protect=0/4/7]'
//                          Schedules are strictly validated (duplicate
//                          events, add-before-remove, join-before-leave,
//                          nudges on departed nodes, and overlapping crash
//                          windows are usage errors, exit 2).
//     --checkpoint FILE    checkpoint file path
//     --checkpoint-every N write FILE atomically every N steps
//     --resume FILE        restore state from FILE before running
//     --generations N      retain N checkpoint generations as a ring with
//                          a CRC'd manifest (core/ckpt_chain.hpp): each
//                          periodic checkpoint becomes FILE.genNNNNNN and
//                          FILE.manifest is updated last, so a newest
//                          valid generation survives any crash instant.
//                          Default 1 = classic single-file checkpoints
//     --max-recoveries N   self-heal in-process I/O or simulator errors by
//                          rolling back to the newest valid generation, at
//                          most N times (capped exponential backoff); the
//                          budget spent exhausts to exit code 5.  Needs
//                          --generations >= 2.  Default 0 = off
//     --recover            on startup, restore from the newest valid
//                          generation named by FILE.manifest (walking
//                          older generations past corrupt ones), truncate
//                          the --telemetry stream to the recorded byte
//                          offset, and continue appending to it.  --steps
//                          is then the TOTAL horizon: the run finishes at
//                          the same step an uninterrupted run would.  A
//                          missing manifest starts fresh; a manifest with
//                          no valid generation exits 5
//     --failpoints SPEC    arm deterministic I/O fault injection
//                          (common/failpoint.hpp grammar), e.g.
//                          'ckpt.fsync:at=2,action=error;
//                           telemetry.append:at=5,action=torn,keep=7;
//                           manifest.rename:at=1,action=abort'
//                          action=abort raises SIGKILL at the Nth hit —
//                          the crash-recovery harness's kill switch
//     --csv FILE           write the trajectory as CSV
//     --telemetry FILE     write JSONL telemetry snapshots (docs/formats.md)
//     --telemetry-every K  steps between snapshots       (default 100)
//     --flight-recorder N  keep the last N step events; dumped into the
//                          telemetry stream (and into crash dumps).
//                          Default 256 with --telemetry, else off
//     --hotspots K         top-K hotspot analytics (obs/hotspots.hpp):
//                          Space-Saving sketches over per-node drift and
//                          queue mass, a {"type":"hotspots"} line per
//                          telemetry snapshot, and a run-end summary table
//     --trace-out FILE     record per-phase (and per-shard) spans and
//                          write them as Chrome trace-event JSON
//                          (chrome://tracing, Perfetto) with the
//                          whole-run per-phase totals; `lgg_inspect
//                          stats FILE` prints the phase table
//     --trace-capacity N   spans retained per lane (default 16384); the
//                          ring keeps the most recent window
//     --statusz FILE       write a Prometheus-text statusz snapshot to
//                          FILE (atomic temp+rename) every --statusz-every
//                          steps, on SIGUSR1 (plus a flight-recorder dump
//                          to FILE.events.jsonl), and at run end; forces
//                          the supervised path
//     --statusz-every N    steps between statusz writes (default 1000;
//                          0 = only on SIGUSR1 and at run end)
//     --deadline-ms N      wall-clock budget; run supervised and exit 4
//                          when it expires
//     --governor           attach the adaptive admission governor
//                          (src/control/, docs/control.md): sheds offered
//                          load when the saturation sentinel certifies
//                          overload, keeps P_t bounded on infeasible inputs
//     --governor-target-eps F  recovery-probe drift target (default 0.05)
//     --brownout           ordered brownout ladder: defer lowest-priority
//                          sources first instead of shedding uniformly
//     --shards K           run the graph-partitioned shard engine with K
//                          shards (bitwise identical to serial; docs:
//                          DESIGN.md "Shard engine")
//     --threads T          worker threads for --shards (default:
//                          min(K, hardware))
//     --analyze-only       print the feasibility report and exit
//
// Exit codes (common/exit_codes.hpp): 0 stable/ok, 1 diverging verdict,
// 2 usage error or exception, 3 packet-conservation violation, 4 deadline
// expired or stopped by SIGINT/SIGTERM, 5 recovery exhausted (the
// self-healing budget was spent, or --recover found a manifest with no
// valid generation).  Supervised runs (--deadline-ms or --checkpoint-every)
// trap SIGINT/SIGTERM and leave a final atomic checkpoint behind before
// exiting.
//
// Example:
//   echo 'nodes 2
//   edge 0 1
//   edge 0 1
//   role 0 1 0 0
//   role 1 0 2 0' | lgg_sim --steps 5000
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include <unistd.h>

#include "analysis/supervisor.hpp"
#include "baselines/protocol_registry.hpp"
#include "common/exit_codes.hpp"
#include "common/failpoint.hpp"
#include "control/governor.hpp"
#include "control/sentinel.hpp"
#include "core/bounds.hpp"
#include "core/checkpoint.hpp"
#include "core/ckpt_chain.hpp"
#include "core/faults.hpp"
#include "core/scenarios.hpp"
#include "core/simulator.hpp"
#include "core/stability.hpp"
#include "core/trace_io.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "traffic/spec.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--steps N] [--seed S] [--protocol NAME] "
               "[--loss P] [--arrival-scale F] [--arrival SPEC] [--matching] "
               "[--faults SPEC] [--checkpoint FILE] "
               "[--checkpoint-every N] [--resume FILE] [--generations N] "
               "[--max-recoveries N] [--recover] [--failpoints SPEC] "
               "[--csv FILE] "
               "[--telemetry FILE] [--telemetry-every K] "
               "[--flight-recorder N] "
               "[--hotspots K] [--trace-out FILE] [--trace-capacity N] "
               "[--statusz FILE] [--statusz-every N] [--deadline-ms N] "
               "[--governor] [--governor-target-eps F] [--brownout] "
               "[--shards K] [--threads T] "
               "[--analyze-only] [network.sdnet]\n",
               argv0);
  std::exit(lgg::kExitUsage);
}

// Strict numeric parsing: trailing garbage, empty strings, and overflow are
// rejected with a one-line error instead of silently becoming 0 (atoll).

long long parse_int(const char* what, const char* text) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "error: %s wants an integer, got '%s'\n", what,
                 text);
    std::exit(lgg::kExitUsage);
  }
  return v;
}

std::uint64_t parse_uint(const char* what, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || *text == '-') {
    std::fprintf(stderr, "error: %s wants a non-negative integer, got '%s'\n",
                 what, text);
    std::exit(lgg::kExitUsage);
  }
  return v;
}

double parse_double(const char* what, const char* text) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "error: %s wants a number, got '%s'\n", what, text);
    std::exit(lgg::kExitUsage);
  }
  return v;
}

double parse_probability(const char* what, const char* text) {
  const double v = parse_double(what, text);
  if (v < 0.0 || v > 1.0) {
    std::fprintf(stderr, "error: %s wants a probability in [0, 1], got %s\n",
                 what, text);
    std::exit(lgg::kExitUsage);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lgg;
  TimeStep steps = 2000;
  std::uint64_t seed = 1;
  std::string protocol = "lgg";
  double loss = 0.0;
  double arrival_scale = -1.0;
  std::string arrival_spec;
  bool matching = false;
  std::string faults_spec;
  std::string checkpoint_path;
  TimeStep checkpoint_every = 0;
  std::string resume_path;
  long long generations = 1;
  long long max_recoveries = 0;
  bool recover_mode = false;
  std::string failpoints_spec;
  std::string csv_path;
  std::string telemetry_path;
  TimeStep telemetry_every = 100;
  long long flight_capacity = -1;  // -1 = default (256 with --telemetry)
  long long hotspot_k = 0;
  std::string trace_path;
  long long trace_capacity = 1 << 14;
  std::string statusz_path;
  TimeStep statusz_every = 1000;
  long long deadline_ms = 0;
  std::string input_path;
  bool analyze_only = false;
  long long shards = 0;   // 0 = serial engine
  long long threads = 0;  // 0 = min(shards, hardware)
  bool governor = false;
  double governor_target_eps = 0.05;
  bool brownout = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        usage(argv[0]);
      }
      return argv[++i];
    };
    if (arg == "--steps") {
      steps = parse_int("--steps", next("--steps"));
      if (steps <= 0) {
        std::fprintf(stderr, "error: --steps wants a positive count\n");
        return lgg::kExitUsage;
      }
    } else if (arg == "--seed") {
      seed = parse_uint("--seed", next("--seed"));
    } else if (arg == "--protocol") {
      protocol = next("--protocol");
    } else if (arg == "--loss") {
      loss = parse_probability("--loss", next("--loss"));
    } else if (arg == "--arrival-scale") {
      arrival_scale = parse_double("--arrival-scale", next("--arrival-scale"));
      if (arrival_scale < 0.0) {
        std::fprintf(stderr, "error: --arrival-scale wants a factor >= 0\n");
        return lgg::kExitUsage;
      }
    } else if (arg == "--arrival") {
      arrival_spec = next("--arrival");
      if (arrival_spec.empty()) {
        std::fprintf(stderr, "error: --arrival wants a spec\n");
        return lgg::kExitUsage;
      }
    } else if (arg == "--matching") {
      matching = true;
    } else if (arg == "--faults") {
      faults_spec = next("--faults");
    } else if (arg == "--checkpoint") {
      checkpoint_path = next("--checkpoint");
    } else if (arg == "--checkpoint-every") {
      checkpoint_every =
          parse_int("--checkpoint-every", next("--checkpoint-every"));
      if (checkpoint_every <= 0) {
        std::fprintf(stderr,
                     "error: --checkpoint-every wants a positive interval\n");
        return lgg::kExitUsage;
      }
    } else if (arg == "--resume") {
      resume_path = next("--resume");
    } else if (arg == "--generations") {
      generations = parse_int("--generations", next("--generations"));
      if (generations < 1) {
        std::fprintf(stderr, "error: --generations wants a count >= 1\n");
        return lgg::kExitUsage;
      }
    } else if (arg == "--max-recoveries") {
      max_recoveries =
          parse_int("--max-recoveries", next("--max-recoveries"));
      if (max_recoveries < 0) {
        std::fprintf(stderr, "error: --max-recoveries wants a count >= 0\n");
        return lgg::kExitUsage;
      }
    } else if (arg == "--recover") {
      recover_mode = true;
    } else if (arg == "--failpoints") {
      failpoints_spec = next("--failpoints");
      if (failpoints_spec.empty()) {
        std::fprintf(stderr, "error: --failpoints wants a spec\n");
        return lgg::kExitUsage;
      }
    } else if (arg == "--csv") {
      csv_path = next("--csv");
    } else if (arg == "--telemetry") {
      telemetry_path = next("--telemetry");
    } else if (arg == "--telemetry-every") {
      telemetry_every =
          parse_int("--telemetry-every", next("--telemetry-every"));
      if (telemetry_every <= 0) {
        std::fprintf(stderr,
                     "error: --telemetry-every wants a positive interval\n");
        return lgg::kExitUsage;
      }
    } else if (arg == "--flight-recorder") {
      flight_capacity =
          parse_int("--flight-recorder", next("--flight-recorder"));
      if (flight_capacity < 0) {
        std::fprintf(stderr,
                     "error: --flight-recorder wants a capacity >= 0\n");
        return lgg::kExitUsage;
      }
    } else if (arg == "--hotspots") {
      hotspot_k = parse_int("--hotspots", next("--hotspots"));
      if (hotspot_k <= 0) {
        std::fprintf(stderr, "error: --hotspots wants a positive K\n");
        return lgg::kExitUsage;
      }
    } else if (arg == "--trace-out") {
      trace_path = next("--trace-out");
    } else if (arg == "--trace-capacity") {
      trace_capacity = parse_int("--trace-capacity", next("--trace-capacity"));
      if (trace_capacity <= 0) {
        std::fprintf(stderr,
                     "error: --trace-capacity wants a positive count\n");
        return lgg::kExitUsage;
      }
    } else if (arg == "--statusz") {
      statusz_path = next("--statusz");
    } else if (arg == "--statusz-every") {
      statusz_every = parse_int("--statusz-every", next("--statusz-every"));
      if (statusz_every < 0) {
        std::fprintf(stderr,
                     "error: --statusz-every wants an interval >= 0\n");
        return lgg::kExitUsage;
      }
    } else if (arg == "--deadline-ms") {
      deadline_ms = parse_int("--deadline-ms", next("--deadline-ms"));
      if (deadline_ms <= 0) {
        std::fprintf(stderr, "error: --deadline-ms wants a positive budget\n");
        return lgg::kExitUsage;
      }
    } else if (arg == "--governor") {
      governor = true;
    } else if (arg == "--governor-target-eps") {
      governor_target_eps = parse_double("--governor-target-eps",
                                         next("--governor-target-eps"));
      if (governor_target_eps < 0.0) {
        std::fprintf(stderr,
                     "error: --governor-target-eps wants a factor >= 0\n");
        return lgg::kExitUsage;
      }
    } else if (arg == "--brownout") {
      brownout = true;
    } else if (arg == "--shards") {
      shards = parse_int("--shards", next("--shards"));
      if (shards <= 0) {
        std::fprintf(stderr, "error: --shards wants a positive count\n");
        return lgg::kExitUsage;
      }
    } else if (arg == "--threads") {
      threads = parse_int("--threads", next("--threads"));
      if (threads <= 0) {
        std::fprintf(stderr, "error: --threads wants a positive count\n");
        return lgg::kExitUsage;
      }
    } else if (arg == "--analyze-only") {
      analyze_only = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      usage(argv[0]);
    } else {
      input_path = arg;
    }
  }
  if (checkpoint_every > 0 && checkpoint_path.empty()) {
    std::fprintf(stderr,
                 "error: --checkpoint-every needs --checkpoint FILE\n");
    return lgg::kExitUsage;
  }
  if (generations >= 2 && checkpoint_path.empty()) {
    std::fprintf(stderr, "error: --generations needs --checkpoint FILE\n");
    return lgg::kExitUsage;
  }
  if (max_recoveries > 0 && generations < 2) {
    std::fprintf(stderr,
                 "error: --max-recoveries needs --generations >= 2\n");
    return lgg::kExitUsage;
  }
  if (recover_mode && generations < 2) {
    std::fprintf(stderr, "error: --recover needs --generations >= 2\n");
    return lgg::kExitUsage;
  }
  if (recover_mode && !resume_path.empty()) {
    std::fprintf(stderr,
                 "error: --recover and --resume are mutually exclusive\n");
    return lgg::kExitUsage;
  }
  if (brownout && !governor) {
    std::fprintf(stderr, "error: --brownout needs --governor\n");
    return lgg::kExitUsage;
  }
  if (threads > 0 && shards == 0) {
    std::fprintf(stderr, "error: --threads needs --shards\n");
    return lgg::kExitUsage;
  }
  if (!arrival_spec.empty() && arrival_scale >= 0.0) {
    std::fprintf(stderr,
                 "error: --arrival and --arrival-scale are mutually "
                 "exclusive\n");
    return lgg::kExitUsage;
  }

  try {
    // Arm fault injection first so even network loading I/O is under test
    // control.  A malformed spec throws and maps to the usage exit below.
    if (!failpoints_spec.empty()) {
      common::FailpointRegistry::instance().arm(failpoints_spec);
    }
    core::SdNetwork net = [&] {
      if (input_path.empty()) {
        std::ostringstream buffer;
        buffer << std::cin.rdbuf();
        return core::network_from_string(buffer.str());
      }
      std::ifstream file(input_path);
      if (!file) {
        throw std::runtime_error("cannot open " + input_path);
      }
      return core::read_network(file);
    }();

    // Parse and strictly validate the fault schedule before running
    // anything: a structurally buggy schedule (duplicate churn events,
    // edge_add before edge_remove, overlapping crash windows, ...) is a
    // usage error, not something to discover 10^6 steps in.
    core::FaultSchedule fault_schedule;
    if (!faults_spec.empty()) {
      fault_schedule = core::parse_fault_spec(faults_spec);
      fault_schedule.validate_strict(net);
    }

    const auto report = core::analyze(net);
    std::printf("%s\n", core::describe(net, report).c_str());
    std::optional<core::UnsaturatedBounds> lemma1;
    if (report.unsaturated) {
      lemma1 = core::unsaturated_bounds(net, report);
      std::printf("lemma1 bound: %.6g (Y = %.6g)\n", lemma1->state,
                  lemma1->y);
    }
    std::printf("cut placement: at_source=%d unique=%d at_sink=%d internal=%d\n",
                report.location.at_source ? 1 : 0,
                report.location.unique_at_source ? 1 : 0,
                report.location.at_sink ? 1 : 0,
                report.location.internal ? 1 : 0);
    if (analyze_only) return 0;

    core::SimulatorOptions options;
    options.seed = seed;
    core::Simulator sim(std::move(net), options,
                        baselines::make_protocol(protocol));
    if (loss > 0) sim.set_loss(std::make_unique<core::BernoulliLoss>(loss));
    if (arrival_scale >= 0) {
      sim.set_arrival(std::make_unique<core::ScaledArrival>(arrival_scale));
    }
    if (!arrival_spec.empty()) {
      // Syntax and parameter errors throw ContractViolation, which the
      // enclosing catch maps to the usage exit code.
      sim.set_arrival(traffic::make_arrival(arrival_spec));
    }
    if (matching) {
      sim.set_scheduler(std::make_unique<core::GreedyMatchingScheduler>());
    }
    if (!fault_schedule.empty()) {
      // The injector's RNG stream derives from the master seed so faulted
      // runs are reproducible yet independent of the simulation stream.
      sim.set_faults(std::make_unique<core::FaultInjector>(
          fault_schedule, derive_seed(seed, 0xFA17)));
    }
    // Telemetry attaches before --resume so a checkpoint's telemetry
    // section restores into it and the JSONL stream continues seamlessly.
    std::ofstream telemetry_file;
    std::unique_ptr<obs::OstreamJsonlSink> sink;
    std::unique_ptr<obs::Telemetry> telemetry;
    if (!telemetry_path.empty() || flight_capacity > 0 || hotspot_k > 0) {
      obs::TelemetryOptions topts;
      topts.snapshot_every = telemetry_every;
      topts.flight_capacity =
          flight_capacity >= 0
              ? static_cast<std::size_t>(flight_capacity)
              : (!telemetry_path.empty() ? std::size_t{256} : std::size_t{0});
      topts.hotspot_k = static_cast<std::size_t>(hotspot_k);
      telemetry = std::make_unique<obs::Telemetry>(topts);
      if (lemma1.has_value()) {
        // Live bound-slack gauges: Property 1 growth (5nΔ²) and the
        // Lemma 1 state bound (nY² + 5nΔ²).
        telemetry->set_lemma1_bounds(lemma1->growth, lemma1->state);
      }
      // The file sink is opened below, after --recover has had a chance
      // to truncate the stream to the recovered byte offset.
      sim.set_telemetry(telemetry.get());
    }
    // The governor attaches before --resume: a v3 checkpoint written by a
    // governed run carries admission state and restores only into a sim
    // with a controller attached (and vice versa — the presence check is
    // strict both ways, see core/checkpoint.hpp).
    std::unique_ptr<control::AdmissionGovernor> admission;
    if (governor) {
      control::GovernorOptions gov;
      gov.target_eps = governor_target_eps;
      gov.brownout = brownout;
      admission =
          std::make_unique<control::AdmissionGovernor>(sim.network(), gov);
      sim.set_admission(admission.get());
    }
    // Sharding may attach before --resume: the shard plan derives from the
    // base graph only and the engine holds no trajectory state, so the
    // restored run is bitwise identical either way.
    if (shards > 0) {
      sim.enable_sharding(static_cast<std::uint32_t>(shards),
                          static_cast<std::size_t>(threads));
    }
    if (!resume_path.empty()) {
      core::restore_checkpoint_file(sim, resume_path);
      std::printf("resumed from %s at step %lld\n", resume_path.c_str(),
                  static_cast<long long>(sim.now()));
    }
    // Crash recovery: restore from the newest valid checkpoint generation
    // and truncate the telemetry stream to the byte offset recorded with
    // it, so the healed run appends exactly the bytes an uninterrupted run
    // would have written next.
    std::optional<core::CheckpointChain::Recovery> recovered;
    if (recover_mode) {
      core::CheckpointChain chain(checkpoint_path,
                                  static_cast<int>(generations));
      if (core::CheckpointChain::read_manifest(chain.manifest_path())
              .has_value()) {
        recovered = chain.recover(sim, [&](std::uint64_t offset) {
          if (!telemetry_path.empty()) {
            // Missing file (ENOENT) is ignorable: nothing to rewind.
            (void)::truncate(telemetry_path.c_str(),
                             static_cast<off_t>(offset));
          }
        });
        if (!recovered.has_value()) {
          std::fprintf(stderr,
                       "error: %s names no valid checkpoint generation\n",
                       chain.manifest_path().c_str());
          return lgg::kExitRecoveryExhausted;
        }
        std::printf(
            "recovered generation %llu at step %lld (rollback depth %d)\n",
            static_cast<unsigned long long>(recovered->generation),
            static_cast<long long>(recovered->step),
            recovered->rollback_depth);
      } else {
        std::printf("recover: no manifest at %s, starting fresh\n",
                    chain.manifest_path().c_str());
      }
    }
    // Open the telemetry sink: append past the recovered offset when a
    // generation was restored, truncate-and-start otherwise.
    if (telemetry != nullptr && !telemetry_path.empty()) {
      if (recovered.has_value()) {
        telemetry_file.open(telemetry_path, std::ios::in | std::ios::out |
                                                std::ios::binary);
        if (telemetry_file.is_open()) {
          telemetry_file.seekp(0, std::ios::end);
        } else {
          telemetry_file.clear();
        }
      }
      if (!telemetry_file.is_open()) {
        telemetry_file.open(telemetry_path, std::ios::trunc);
      }
      if (!telemetry_file) {
        throw std::runtime_error("cannot write " + telemetry_path);
      }
      sink = std::make_unique<obs::OstreamJsonlSink>(telemetry_file);
      telemetry->set_sink(sink.get());
    }
    // --trace-out attaches the profiler.  It reads clocks only, so its
    // position in the wiring order is cosmetic — but the trace should
    // cover the whole run, including a resumed one.
    core::StepProfiler profiler(static_cast<std::size_t>(trace_capacity));
    if (!trace_path.empty()) sim.set_profiler(&profiler);
    core::MetricsRecorder recorder;

    // --recover treats --steps as the total horizon: the healed run stops
    // at the very step the uninterrupted run would have.
    const TimeStep run_steps =
        recover_mode ? std::max<TimeStep>(0, steps - sim.now()) : steps;

    if (checkpoint_every > 0 || deadline_ms > 0 || !statusz_path.empty()) {
      analysis::SupervisorOptions sopts;
      sopts.checkpoint_every = checkpoint_every;
      sopts.checkpoint_path = checkpoint_path;
      sopts.deadline = std::chrono::milliseconds(deadline_ms);
      sopts.handle_signals = true;
      sopts.seed = seed;
      sopts.label = "lgg_sim";
      sopts.repro_config = faults_spec;
      sopts.statusz_path = statusz_path;
      sopts.statusz_every = statusz_every;
      sopts.generations = static_cast<int>(generations);
      sopts.max_recoveries = static_cast<int>(max_recoveries);
      if (sink != nullptr) {
        sopts.telemetry_offset = [&]() {
          sink->flush();
          return static_cast<std::uint64_t>(
              static_cast<std::streamoff>(telemetry_file.tellp()));
        };
        sopts.telemetry_rewind = [&](std::uint64_t offset) {
          sink->flush();
          (void)::truncate(telemetry_path.c_str(),
                           static_cast<off_t>(offset));
          telemetry_file.clear();
          telemetry_file.seekp(static_cast<std::streamoff>(offset));
        };
      }
      const analysis::RunSupervisor supervisor(sopts);
      const analysis::SupervisedResult result =
          supervisor.run(sim, run_steps, &recorder);
      if (result.recoveries > 0) {
        std::printf("supervisor: %d recoveries (max rollback depth %d)\n",
                    result.recoveries, result.rollback_depth);
      }
      if (!result.ok) {
        std::fprintf(stderr, "error: supervised run failed after %lld steps: %s\n",
                     static_cast<long long>(result.steps_done),
                     result.error.c_str());
        using Kind = analysis::SupervisedResult::FailureKind;
        switch (result.kind) {
          case Kind::kDeadline:
          case Kind::kStopped:
            return lgg::kExitTimeout;
          case Kind::kDivergence:
            return lgg::kExitDiverged;
          case Kind::kRecoveryExhausted:
            return lgg::kExitRecoveryExhausted;
          default:
            return lgg::kExitUsage;
        }
      }
    } else {
      sim.run(run_steps, &recorder);
    }

    const auto stability = core::assess_stability(recorder.network_state());
    std::printf("verdict: %s after %lld steps\n",
                std::string(core::to_string(stability.verdict)).c_str(),
                static_cast<long long>(steps));
    std::printf("sup P_t = %.6g  final P_t = %.6g  tail slope = %.4g\n",
                stability.max_state, stability.final_state,
                stability.tail_slope);
    const auto& totals = sim.cumulative();
    std::printf(
        "injected=%lld sent=%lld delivered=%lld lost=%lld extracted=%lld "
        "crash_wiped=%lld shed=%lld stored=%lld\n",
        static_cast<long long>(totals.injected),
        static_cast<long long>(totals.sent),
        static_cast<long long>(totals.delivered),
        static_cast<long long>(totals.lost),
        static_cast<long long>(totals.extracted),
        static_cast<long long>(totals.crash_wiped),
        static_cast<long long>(totals.shed),
        static_cast<long long>(sim.total_packets()));
    const bool conserved = sim.conserves_packets();
    std::printf("conservation: %s\n", conserved ? "ok" : "VIOLATED");
    if (admission != nullptr) {
      std::printf("governor: mode=%s multiplier=%.6g shed=%lld\n",
                  std::string(control::to_string(static_cast<control::SaturationMode>(
                                  admission->mode())))
                      .c_str(),
                  admission->multiplier(),
                  static_cast<long long>(admission->total_shed()));
    }
    if (fault_schedule.has_churn_events() || sim.topology_version() > 0) {
      std::printf("churn: topology_version=%llu",
                  static_cast<unsigned long long>(sim.topology_version()));
      if (admission != nullptr) {
        std::printf(" cert_patches=%llu cert_recomputes=%llu",
                    static_cast<unsigned long long>(
                        admission->sentinel().certificate_patches()),
                    static_cast<unsigned long long>(
                        admission->sentinel().certificate_recomputes()));
      }
      std::printf("\n");
    }

    if (telemetry != nullptr && sink != nullptr) {
      obs::JsonWriter json;
      json.begin_object();
      json.field("type", "summary");
      json.field("t", static_cast<std::int64_t>(sim.now()));
      json.field("P", sim.network_state());
      json.field("verdict", core::to_string(stability.verdict));
      json.field("snapshots", telemetry->sequence());
      json.end_object();
      sink->write_line(json.str());
      // Append the flight ring so the stream's tail shows the run's last
      // events (same lines a crash dump would contain).
      const std::size_t events = telemetry->dump_flight(telemetry_file);
      sink->flush();
      std::printf("telemetry written to %s (%llu snapshots, %llu events)\n",
                  telemetry_path.c_str(),
                  static_cast<unsigned long long>(telemetry->sequence()),
                  static_cast<unsigned long long>(events));
    }
    if (telemetry != nullptr && telemetry->hotspots() != nullptr) {
      std::printf("\n%s\n", telemetry->hotspots()->summary_table().c_str());
    }
    if (!trace_path.empty()) {
      std::ofstream trace(trace_path, std::ios::trunc);
      if (!trace) throw std::runtime_error("cannot write " + trace_path);
      const std::size_t spans = profiler.write_chrome_trace(trace);
      std::printf("trace written to %s (%llu spans, %llu dropped)\n",
                  trace_path.c_str(),
                  static_cast<unsigned long long>(spans),
                  static_cast<unsigned long long>(profiler.total_dropped()));
    }

    if (!csv_path.empty()) {
      std::ofstream csv(csv_path);
      if (!csv) throw std::runtime_error("cannot write " + csv_path);
      core::write_trajectory_csv(csv, recorder);
      std::printf("trajectory written to %s\n", csv_path.c_str());
    }
    // A conservation violation outranks the stability verdict: it means
    // the simulation itself is untrustworthy, not merely unstable.
    if (!conserved) return lgg::kExitViolation;
    return stability.verdict == core::Verdict::kDiverging ? lgg::kExitDiverged
                                                          : lgg::kExitOk;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return lgg::kExitUsage;
  }
}
