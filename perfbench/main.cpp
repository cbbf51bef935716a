// lgg_perfbench — one workload of the perf ledger, measured from outside
// liblgg.  Driven by run.py; see README.md for the metric definitions.
//
//   lgg_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --workdir DIR [--horizon H] [--trace-out FILE]
//
// --trace 0 runs untraced episodes (set-up + the fixed horizon) until S
// seconds are spent and reports the end-to-end metrics.  --trace 1
// alternates untraced and traced episodes, probes the layers the workload
// leaves idle, and reports the per-layer metrics.  Both modes check every
// episode's outputs and finish with an untimed cross-engine rerun.  The
// last stdout line is one JSON report; the exit code is 0 only when every
// check passed.
#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "flow/feasibility.hpp"
#include "flow/max_flow.hpp"
#include "graph/multigraph.hpp"
#include "graph/partition.hpp"
#include "mini_json.hpp"
#include "obs/json.hpp"
#include "span_trace.hpp"
#include "workloads.hpp"

namespace lgg::perfbench {
namespace {

namespace fs = std::filesystem;

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  TimeStep horizon = 0;  ///< 0 = the workload's own
  std::string workdir;
  std::string trace_out;
};

/// Every checked operation: steps, appends, restore round-trips, telemetry
/// lines, digests and conservation audits.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 16) failures.push_back(what);
    }
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of a sorted sample.
double percentile(const std::vector<std::int64_t>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return static_cast<double>(sorted[rank - 1]);
}

double percentile_of(std::vector<std::int64_t> v, double p) {
  std::sort(v.begin(), v.end());
  return percentile(v, p);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string read_file(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Runs `fn` `reps` times and returns the median wall time in ns.
double time_median_ns(int reps, const std::function<void()>& fn) {
  std::vector<std::int64_t> t;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    fn();
    t.push_back(now_ns() - t0);
  }
  return percentile_of(std::move(t), 50.0);
}

std::string fs_kind(const std::string& dir) {
  struct statfs st {};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  return st.f_type == 0x01021994 ? "tmpfs" : "disk";  // TMPFS_MAGIC
}

/// What an episode runs: the inputs (regenerated inside set-up) and how
/// the rig is attached.
struct EpisodeSpec {
  std::function<Inputs()> inputs;
  Attach attach;
  TimeStep steps = 0;
  bool verify = true;  ///< check generations and telemetry lines
};

struct Episode {
  double setup_s = 0.0;
  double loop_s = 0.0;
  std::string digest;
  std::string telemetry_digest;  ///< of the JSONL stream (durable only)
};

/// Restores the newest chain generation into a freshly assembled rig and
/// re-serializes it; the bytes must match the generation file.
void verify_generation(Rig& rig, const EpisodeSpec& spec, Checks& checks) {
  const core::GenerationEntry& entry = rig.chain()->manifest().entries.front();
  const std::string bytes = read_file(
      fs::path(rig.chain()->base_path()).parent_path() / entry.file);
  const std::string what = "generation " + std::to_string(entry.generation);
  checks.check(bytes.size() == entry.size &&
                   core::crc32(bytes.data(), bytes.size()) == entry.crc,
               what + " size and crc match the manifest");
  Attach fresh_attach;
  fresh_attach.durable = true;
  Rig fresh(spec.inputs(), fresh_attach);
  std::istringstream is(bytes);
  fresh.sim().restore_checkpoint(is);
  std::ostringstream os;
  fresh.sim().save_checkpoint(os);
  checks.check(os.str() == bytes, what + " restores and re-serializes");
}

/// Parsed by the repo's own validator parser, independent of the
/// obs::JsonWriter that wrote the line.
bool json_parses(const std::string& line) {
  try {
    (void)minijson::Parser(line).parse();
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

/// FNV-1a digest of the telemetry file.  With `verify`, every line must
/// parse and the header, snapshot and hotspots counts must match the
/// horizon.  The file is read a line at a time: a whole-file copy raises
/// the peak RSS the run reports, by an amount that depends on the
/// allocator's state.
std::string telemetry_digest(const fs::path& path, TimeStep steps,
                             bool verify, Checks& checks) {
  Fnv1a digest;
  std::uint64_t headers = 0, snapshots = 0, hotspots = 0, line_no = 0;
  std::ifstream is(path, std::ios::binary);
  std::string line;
  while (std::getline(is, line)) {
    digest.bytes(line.data(), line.size());
    if (!is.eof()) digest.bytes("\n", 1);
    if (!verify) continue;
    ++line_no;
    checks.check(json_parses(line),
                 "telemetry line " + std::to_string(line_no) + " parses");
    if (line.starts_with("{\"type\":\"header\"")) ++headers;
    if (line.starts_with("{\"type\":\"snapshot\"")) ++snapshots;
    if (line.starts_with("{\"type\":\"hotspots\"")) ++hotspots;
  }
  if (!verify) return digest.hex();
  const auto expected = static_cast<std::uint64_t>(steps / kSnapshotEvery);
  checks.check(headers == (expected > 0 ? 1u : 0u), "one telemetry header");
  checks.check(snapshots == expected, "snapshot lines " +
                                          std::to_string(snapshots) + " == " +
                                          std::to_string(expected));
  checks.check(hotspots == expected, "hotspots lines " +
                                         std::to_string(hotspots) + " == " +
                                         std::to_string(expected));
  return digest.hex();
}

/// One episode: set-up (input generation + rig assembly), then the fixed
/// horizon with one wall-time sample per step.  Verification work runs
/// between samples, outside the timed intervals.  `after` sees the rig at
/// the horizon.
Episode run_episode(const EpisodeSpec& spec, const std::string& dir,
                    std::vector<std::int64_t>* samples, Checks& checks,
                    const std::function<void(Rig&)>& after = {}) {
  Episode ep;
  Attach attach = spec.attach;
  if (attach.durable) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    attach.dir = dir;
  }
  const std::int64_t t0 = now_ns();
  Rig rig(spec.inputs(), attach);
  ep.setup_s = static_cast<double>(now_ns() - t0) / 1e9;

  LayerTotals* totals = attach.trace != nullptr ? attach.totals : nullptr;
  std::int64_t loop_ns = 0;
  for (TimeStep s = 0; s < spec.steps; ++s) {
    if (totals != nullptr) totals->step = s;
    const std::int64_t a = now_ns();
    const core::StepStats stats = rig.step();
    const std::int64_t b = now_ns();
    loop_ns += b - a;
    if (samples != nullptr) samples->push_back(b - a);
    if (totals != nullptr) {
      ++totals->steps;
      totals->proposed += static_cast<std::uint64_t>(stats.proposed);
      totals->conflicted += static_cast<std::uint64_t>(stats.conflicted);
      totals->sent += static_cast<std::uint64_t>(stats.sent);
      totals->injection_visits += rig.sim().last_injection_visits();
      if (stats.topology_changed && rig.governor() != nullptr) {
        totals->admission_churn_ns.push_back(totals->admission_step_ns);
      }
      totals->admission_step_ns = 0;
    }
    if (rig.appended()) {
      checks.check(true, "checkpoint append");  // append() throws on failure
      if (spec.verify) verify_generation(rig, spec, checks);
    }
  }
  ep.loop_s = static_cast<double>(loop_ns) / 1e9;
  checks.attempted += static_cast<std::uint64_t>(spec.steps);  // all returned
  checks.check(rig.sim().conserves_packets(), "conservation audit");
  ep.digest = state_digest(rig.sim());
  if (rig.sink() != nullptr) {
    rig.flush();
    ep.telemetry_digest = telemetry_digest(rig.telemetry_path(), spec.steps,
                                           spec.verify, checks);
  }
  if (after) after(rig);
  if (attach.durable) fs::remove_all(dir);
  return ep;
}

class Harness {
 public:
  explicit Harness(const Options& opt)
      : opt_(opt),
        w_(*opt.workload),
        horizon_(opt.horizon > 0 ? opt.horizon : w_.horizon),
        cpus_(usable_cpus()),
        trace_(60000) {
    spec_.inputs = [this] {
      return generate_inputs(w_, opt_.seed, variant_);
    };
    spec_.attach.shards = w_.shards;
    spec_.attach.threads = std::min<std::size_t>(w_.shards, cpus_);
    spec_.attach.durable = w_.durable;
    spec_.steps = horizon_;
  }
  // spec_.inputs and the episode callbacks hold `this`.
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  int run() {
    try {
      fs::create_directories(opt_.workdir);
      info("workdir_fs", fs_kind(opt_.workdir));
      measure();
      cross_check();
      if (opt_.trace) {
        per_layer_metrics();
      } else {
        end_to_end_metrics();
      }
    } catch (const std::exception& e) {
      // A throwing step, append or restore ends the run as a failed
      // operation; the report still goes out.
      checks_.check(false, e.what());
    }
    print_report();
    return checks_.failed == 0 ? 0 : 1;
  }

 private:
  std::string next_dir() {
    return opt_.workdir + "/ep" + std::to_string(episode_no_++);
  }
  void info(std::string key, std::string value) {
    info_.emplace_back(std::move(key), std::move(value));
  }
  void metric(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  static std::string engine(std::uint32_t shards, std::size_t threads) {
    if (shards == 0) return "serial";
    return "shards=" + std::to_string(shards) +
           ",threads=" + std::to_string(threads);
  }

  /// Warm-up, then whole cycles over the input variants until the budget
  /// is spent: untraced episodes only, or untraced and traced pairs
  /// alternating which goes first.
  void measure() {
    {
      EpisodeSpec warm = spec_;  // fills caches and the allocator
      warm.steps = std::max<TimeStep>(1, horizon_ / 5);
      warm.verify = false;
      Checks ignored;
      (void)run_episode(warm, next_dir(), nullptr, ignored);
    }
    const auto budget_ns = static_cast<std::int64_t>(opt_.seconds * 1e9);
    const std::int64_t start = now_ns();
    std::int64_t cycle_ns = 0;
    int cycles = 0;
    // At least one cycle; stop before the next one would overrun.
    do {
      const std::int64_t c0 = now_ns();
      for (variant_ = 0; variant_ < kInputVariants; ++variant_) {
        if (!opt_.trace) {
          untraced_episode();
        } else if ((cycles + variant_) % 2 == 0) {
          untraced_episode();
          traced_episode();
        } else {
          traced_episode();
          untraced_episode();
        }
        ++episodes_;
      }
      if (!opt_.trace) setup_only_episodes();
      ++cycles;
      cycle_ns = now_ns() - c0;
    } while (now_ns() - start + cycle_ns <= budget_ns);
    variant_ = 0;
    peak_rss_mb_ = peak_rss_mb();
    if (opt_.trace) {
      checks_.check(traced_telemetry_digests_ == telemetry_digests_,
                    "traced telemetry streams equal the untraced ones");
    }
    info("digest", digests_[0]);
    info("horizon", std::to_string(horizon_));
    info("episodes", std::to_string(episodes_) + " (" +
                         std::to_string(kInputVariants) + " input sets)");
    if (!opt_.trace) {
      info("setups", std::to_string(setup_s_.size()) + " set-ups of " +
                         std::to_string(kSetupVariants) + " input sets");
    }
    info("engine", engine(w_.shards, spec_.attach.threads));
  }

  /// Every episode of one input set must reach the same final state.
  void record_digest(const std::string& digest) {
    std::string& first = digests_[static_cast<std::size_t>(variant_)];
    if (first.empty()) first = digest;
    checks_.check(digest == first, "input set " + std::to_string(variant_) +
                                       " digest " + digest + " == " + first);
  }

  void untraced_episode() {
    std::function<void(Rig&)> after;
    if (opt_.trace) after = [this](Rig& rig) { time_save_restore(rig); };
    std::vector<std::int64_t> samples;
    const Episode ep = run_episode(spec_, next_dir(),
                                   opt_.trace ? nullptr : &samples, checks_,
                                   after);
    std::sort(samples.begin(), samples.end());
    episode_p50_.push_back(percentile(samples, 50.0));
    episode_p99_.push_back(percentile(samples, 99.0));
    setup_s_.push_back(ep.setup_s);
    untraced_sps_.push_back(static_cast<double>(horizon_) / ep.loop_s);
    if (variant_ == 0) set0_sps_.push_back(untraced_sps_.back());
    untraced_loop_s_ += ep.loop_s;
    record_digest(ep.digest);
    telemetry_digests_[static_cast<std::size_t>(variant_)] =
        ep.telemetry_digest;
  }

  /// Set-up, zero steps, on the input sets no episode steps through.
  void setup_only_episodes() {
    EpisodeSpec spec = spec_;
    spec.steps = 0;
    spec.verify = false;
    for (variant_ = kInputVariants; variant_ < kSetupVariants; ++variant_) {
      setup_s_.push_back(
          run_episode(spec, next_dir(), nullptr, checks_).setup_s);
    }
  }

  void traced_episode() {
    EpisodeSpec spec = spec_;
    spec.attach.trace = &trace_;
    spec.attach.totals = &main_;
    spec.attach.profiler = &main_profiler_;
    std::function<void(Rig&)> after;
    if (w_.durable) after = [this](Rig& rig) { read_certificates(rig); };
    const Episode ep = run_episode(spec, next_dir(), nullptr, checks_, after);
    traced_sps_.push_back(static_cast<double>(horizon_) / ep.loop_s);
    record_digest(ep.digest);
    traced_telemetry_digests_[static_cast<std::size_t>(variant_)] =
        ep.telemetry_digest;
  }

  /// Untimed-for-e2e rerun of input set 0 on the other engine: it must
  /// reach the same state and, durable, write the same telemetry bytes.
  /// It runs without a profiler, like the untraced episodes its steps/s
  /// is compared with.  A traced run of a serial workload adds a profiled
  /// rerun for analysis.parallel_efficiency; the grid's traced episodes
  /// are already sharded and profiled.
  void cross_check() {
    EpisodeSpec cross = spec_;
    cross.attach.shards = w_.cross_shards;
    cross.attach.threads = std::min<std::size_t>(w_.cross_shards, cpus_);
    cross_sps_ = cross_episode(cross);
    if (opt_.trace && w_.shards == 0) {
      cross.attach.profiler = &cross_profiler_;
      (void)cross_episode(cross);
    }
    info("cross_engine", engine(w_.cross_shards, cross.attach.threads));
  }

  double cross_episode(const EpisodeSpec& cross) {
    const Episode ep = run_episode(cross, next_dir(), nullptr, checks_);
    checks_.check(ep.digest == digests_[0], "cross-engine digest " +
                                                ep.digest + " == " +
                                                digests_[0]);
    checks_.check(ep.telemetry_digest == telemetry_digests_[0],
                  "cross-engine telemetry bytes agree");
    return static_cast<double>(horizon_) / ep.loop_s;
  }

  /// Step percentiles are taken per episode (one run of the horizon) and
  /// reported as the median over episodes, so one disturbed episode cannot
  /// move them.
  void end_to_end_metrics() {
    const auto beyond_p99 = static_cast<std::size_t>(horizon_) -
                            static_cast<std::size_t>(std::ceil(
                                0.99 * static_cast<double>(horizon_)));
    info("step_samples", std::to_string(horizon_) + " x " +
                             std::to_string(episodes_) + " episodes");
    info("samples_beyond_p99", std::to_string(beyond_p99) + " per episode");
    checks_.check(beyond_p99 >= 10 || opt_.horizon > 0,
                  "at least 10 step samples beyond p99");
    metric("setup_s", median(setup_s_), "s");
    metric("steps_per_s",
           static_cast<double>(horizon_) * episodes_ / untraced_loop_s_,
           "steps/s");
    metric("step_p50_us", median(episode_p50_) / 1e3, "us");
    metric("step_p99_us", median(episode_p99_) / 1e3, "us");
    metric("peak_rss_mb", peak_rss_mb_, "MB");
  }

  void per_layer_metrics() {
    core_metrics();
    durable_layer_metrics();
    flow_graph_metrics();
    analysis_metrics();
    metric("trace_overhead_pct",
           (median(untraced_sps_) / median(traced_sps_) - 1.0) * 100.0, "%");
    self_time_and_trace_file();
  }

  void core_metrics() {
    const auto steps = static_cast<double>(main_.steps);
    for (std::size_t p = 0; p < core::kStepPhaseCount; ++p) {
      const auto phase = static_cast<core::StepPhase>(p);
      std::string name(core::to_string(phase));
      std::replace(name.begin(), name.end(), '-', '_');
      const auto nanos = static_cast<double>(main_profiler_.phase(phase).nanos);
      metric("core." + name + "_ns", ratio(nanos, steps), "ns");
    }
    metric("core.epilogue_ns",
           ratio(static_cast<double>(main_.step_call_ns) -
                     static_cast<double>(main_profiler_.total_nanos()),
                 steps),
           "ns");
    metric("core.traced_steps", steps, "count");
    metric("core.proposed_per_step",
           ratio(static_cast<double>(main_.proposed), steps), "count");
    metric("core.conflicted_per_step",
           ratio(static_cast<double>(main_.conflicted), steps), "count");
    metric("core.sent_per_proposed",
           ratio(static_cast<double>(main_.sent),
                 static_cast<double>(main_.proposed)),
           "ratio");
    metric("core.sent_per_proposed_base", static_cast<double>(main_.proposed),
           "count");
    metric("traffic.arrival_ns",
           ratio(static_cast<double>(main_.arrival_ns.load()), steps), "ns");
    metric("traffic.injection_visits_per_step",
           ratio(static_cast<double>(main_.injection_visits), steps), "count");
    metric("core.ckpt_save_mb_per_s",
           ratio(static_cast<double>(ckpt_blob_bytes_) / 1e6, save_ns_ / 1e9),
           "MB/s");
    metric("core.ckpt_restore_us", percentile_of(restore_ns_, 50.0) / 1e3,
           "us");
  }

  /// Checkpoint, telemetry and control figures: from the traced episodes
  /// when the workload runs those layers, else from a probe attaching the
  /// durable configuration to this workload's own network.
  void durable_layer_metrics() {
    LayerTotals probe_totals;
    const LayerTotals* seg = &main_;
    if (!w_.durable) {
      const TimeStep steps = w_.shards > 0 ? 100 : 2000;
      EpisodeSpec probe;
      probe.inputs = [this, steps] {
        Inputs in = generate_inputs(w_, opt_.seed, 0);
        in.churn = make_churn(in.net, opt_.seed, steps, steps / 4);
        return in;
      };
      probe.attach = spec_.attach;
      probe.attach.durable = true;
      probe.attach.append_every = steps / 10;
      probe.attach.trace = &trace_;
      probe.attach.totals = &probe_totals;
      probe.steps = steps;
      (void)run_episode(probe, next_dir(), nullptr, checks_,
                        [this](Rig& rig) { read_certificates(rig); });
      seg = &probe_totals;
      info("durable_layers_from", "probe of " + std::to_string(steps) +
                                      " steps");
    }
    const auto steps = static_cast<double>(seg->steps);
    metric("core.ckpt_append_us_p50", percentile_of(seg->append_ns, 50.0) / 1e3,
           "us");
    metric("core.ckpt_append_us_p99", percentile_of(seg->append_ns, 99.0) / 1e3,
           "us");
    metric("core.ckpt_bytes", static_cast<double>(seg->append_bytes), "bytes");
    metric("obs.telemetry_bytes_per_step",
           ratio(static_cast<double>(seg->sink_bytes), steps), "bytes");
    metric("obs.sink_write_ns_per_line",
           ratio(static_cast<double>(seg->sink_ns),
                 static_cast<double>(seg->sink_lines)),
           "ns");
    metric("control.admission_ns",
           ratio(static_cast<double>(seg->admission_ns), steps), "ns");
    metric("control.admission_us_churn_p50",
           percentile_of(seg->admission_churn_ns, 50.0) / 1e3, "us");
    metric("control.cert_patches", static_cast<double>(cert_patches_), "count");
    metric("control.cert_recomputes", static_cast<double>(cert_recomputes_),
           "count");
  }

  /// The solvers and structures set-up depends on, on this workload's
  /// network: feasibility, every max-flow solver on G*, CSR, partition.
  void flow_graph_metrics() {
    const Inputs in = spec_.inputs();
    const graph::Multigraph& g = in.net.topology();
    const auto src = in.net.source_rates();
    const auto dst = in.net.sink_rates();
    metric("flow.feasibility_ms", time_median_ns(5, [&] {
             (void)flow::analyze_feasibility(g, src, dst);
           }) / 1e6,
           "ms");
    flow::ExtendedGraphOptions gopts;
    gopts.unbounded_sources = true;
    const flow::ExtendedGraph gstar =
        flow::build_extended_graph(g, src, dst, gopts);
    Cap fstar = -1;
    for (const auto algo :
         {flow::FlowAlgorithm::kDinic, flow::FlowAlgorithm::kPushRelabelFifo,
          flow::FlowAlgorithm::kPushRelabelHighest,
          flow::FlowAlgorithm::kEdmondsKarp}) {
      const std::string name(flow::algorithm_name(algo));
      std::vector<std::int64_t> t;
      for (int i = 0; i < 5; ++i) {
        flow::FlowNetwork net = gstar.net;  // solvers need zero flow
        const std::int64_t t0 = now_ns();
        const Cap f =
            flow::solve_max_flow(net, gstar.s_star, gstar.d_star, algo);
        t.push_back(now_ns() - t0);
        if (fstar < 0) fstar = f;
        checks_.check(f == fstar, name + " agrees on f*");
      }
      metric("flow.maxflow_ms." + name, percentile_of(std::move(t), 50.0) / 1e6,
             "ms");
    }
    metric("graph.csr_build_ms",
           time_median_ns(5, [&] { const graph::CsrIncidence csr(g); }) / 1e6,
           "ms");
    std::vector<std::uint32_t> owner;
    metric("graph.partition_ms", time_median_ns(5, [&] {
             owner = graph::partition_edge_cut(g, 4);
           }) / 1e6,
           "ms");
    metric("graph.cut_edges", static_cast<double>(graph::cut_edges(g, owner)),
           "count");
  }

  /// How the shard engine spends its fan-out, and what it buys over the
  /// serial engine on these inputs (whichever of the run and its
  /// cross-engine rerun is sharded).
  void analysis_metrics() {
    const bool sharded_main = w_.shards > 0;
    const core::StepProfiler& sharded =
        sharded_main ? main_profiler_ : cross_profiler_;
    const double shards = sharded_main ? w_.shards : w_.cross_shards;
    double cpu = 0.0, wall = 0.0;
    for (const auto phase :
         {core::StepPhase::kInjection, core::StepPhase::kSelection,
          core::StepPhase::kLossApply, core::StepPhase::kExtraction}) {
      cpu += static_cast<double>(sharded.phase(phase).cpu_nanos);
      wall += static_cast<double>(sharded.phase(phase).nanos);
    }
    metric("analysis.parallel_efficiency", ratio(cpu, wall * shards), "ratio");
    // Both sides unprofiled, on input set 0 only.
    const double own = median(set0_sps_);
    metric("analysis.shard_speedup_vs_serial",
           sharded_main ? ratio(own, cross_sps_) : ratio(cross_sps_, own),
           "ratio");
  }

  void self_time_and_trace_file() {
    // Per step whose spans were recorded (the ring keeps the first ones).
    const auto recorded = static_cast<double>(std::count_if(
        trace_.spans().begin(), trace_.spans().end(),
        [](const SpanTrace::Span& s) { return s.name == "core.step"; }));
    for (const auto& [layer, ns] : trace_.self_ns_by_layer()) {
      self_ns_[layer] = ratio(static_cast<double>(ns), recorded);
    }
    info("spans", std::to_string(trace_.spans().size()));
    info("spans_dropped", std::to_string(trace_.dropped()));
    if (!opt_.trace_out.empty()) {
      std::ofstream os(opt_.trace_out, std::ios::trunc);
      trace_.write_chrome_trace(os);
      checks_.check(os.good(), "trace file written");
      info("trace_file", opt_.trace_out);
    }
  }

  /// Save into memory and restore into a fresh simulator, on the state the
  /// workload reaches at its horizon (the last untraced episode's).
  void time_save_restore(Rig& rig) {
    std::string blob;
    save_ns_ = time_median_ns(5, [&] {
      std::ostringstream os;
      rig.sim().save_checkpoint(os);
      blob = os.str();
    });
    ckpt_blob_bytes_ = blob.size();
    restore_ns_.clear();
    for (int i = 0; i < 3; ++i) {
      Attach fresh_attach;
      fresh_attach.durable = w_.durable;
      Rig fresh(spec_.inputs(), fresh_attach);
      std::istringstream is(blob);
      const std::int64_t t0 = now_ns();
      fresh.sim().restore_checkpoint(is);
      restore_ns_.push_back(now_ns() - t0);
      checks_.check(state_digest(fresh.sim()) == state_digest(rig.sim()),
                    "restored state digest matches");
    }
  }

  void read_certificates(Rig& rig) {
    cert_patches_ = rig.governor()->sentinel().certificate_patches();
    cert_recomputes_ = rig.governor()->sentinel().certificate_recomputes();
  }

  void print_report() const {
    obs::JsonWriter json;
    json.begin_object();
    json.field("workload", w_.name);
    json.field("seed", opt_.seed);
    json.field("trace", opt_.trace);
    for (const auto& [k, v] : info_) json.field(k, v);
    json.field("attempted", checks_.attempted);
    json.field("failed", checks_.failed);
    json.begin_array("failures");
    for (const std::string& f : checks_.failures) json.value(f);
    json.end_array();
    json.begin_object("self_ns_per_step");
    for (const auto& [layer, ns] : self_ns_) json.field(layer, ns);
    json.end_object();
    json.begin_object("metrics");
    for (const Metric& m : metrics_) {
      json.begin_object(m.name);
      json.field("value", m.value);
      json.field("unit", m.unit);
      json.end_object();
    }
    json.end_object();
    json.end_object();
    std::cout << json.str() << std::endl;
  }

  const Options& opt_;
  const Workload& w_;
  const TimeStep horizon_;
  const std::size_t cpus_;
  EpisodeSpec spec_;
  int episode_no_ = 0;
  int episodes_ = 0;

  Checks checks_;
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::map<std::string, double> self_ns_;

  int variant_ = 0;  ///< input set of the episode in progress

  // Untraced episodes.
  std::array<std::string, kInputVariants> digests_;    ///< first per set
  std::array<std::string, kInputVariants> telemetry_digests_;
  std::vector<double> setup_s_;
  std::vector<double> untraced_sps_;
  double untraced_loop_s_ = 0.0;
  std::vector<double> episode_p50_;
  std::vector<double> episode_p99_;
  double peak_rss_mb_ = 0.0;
  std::vector<double> set0_sps_;  ///< untraced steps/s of input set 0
  double cross_sps_ = 0.0;
  core::StepProfiler cross_profiler_;

  // Traced episodes and probes.
  SpanTrace trace_;
  LayerTotals main_;
  core::StepProfiler main_profiler_;
  std::vector<double> traced_sps_;
  std::array<std::string, kInputVariants> traced_telemetry_digests_;
  std::uint64_t cert_patches_ = 0;
  std::uint64_t cert_recomputes_ = 0;
  double save_ns_ = 0.0;
  std::size_t ckpt_blob_bytes_ = 0;
  std::vector<std::int64_t> restore_ns_;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "lgg_perfbench: " << why
            << "\nusage: lgg_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --workdir DIR [--horizon H] [--trace-out FILE]\n";
  std::exit(2);
}

}  // namespace
}  // namespace lgg::perfbench

int main(int argc, char** argv) {
  using namespace lgg::perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = find_workload(val);
        if (opt.workload == nullptr) usage("unknown workload " + val);
      } else if (arg == "--seed") {
        opt.seed = std::stoull(val);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (arg == "--trace") {
        if (val != "0" && val != "1") usage("--trace wants 0 or 1");
        opt.trace = val == "1";
      } else if (arg == "--horizon") {
        opt.horizon = std::stoll(val);
      } else if (arg == "--workdir") {
        opt.workdir = val;
      } else if (arg == "--trace-out") {
        opt.trace_out = val;
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (opt.workload == nullptr || opt.workdir.empty()) {
    usage("--workload and --workdir are required");
  }
  try {
    return Harness(opt).run();
  } catch (const std::exception& e) {
    std::cerr << "lgg_perfbench: " << e.what() << "\n";
    return 1;
  }
}
