// The three reference workloads of the perf ledger and the rig that wires
// one of them onto a liblgg Simulator through the public API only.
//
// Every input — network, initial queues, arrival spec, churn schedule — is
// generated from the benchmark seed; liblgg receives only the generated
// inputs.  The traced variants of the rig install forwarding wrappers
// (arrival, admission, telemetry sink) that time each call and record a
// span; they forward every virtual, so a traced run's trajectory is the
// untraced one's, which the harness proves by comparing final-state
// digests.
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "control/governor.hpp"
#include "core/ckpt_chain.hpp"
#include "core/faults.hpp"
#include "core/sd_network.hpp"
#include "core/simulator.hpp"
#include "obs/telemetry.hpp"
#include "span_trace.hpp"

namespace lgg::perfbench {

struct Workload {
  std::string_view name;
  TimeStep horizon = 0;          ///< steps per episode (the fixed horizon)
  std::uint32_t shards = 0;      ///< 0 = serial engine
  std::uint32_t cross_shards = 0;  ///< engine of the cross-check rerun
  bool durable = false;  ///< governor + armed telemetry + chain + churn
};

[[nodiscard]] const Workload* find_workload(std::string_view name);

/// Checkpoint cadence and telemetry settings of the durable configuration.
inline constexpr TimeStep kAppendEvery = 500;
inline constexpr int kRetainGenerations = 3;
inline constexpr TimeStep kSnapshotEvery = 100;
inline constexpr std::size_t kFlightCapacity = 256;
inline constexpr std::size_t kHotspotK = 8;

struct Inputs {
  core::SdNetwork net;
  PacketCount initial_per_node = 0;
  std::string arrival_spec;  ///< empty = exact arrivals
  double loss = 0.0;
  core::FaultSchedule churn;
  std::uint64_t sim_seed = 0;
};

/// Input sets a run cycles through.  The network's structure sets both the
/// step cost and the feasibility analysis cost (set-up varies about 2x
/// between seeds), so a run averages over several networks drawn from its
/// seed instead of resting on one.
inline constexpr int kInputVariants = 4;

/// Input sets an untraced run sets up once per cycle: the stepped ones
/// plus set-up-only ones.  The same seed's set-up time differs by ~15%
/// from one network to the next, so setup_s takes its median over more
/// networks than the stepped episodes can afford.
inline constexpr int kSetupVariants = 16;

/// Pure function of (workload, seed, variant).
[[nodiscard]] Inputs generate_inputs(const Workload& w, std::uint64_t seed,
                                     int variant);

/// Seed-drawn edge_remove/edge_add pairs over `horizon` steps: one edge at
/// a time is out for half of every `period` steps.
[[nodiscard]] core::FaultSchedule make_churn(const core::SdNetwork& net,
                                             std::uint64_t seed,
                                             TimeStep horizon,
                                             TimeStep period);

/// Per-layer accumulators the traced wrappers write into.
struct LayerTotals {
  std::atomic<std::int64_t> step{0};  ///< step the main loop is in
  std::uint64_t steps = 0;
  std::int64_t step_call_ns = 0;  ///< Σ Simulator::step() wall
  std::uint64_t proposed = 0;
  std::uint64_t conflicted = 0;
  std::uint64_t sent = 0;
  std::uint64_t injection_visits = 0;
  std::atomic<std::int64_t> arrival_ns{0};
  std::int64_t admission_ns = 0;
  std::int64_t admission_step_ns = 0;  ///< this step's share; loop resets
  std::vector<std::int64_t> admission_churn_ns;  ///< per topology change
  std::int64_t sink_ns = 0;
  std::uint64_t sink_lines = 0;
  std::uint64_t sink_bytes = 0;
  std::vector<std::int64_t> append_ns;
  std::uint64_t append_bytes = 0;
};

/// The benchmark's own JSONL file sink: counts bytes for the checkpoint
/// chain's telemetry offsets and, when traced, times write_line.  It
/// buffers 1 MiB, more than the stream between two chain appends (which
/// flush it), so the write(2) calls land on append steps: a snapshot step
/// costs its JSON, not the state of the host's disk.
class FileSink final : public obs::TelemetrySink {
 public:
  FileSink(const std::string& path, SpanTrace* trace, LayerTotals* totals);
  void write_line(std::string_view line) override;
  void flush() override;
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

 private:
  std::vector<char> buffer_;  // outlives os_, which flushes into it
  std::ofstream os_;
  SpanTrace* trace_;
  LayerTotals* totals_;
  std::uint64_t bytes_ = 0;
};

struct Attach {
  std::uint32_t shards = 0;  ///< 0 = serial engine
  std::size_t threads = 0;
  bool durable = false;
  TimeStep append_every = kAppendEvery;
  /// Directory for the telemetry stream and checkpoint chain; empty keeps
  /// the durable configuration but writes no files (restore targets).
  std::string dir;
  SpanTrace* trace = nullptr;     ///< non-null installs the wrappers
  LayerTotals* totals = nullptr;  ///< required when trace is set
  core::StepProfiler* profiler = nullptr;
};

/// One assembled simulator plus the components it points at.  Building a
/// Rig is the workload's set-up: feasibility analysis, Simulator
/// construction, sharding, governor, telemetry and chain.
class Rig {
 public:
  Rig(Inputs inputs, const Attach& attach);
  ~Rig();
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// One Simulator::step() plus the durability work attached to it (a
  /// chain append every kAppendEvery steps).  Sets appended().
  core::StepStats step();
  [[nodiscard]] bool appended() const { return appended_; }

  [[nodiscard]] core::Simulator& sim() { return *sim_; }
  [[nodiscard]] core::CheckpointChain* chain() { return chain_.get(); }
  [[nodiscard]] control::AdmissionGovernor* governor() {
    return governor_.get();
  }
  [[nodiscard]] const FileSink* sink() const { return sink_.get(); }
  [[nodiscard]] std::string telemetry_path() const;
  /// Flushes the telemetry stream (call before reading the file).
  void flush();

 private:
  Attach attach_;
  std::unique_ptr<obs::Telemetry> telemetry_;
  std::unique_ptr<FileSink> sink_;
  std::unique_ptr<control::AdmissionGovernor> governor_;
  std::unique_ptr<core::AdmissionController> admission_wrapper_;
  std::unique_ptr<core::CheckpointChain> chain_;
  // Declared last so it is destroyed first: it points at the above.
  std::unique_ptr<core::Simulator> sim_;
  bool appended_ = false;
};

/// FNV-1a digest of the final state: step, queue vector, exact Σq² (P_t)
/// and the cumulative stats.  16 lowercase hex digits.
[[nodiscard]] std::string state_digest(const core::Simulator& sim);

/// Incremental FNV-1a; hex() gives the digests' format.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* data, std::size_t n);
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  [[nodiscard]] std::string hex() const;
};

}  // namespace lgg::perfbench
