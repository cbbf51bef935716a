#include "workloads.hpp"

#include <array>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "core/arrival.hpp"
#include "core/bounds.hpp"
#include "core/loss.hpp"
#include "core/scenarios.hpp"
#include "flow/feasibility.hpp"
#include "traffic/spec.hpp"

namespace lgg::perfbench {

namespace {

constexpr std::array<Workload, 3> kWorkloads{{
    // The ROADMAP reference run: selection-bound, every optional layer idle.
    {"sparse_1k", 10000, 0, 2, false},
    // The only shard-engine workload: 65k relays, heavy loss-apply.
    {"relay_grid_65k", 1000, 4, 0, false},
    // Everything on: adversary, loss, churn, governor, telemetry, chain.
    {"durable_observed_1k", 10000, 0, 2, true},
}};

/// Wraps an arrival process: forwards every virtual, timing begin_step and
/// packets (which the shard engine may call from its workers).
class TracedArrival final : public core::ArrivalProcess {
 public:
  TracedArrival(std::unique_ptr<core::ArrivalProcess> inner, SpanTrace* trace,
                LayerTotals* totals)
      : inner_(std::move(inner)), trace_(trace), totals_(totals) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  PacketCount packets(NodeId v, Cap in_rate, TimeStep t, Rng& rng) override {
    const std::int64_t t0 = now_ns();
    PacketCount n = 0;
    {
      const ScopedSpan span(trace_, "traffic.packets", t);
      n = inner_->packets(v, in_rate, t, rng);
    }
    totals_->arrival_ns += now_ns() - t0;
    return n;
  }
  void begin_step(const core::ArrivalContext& ctx) override {
    const std::int64_t t0 = now_ns();
    {
      const ScopedSpan span(trace_, "traffic.begin_step", ctx.t);
      inner_->begin_step(ctx);
    }
    totals_->arrival_ns += now_ns() - t0;
  }
  [[nodiscard]] const std::vector<NodeId>* active_sources() const override {
    return inner_->active_sources();
  }
  [[nodiscard]] bool parallel_safe() const override {
    return inner_->parallel_safe();
  }
  void register_metrics(obs::MetricRegistry& registry) override {
    inner_->register_metrics(registry);
  }
  void save_state(std::ostream& os) const override { inner_->save_state(os); }
  void load_state(std::istream& is) override { inner_->load_state(is); }

 private:
  std::unique_ptr<core::ArrivalProcess> inner_;
  SpanTrace* trace_;
  LayerTotals* totals_;
};

/// Wraps the governor: forwards every virtual, timing begin_step and admit.
class TracedAdmission final : public core::AdmissionController {
 public:
  TracedAdmission(core::AdmissionController& inner, SpanTrace* trace,
                  LayerTotals* totals)
      : inner_(inner), trace_(trace), totals_(totals) {}

  void begin_step(const StepContext& ctx) override {
    step_ = ctx.t;
    const std::int64_t t0 = now_ns();
    {
      const ScopedSpan span(trace_, "control.begin_step", ctx.t);
      inner_.begin_step(ctx);
    }
    charge(now_ns() - t0);
  }
  PacketCount admit(NodeId v, Cap in_rate, PacketCount offered) override {
    const std::int64_t t0 = now_ns();
    PacketCount n = 0;
    {
      const ScopedSpan span(trace_, "control.admit", step_);
      n = inner_.admit(v, in_rate, offered);
    }
    charge(now_ns() - t0);
    return n;
  }
  [[nodiscard]] int mode() const override { return inner_.mode(); }
  [[nodiscard]] PacketCount total_shed() const override {
    return inner_.total_shed();
  }
  [[nodiscard]] double overload_bound() const override {
    return inner_.overload_bound();
  }
  void register_metrics(obs::MetricRegistry& registry) override {
    inner_.register_metrics(registry);
  }
  void save_state(std::ostream& os) const override { inner_.save_state(os); }
  void load_state(std::istream& is) override { inner_.load_state(is); }

 private:
  void charge(std::int64_t ns) {
    totals_->admission_ns += ns;
    totals_->admission_step_ns += ns;
  }

  core::AdmissionController& inner_;
  SpanTrace* trace_;
  LayerTotals* totals_;
  TimeStep step_ = 0;
};

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

core::FaultSchedule make_churn(const core::SdNetwork& net, std::uint64_t seed,
                               TimeStep horizon, TimeStep period) {
  std::uint64_t state = derive_seed(seed, 0xC4u);
  const auto edges = static_cast<std::uint64_t>(net.topology().edge_count());
  core::FaultSchedule schedule;
  std::vector<char> used(edges, 0);
  for (TimeStep at = period / 5; at + period / 2 < horizon; at += period) {
    auto e = static_cast<EdgeId>(splitmix64(state) % edges);
    while (used[static_cast<std::size_t>(e)] != 0) {
      e = static_cast<EdgeId>((static_cast<std::uint64_t>(e) + 1) % edges);
    }
    used[static_cast<std::size_t>(e)] = 1;
    core::FaultEvent remove;
    remove.kind = core::FaultKind::kEdgeRemove;
    remove.edge = e;
    remove.at = at;
    schedule.add(remove);
    core::FaultEvent add = remove;
    add.kind = core::FaultKind::kEdgeAdd;
    add.at = at + period / 2;
    schedule.add(add);
  }
  return schedule;
}

Inputs generate_inputs(const Workload& w, std::uint64_t run_seed,
                       int variant) {
  const std::uint64_t seed =
      derive_seed(run_seed, static_cast<std::uint64_t>(variant));
  Inputs in;
  in.sim_seed = derive_seed(seed, 0x51u);
  if (w.name == "relay_grid_65k") {
    in.net = core::scenarios::grid_single(256, 256);
    in.initial_per_node = 8;
    return in;
  }
  in.net = core::scenarios::random_unsaturated(1024, 4096, 2, 2,
                                               derive_seed(seed, 0x6Eu));
  if (w.durable) {
    in.arrival_spec = "adversary:strategy=queue_aware,rho=0.9,sigma=16";
    in.loss = 1e-3;
    in.churn = make_churn(in.net, seed, w.horizon, 250);
  }
  return in;
}

FileSink::FileSink(const std::string& path, SpanTrace* trace,
                   LayerTotals* totals)
    : buffer_(std::size_t{1} << 20), trace_(trace), totals_(totals) {
  // The buffer must be installed before open() to take effect.
  os_.rdbuf()->pubsetbuf(buffer_.data(),
                         static_cast<std::streamsize>(buffer_.size()));
  os_.open(path, std::ios::binary | std::ios::trunc);
  if (!os_) throw std::runtime_error("cannot write " + path);
}

void FileSink::write_line(std::string_view line) {
  if (trace_ == nullptr) {
    os_ << line << '\n';
  } else {
    const std::int64_t t0 = now_ns();
    {
      const ScopedSpan span(trace_, "obs.write_line", totals_->step.load());
      os_ << line << '\n';
    }
    totals_->sink_ns += now_ns() - t0;
    ++totals_->sink_lines;
    totals_->sink_bytes += line.size() + 1;
  }
  bytes_ += line.size() + 1;
}

void FileSink::flush() { os_.flush(); }

Rig::Rig(Inputs inputs, const Attach& attach) : attach_(attach) {
  const flow::FeasibilityReport report = flow::analyze_feasibility(
      inputs.net.topology(), inputs.net.source_rates(),
      inputs.net.sink_rates());
  std::optional<core::UnsaturatedBounds> lemma1;
  if (attach.durable && report.unsaturated) {
    lemma1 = core::unsaturated_bounds(inputs.net, report);
  }

  core::SimulatorOptions options;
  options.seed = inputs.sim_seed;
  sim_ = std::make_unique<core::Simulator>(std::move(inputs.net), options);
  core::Simulator& sim = *sim_;
  if (inputs.initial_per_node > 0) {
    for (NodeId v = 0; v < sim.network().node_count(); ++v) {
      sim.set_initial_queue(v, inputs.initial_per_node);
    }
  }
  if (inputs.loss > 0) {
    sim.set_loss(std::make_unique<core::BernoulliLoss>(inputs.loss));
  }
  std::unique_ptr<core::ArrivalProcess> arrival =
      inputs.arrival_spec.empty()
          ? std::make_unique<core::ExactArrival>()
          : traffic::make_arrival(inputs.arrival_spec);
  if (attach.trace != nullptr) {
    arrival = std::make_unique<TracedArrival>(std::move(arrival),
                                              attach.trace, attach.totals);
  }
  sim.set_arrival(std::move(arrival));
  if (!inputs.churn.empty()) {
    inputs.churn.validate_strict(sim.network());
    sim.set_faults(std::make_unique<core::FaultInjector>(
        std::move(inputs.churn), derive_seed(inputs.sim_seed, 0xFA17)));
  }
  if (attach.durable) {
    obs::TelemetryOptions topts;
    topts.snapshot_every = kSnapshotEvery;
    topts.flight_capacity = kFlightCapacity;
    topts.hotspot_k = kHotspotK;
    telemetry_ = std::make_unique<obs::Telemetry>(topts);
    if (lemma1.has_value()) {
      telemetry_->set_lemma1_bounds(lemma1->growth, lemma1->state);
    }
    sim.set_telemetry(telemetry_.get());
    governor_ = std::make_unique<control::AdmissionGovernor>(sim.network());
    if (attach.trace != nullptr) {
      admission_wrapper_ = std::make_unique<TracedAdmission>(
          *governor_, attach.trace, attach.totals);
      sim.set_admission(admission_wrapper_.get());
    } else {
      sim.set_admission(governor_.get());
    }
  }
  if (attach.shards > 0) sim.enable_sharding(attach.shards, attach.threads);
  if (attach.durable && !attach.dir.empty()) {
    sink_ = std::make_unique<FileSink>(telemetry_path(), attach.trace,
                                       attach.totals);
    telemetry_->set_sink(sink_.get());
    chain_ = std::make_unique<core::CheckpointChain>(attach.dir + "/run.ckpt",
                                                     kRetainGenerations);
  }
  if (attach.profiler != nullptr) sim.set_profiler(attach.profiler);
}

Rig::~Rig() = default;

std::string Rig::telemetry_path() const {
  return attach_.dir + "/telemetry.jsonl";
}

void Rig::flush() {
  if (sink_ != nullptr) sink_->flush();
}

core::StepStats Rig::step() {
  SpanTrace* trace = attach_.trace;
  core::StepStats stats;
  if (trace == nullptr) {
    stats = sim_->step();
  } else {
    const std::int64_t t0 = now_ns();
    {
      const ScopedSpan span(trace, "core.step", sim_->now());
      stats = sim_->step();
    }
    attach_.totals->step_call_ns += now_ns() - t0;
  }
  appended_ = chain_ != nullptr && sim_->now() % attach_.append_every == 0;
  if (appended_) {
    sink_->flush();
    const std::int64_t t0 = now_ns();
    {
      const ScopedSpan span(trace, "core.ckpt_append", sim_->now() - 1);
      chain_->append(*sim_, sink_->bytes());
    }
    if (trace != nullptr) {
      attach_.totals->append_ns.push_back(now_ns() - t0);
      attach_.totals->append_bytes = chain_->manifest().entries.front().size;
    }
  }
  return stats;
}

void Fnv1a::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
}

std::string Fnv1a::hex() const {
  char out[17];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(h));
  return out;
}

std::string state_digest(const core::Simulator& sim) {
  Fnv1a f;
  f.u64(static_cast<std::uint64_t>(sim.now()));
  const auto q = sim.queues();
  f.bytes(q.data(), q.size_bytes());
  static_assert(sizeof(core::detail::QuadAccum) == 16,
                "the digest hashes an exact 128-bit Σq²");
  core::detail::QuadAccum p = 0;
  for (const PacketCount v : q) p += core::detail::square(v);
  f.u64(static_cast<std::uint64_t>(p));
  f.u64(static_cast<std::uint64_t>(p >> 64));
  const core::CumulativeStats& c = sim.cumulative();
  for (const PacketCount v :
       {c.injected, c.proposed, c.suppressed, c.conflicted, c.sent, c.lost,
        c.delivered, c.extracted, c.crash_wiped, c.shed, c.steps}) {
    f.u64(static_cast<std::uint64_t>(v));
  }
  return f.hex();
}

}  // namespace lgg::perfbench
