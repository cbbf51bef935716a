#include "core/faults.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "common/binio.hpp"
#include "common/require.hpp"
#include "obs/registry.hpp"

namespace lgg::core {

namespace {
constexpr TimeStep kForever = std::numeric_limits<TimeStep>::max();

/// End of a window starting at `at` with the given duration (-1 = forever).
TimeStep window_end(TimeStep at, TimeStep duration) {
  if (duration < 0) return kForever;
  if (at > kForever - duration) return kForever;
  return at + duration;
}

bool window_active(const FaultEvent& e, TimeStep t) {
  return t >= e.at && t < window_end(e.at, e.duration);
}
}  // namespace

std::string_view to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kSinkOutage: return "sink_outage";
    case FaultKind::kSourceSurge: return "surge";
    case FaultKind::kByzantine: return "byzantine";
    case FaultKind::kEdgeRemove: return "edge_remove";
    case FaultKind::kEdgeAdd: return "edge_add";
    case FaultKind::kNodeLeave: return "node_leave";
    case FaultKind::kNodeJoin: return "node_join";
    case FaultKind::kCapacityNudge: return "nudge";
  }
  return "?";
}

std::string_view to_string(CrashMode mode) {
  return mode == CrashMode::kWipe ? "wipe" : "freeze";
}

FaultSchedule& FaultSchedule::add(FaultEvent event) {
  const bool edge_kind = event.kind == FaultKind::kEdgeRemove ||
                         event.kind == FaultKind::kEdgeAdd;
  if (edge_kind) {
    LGG_REQUIRE(event.edge >= 0, "FaultSchedule::add: negative edge");
  } else {
    LGG_REQUIRE(event.node >= 0, "FaultSchedule::add: negative node");
  }
  LGG_REQUIRE(event.at >= 0, "FaultSchedule::add: negative start step");
  LGG_REQUIRE(event.duration != 0,
              "FaultSchedule::add: zero-length window (use -1 for forever)");
  LGG_REQUIRE(event.kind != FaultKind::kSourceSurge || event.extra > 0,
              "FaultSchedule::add: surge needs extra > 0");
  LGG_REQUIRE(event.kind != FaultKind::kByzantine || event.declare >= 0,
              "FaultSchedule::add: byzantine declaration must be >= 0");
  LGG_REQUIRE(event.kind != FaultKind::kCapacityNudge ||
                  event.din != 0 || event.dout != 0,
              "FaultSchedule::add: nudge needs din or dout nonzero");
  if (is_churn(event.kind)) ++churn_events_;
  events_.push_back(event);
  return *this;
}

FaultSchedule& FaultSchedule::set_random_crashes(RandomCrashConfig config) {
  LGG_REQUIRE(config.p_per_step >= 0.0 && config.p_per_step <= 1.0,
              "random_crashes: p must be in [0, 1]");
  LGG_REQUIRE(config.min_down >= 1 && config.max_down >= config.min_down,
              "random_crashes: need 1 <= min_down <= max_down");
  random_ = config;
  return *this;
}

FaultSchedule& FaultSchedule::set_random_churn(RandomChurnConfig config) {
  churn_ = std::move(config);
  return *this;
}

void FaultSchedule::validate(const SdNetwork& net) const {
  if (churn_) {
    const auto probability = [](double p) { return p >= 0.0 && p <= 1.0; };
    LGG_REQUIRE(probability(churn_->p_off) && probability(churn_->p_on),
                "fault schedule: random_churn probabilities must be in "
                "[0, 1]");
    for (const EdgeId e : churn_->protected_edges) {
      LGG_REQUIRE(net.topology().valid_edge(e),
                  "fault schedule: protected edge " + std::to_string(e) +
                      " is not in the network");
    }
  }
  for (const FaultEvent& e : events_) {
    if (e.kind == FaultKind::kEdgeRemove || e.kind == FaultKind::kEdgeAdd) {
      LGG_REQUIRE(net.topology().valid_edge(e.edge),
                  "fault schedule: edge " + std::to_string(e.edge) +
                      " is not in the network");
      continue;
    }
    LGG_REQUIRE(net.topology().valid_node(e.node),
                "fault schedule: node " + std::to_string(e.node) +
                    " is not in the network");
    if (e.kind == FaultKind::kSourceSurge) {
      LGG_REQUIRE(net.spec(e.node).in > 0,
                  "fault schedule: surge node " + std::to_string(e.node) +
                      " is not a source (in = 0)");
    }
    if (e.kind == FaultKind::kSinkOutage) {
      LGG_REQUIRE(net.spec(e.node).out > 0,
                  "fault schedule: sink_outage node " +
                      std::to_string(e.node) + " is not a sink (out = 0)");
    }
  }
}

void FaultSchedule::validate_strict(const SdNetwork& net) const {
  validate(net);
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const FaultEvent& a = events_[i];
    for (std::size_t j = i + 1; j < events_.size(); ++j) {
      const FaultEvent& b = events_[j];
      const bool same_target =
          a.kind == b.kind && a.node == b.node && a.edge == b.edge;
      LGG_REQUIRE(!(same_target && a.at == b.at),
                  "fault schedule: duplicate " +
                      std::string(to_string(a.kind)) + " event at step " +
                      std::to_string(a.at));
      if (a.kind == FaultKind::kCrash && b.kind == FaultKind::kCrash &&
          a.node == b.node) {
        const bool overlap = a.at < window_end(b.at, b.duration) &&
                             b.at < window_end(a.at, a.duration);
        LGG_REQUIRE(!overlap,
                    "fault schedule: overlapping crash windows on node " +
                        std::to_string(a.node));
      }
    }
  }
  // Replay the churn sequence in firing order (stable by `at`, schedule
  // order breaking ties — exactly how apply_churn fires them): every
  // node_join must find its node departed, every edge_add its edge
  // removed, and the inverse events must not double-fire.
  std::vector<const FaultEvent*> churn;
  for (const FaultEvent& e : events_) {
    if (is_churn(e.kind)) churn.push_back(&e);
  }
  std::stable_sort(churn.begin(), churn.end(),
                   [](const FaultEvent* a, const FaultEvent* b) {
                     return a->at < b->at;
                   });
  std::vector<char> edge_out(static_cast<std::size_t>(
                                 net.topology().edge_count()),
                             0);
  std::vector<char> node_out(static_cast<std::size_t>(net.node_count()), 0);
  for (const FaultEvent* e : churn) {
    switch (e->kind) {
      case FaultKind::kEdgeRemove: {
        auto& out = edge_out[static_cast<std::size_t>(e->edge)];
        LGG_REQUIRE(!out, "fault schedule: edge " + std::to_string(e->edge) +
                              " removed twice (step " +
                              std::to_string(e->at) + ")");
        out = 1;
        break;
      }
      case FaultKind::kEdgeAdd: {
        auto& out = edge_out[static_cast<std::size_t>(e->edge)];
        LGG_REQUIRE(out, "fault schedule: edge_add at step " +
                             std::to_string(e->at) + " for edge " +
                             std::to_string(e->edge) +
                             " without a prior edge_remove");
        out = 0;
        break;
      }
      case FaultKind::kNodeLeave: {
        auto& out = node_out[static_cast<std::size_t>(e->node)];
        LGG_REQUIRE(!out, "fault schedule: node " + std::to_string(e->node) +
                              " leaves twice (step " + std::to_string(e->at) +
                              ")");
        out = 1;
        break;
      }
      case FaultKind::kNodeJoin: {
        auto& out = node_out[static_cast<std::size_t>(e->node)];
        LGG_REQUIRE(out, "fault schedule: node_join at step " +
                             std::to_string(e->at) + " for node " +
                             std::to_string(e->node) +
                             " without a prior node_leave");
        out = 0;
        break;
      }
      case FaultKind::kCapacityNudge:
        LGG_REQUIRE(!node_out[static_cast<std::size_t>(e->node)],
                    "fault schedule: nudge at step " + std::to_string(e->at) +
                        " targets departed node " + std::to_string(e->node));
        break;
      default:
        break;
    }
  }
}

namespace {

[[noreturn]] void spec_fail(const std::string& clause, const std::string& why) {
  LGG_REQUIRE(false, "bad --faults clause '" + clause + "': " + why);
  std::abort();  // unreachable; LGG_REQUIRE(false) throws
}

std::int64_t spec_int(const std::string& clause, const std::string& key,
                      const std::string& value) {
  std::size_t used = 0;
  std::int64_t parsed = 0;
  try {
    parsed = std::stoll(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != value.size() || value.empty()) {
    spec_fail(clause, key + " wants an integer, got '" + value + "'");
  }
  return parsed;
}

double spec_double(const std::string& clause, const std::string& key,
                   const std::string& value) {
  std::size_t used = 0;
  double parsed = 0;
  try {
    parsed = std::stod(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != value.size() || value.empty()) {
    spec_fail(clause, key + " wants a number, got '" + value + "'");
  }
  return parsed;
}

}  // namespace

FaultSchedule parse_fault_spec(const std::string& spec) {
  FaultSchedule schedule;
  std::istringstream clauses(spec);
  std::string clause;
  bool any = false;
  while (std::getline(clauses, clause, ';')) {
    if (clause.empty()) continue;
    any = true;
    const auto colon = clause.find(':');
    const std::string kind_name = clause.substr(0, colon);

    // Parse key=value pairs into a small flat list.
    std::vector<std::pair<std::string, std::string>> kv;
    if (colon != std::string::npos) {
      std::istringstream pairs(clause.substr(colon + 1));
      std::string pair;
      while (std::getline(pairs, pair, ',')) {
        const auto eq = pair.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 == pair.size()) {
          spec_fail(clause, "expected key=value, got '" + pair + "'");
        }
        kv.emplace_back(pair.substr(0, eq), pair.substr(eq + 1));
      }
    }
    const auto take = [&](const std::string& key) -> const std::string* {
      for (const auto& [k, v] : kv) {
        if (k == key) return &v;
      }
      return nullptr;
    };
    const auto parse_mode = [&](CrashMode fallback) {
      const std::string* m = take("mode");
      if (m == nullptr) return fallback;
      if (*m == "wipe") return CrashMode::kWipe;
      if (*m == "freeze") return CrashMode::kFreeze;
      spec_fail(clause, "mode must be wipe or freeze, got '" + *m + "'");
    };

    if (kind_name == "random_crashes") {
      RandomCrashConfig config;
      const std::string* p = take("p");
      if (p == nullptr) spec_fail(clause, "random_crashes needs p=<prob>");
      config.p_per_step = spec_double(clause, "p", *p);
      if (config.p_per_step < 0.0 || config.p_per_step > 1.0) {
        spec_fail(clause, "p must be in [0, 1]");
      }
      if (const std::string* down = take("down")) {
        const auto dots = down->find("..");
        if (dots == std::string::npos) {
          config.min_down = config.max_down =
              spec_int(clause, "down", *down);
        } else {
          config.min_down = spec_int(clause, "down", down->substr(0, dots));
          config.max_down = spec_int(clause, "down", down->substr(dots + 2));
        }
        if (config.min_down < 1 || config.max_down < config.min_down) {
          spec_fail(clause, "down wants 1 <= lo <= hi");
        }
      }
      config.mode = parse_mode(CrashMode::kWipe);
      schedule.set_random_crashes(config);
      continue;
    }
    if (kind_name == "random_churn") {
      RandomChurnConfig config;
      const std::string* off = take("off");
      const std::string* on = take("on");
      if (off == nullptr || on == nullptr) {
        spec_fail(clause, "random_churn needs off=<prob> and on=<prob>");
      }
      config.p_off = spec_double(clause, "off", *off);
      config.p_on = spec_double(clause, "on", *on);
      if (!(config.p_off >= 0.0 && config.p_off <= 1.0) ||
          !(config.p_on >= 0.0 && config.p_on <= 1.0)) {
        spec_fail(clause, "off and on must be in [0, 1]");
      }
      if (const std::string* protect = take("protect")) {
        std::istringstream ids(*protect);
        std::string id;
        while (std::getline(ids, id, '/')) {
          const auto e = spec_int(clause, "protect", id);
          if (e < 0) spec_fail(clause, "protected edges must be >= 0");
          config.protected_edges.push_back(static_cast<EdgeId>(e));
        }
      }
      schedule.set_random_churn(std::move(config));
      continue;
    }

    FaultEvent event;
    if (kind_name == "crash") {
      event.kind = FaultKind::kCrash;
    } else if (kind_name == "sink_outage") {
      event.kind = FaultKind::kSinkOutage;
    } else if (kind_name == "surge") {
      event.kind = FaultKind::kSourceSurge;
    } else if (kind_name == "byzantine") {
      event.kind = FaultKind::kByzantine;
    } else if (kind_name == "edge_remove") {
      event.kind = FaultKind::kEdgeRemove;
    } else if (kind_name == "edge_add") {
      event.kind = FaultKind::kEdgeAdd;
    } else if (kind_name == "node_leave") {
      event.kind = FaultKind::kNodeLeave;
    } else if (kind_name == "node_join") {
      event.kind = FaultKind::kNodeJoin;
    } else if (kind_name == "nudge") {
      event.kind = FaultKind::kCapacityNudge;
    } else {
      spec_fail(clause, "unknown fault kind '" + kind_name +
                            "' (crash, sink_outage, surge, byzantine, "
                            "random_crashes, random_churn, edge_remove, "
                            "edge_add, node_leave, node_join, nudge)");
    }
    const bool edge_kind = event.kind == FaultKind::kEdgeRemove ||
                           event.kind == FaultKind::kEdgeAdd;
    if (edge_kind) {
      const std::string* edge = take("edge");
      if (edge == nullptr) spec_fail(clause, "missing edge=<id>");
      event.edge = static_cast<EdgeId>(spec_int(clause, "edge", *edge));
      if (event.edge < 0) spec_fail(clause, "edge must be >= 0");
    } else {
      const std::string* node = take("node");
      if (node == nullptr) spec_fail(clause, "missing node=<id>");
      event.node = static_cast<NodeId>(spec_int(clause, "node", *node));
      if (event.node < 0) spec_fail(clause, "node must be >= 0");
    }
    if (const std::string* at = take("at")) {
      event.at = spec_int(clause, "at", *at);
      if (event.at < 0) spec_fail(clause, "at must be >= 0");
    }
    if (const std::string* dur = take("for")) {
      if (is_churn(event.kind)) {
        spec_fail(clause, "churn events are instantaneous (no for=)");
      }
      event.duration = spec_int(clause, "for", *dur);
      if (event.duration == 0 || event.duration < -1) {
        spec_fail(clause, "for must be >= 1 (or -1 for forever)");
      }
    }
    event.mode = parse_mode(CrashMode::kWipe);
    if (event.kind == FaultKind::kCapacityNudge) {
      const std::string* din = take("din");
      const std::string* dout = take("dout");
      if (din == nullptr && dout == nullptr) {
        spec_fail(clause, "nudge needs din=<delta> and/or dout=<delta>");
      }
      if (din != nullptr) event.din = spec_int(clause, "din", *din);
      if (dout != nullptr) event.dout = spec_int(clause, "dout", *dout);
      if (event.din == 0 && event.dout == 0) {
        spec_fail(clause, "nudge with din=0,dout=0 is a no-op");
      }
    }
    if (event.kind == FaultKind::kSourceSurge) {
      const std::string* extra = take("extra");
      if (extra == nullptr) spec_fail(clause, "surge needs extra=<packets>");
      event.extra = spec_int(clause, "extra", *extra);
      if (event.extra <= 0) spec_fail(clause, "extra must be > 0");
    }
    if (event.kind == FaultKind::kByzantine) {
      const std::string* declare = take("declare");
      if (declare == nullptr) {
        spec_fail(clause, "byzantine needs declare=<value>");
      }
      event.declare = spec_int(clause, "declare", *declare);
      if (event.declare < 0) spec_fail(clause, "declare must be >= 0");
    }
    schedule.add(event);
  }
  LGG_REQUIRE(any, "empty --faults spec");
  return schedule;
}

std::string to_string(const FaultSchedule& schedule) {
  std::ostringstream os;
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ';';
    first = false;
  };
  // Shortest round-tripping form: a re-parsed artifact must replay with
  // exactly this probability, not a 6-significant-digit approximation.
  const auto probability = [](double p) {
    std::array<char, 32> buffer{};
    const auto [ptr, ec] =
        std::to_chars(buffer.data(), buffer.data() + buffer.size(), p);
    LGG_REQUIRE(ec == std::errc(), "to_string: to_chars failed");
    return std::string(buffer.data(), ptr);
  };
  for (const FaultEvent& e : schedule.events()) {
    sep();
    if (e.kind == FaultKind::kEdgeRemove || e.kind == FaultKind::kEdgeAdd) {
      os << to_string(e.kind) << ":edge=" << e.edge << ",at=" << e.at;
      continue;
    }
    if (is_churn(e.kind)) {
      os << to_string(e.kind) << ":node=" << e.node << ",at=" << e.at;
      if (e.kind == FaultKind::kCapacityNudge) {
        if (e.din != 0) os << ",din=" << e.din;
        if (e.dout != 0) os << ",dout=" << e.dout;
      }
      continue;
    }
    os << to_string(e.kind) << ":node=" << e.node << ",at=" << e.at
       << ",for=" << e.duration;
    if (e.kind == FaultKind::kCrash) os << ",mode=" << to_string(e.mode);
    if (e.kind == FaultKind::kSourceSurge) os << ",extra=" << e.extra;
    if (e.kind == FaultKind::kByzantine) os << ",declare=" << e.declare;
  }
  const RandomCrashConfig& r = schedule.random_crashes();
  if (r.p_per_step > 0.0) {
    sep();
    os << "random_crashes:p=" << probability(r.p_per_step)
       << ",down=" << r.min_down << ".." << r.max_down
       << ",mode=" << to_string(r.mode);
  }
  if (const RandomChurnConfig* c = schedule.random_churn()) {
    sep();
    os << "random_churn:off=" << probability(c->p_off)
       << ",on=" << probability(c->p_on);
    for (std::size_t i = 0; i < c->protected_edges.size(); ++i) {
      os << (i == 0 ? ",protect=" : "/") << c->protected_edges[i];
    }
  }
  return os.str();
}

FaultInjector::FaultInjector(FaultSchedule schedule, std::uint64_t seed)
    : schedule_(std::move(schedule)), rng_(seed) {
  const std::vector<FaultEvent>& events = schedule_.events();
  for (std::uint32_t i = 0; i < events.size(); ++i) {
    const FaultKind kind = events[i].kind;
    if (is_churn(kind)) {
      churn_starts_.push_back(i);
    } else if (kind == FaultKind::kCrash) {
      crash_starts_.push_back(i);
    } else {
      windowed_.push_back(i);
    }
  }
  const auto by_start = [&events](std::uint32_t a, std::uint32_t b) {
    return events[a].at < events[b].at;
  };
  std::stable_sort(churn_starts_.begin(), churn_starts_.end(), by_start);
  std::stable_sort(crash_starts_.begin(), crash_starts_.end(), by_start);
}

std::span<const std::uint32_t> FaultInjector::starting_at(
    const std::vector<std::uint32_t>& starts, TimeStep t) const {
  const std::vector<FaultEvent>& events = schedule_.events();
  const auto first = std::partition_point(
      starts.begin(), starts.end(),
      [&](std::uint32_t i) { return events[i].at < t; });
  const auto last = std::partition_point(
      first, starts.end(), [&](std::uint32_t i) { return events[i].at == t; });
  return {first, last};
}

void FaultInjector::size_to(const SdNetwork& net) {
  ensure_sized(net.node_count());
  ensure_edges(net.topology().edge_count());
}

void FaultInjector::ensure_sized(NodeId n) {
  const auto size = static_cast<std::size_t>(n);
  if (down_until_.size() >= size) return;
  down_until_.resize(size, 0);
  down_now_.resize(size, 0);
  surge_.resize(size, 0);
  sink_out_.resize(size, 0);
  departed_.resize(size, 0);
  parked_specs_.resize(size);
}

void FaultInjector::ensure_edges(EdgeId n) {
  const auto size = static_cast<std::size_t>(n);
  if (edge_off_.size() >= size) return;
  edge_off_.resize(size, 0);
  protected_.resize(size, 0);
  if (const RandomChurnConfig* c = schedule_.random_churn()) {
    for (const EdgeId e : c->protected_edges) {
      if (static_cast<std::size_t>(e) < size) {
        protected_[static_cast<std::size_t>(e)] = 1;
      }
    }
  }
}

bool FaultInjector::apply_random_churn(Rng& rng, TopologyDelta& delta) {
  const RandomChurnConfig* config = schedule_.random_churn();
  if (config == nullptr) return false;
  const std::size_t before = delta.edges.size();
  for (std::size_t i = 0; i < edge_off_.size(); ++i) {
    std::uint8_t& bits = edge_off_[i];
    const bool off = (bits & kRandomOff) != 0;
    // A protected edge takes no draw; one held down (a restored mask slot)
    // is raised again.
    const bool flip = protected_[i] ? off
                      : off         ? rng.bernoulli(config->p_on)
                                    : rng.bernoulli(config->p_off);
    if (!flip) continue;
    bits ^= kRandomOff;
    delta.edges.push_back({static_cast<EdgeId>(i), off});
  }
  const std::size_t flips = delta.edges.size() - before;
  if (flips > 0 && churn_counter_ != nullptr) churn_counter_->add(flips);
  return flips > 0;
}

bool FaultInjector::apply_churn(TimeStep t, SdNetwork& net,
                                TopologyDelta& delta,
                                const std::function<void(NodeId)>& wipe) {
  const std::span<const std::uint32_t> firing = starting_at(churn_starts_, t);
  if (firing.empty()) return false;
  ensure_sized(net.node_count());
  ensure_edges(net.topology().edge_count());
  const std::size_t before = delta.edges.size() + delta.rates.size() +
                             delta.joined.size() + delta.left.size();
  for (const std::uint32_t index : firing) {
    const FaultEvent& e = schedule_.events()[index];
    switch (e.kind) {
      case FaultKind::kEdgeRemove: {
        auto& bits = edge_off_[static_cast<std::size_t>(e.edge)];
        if (!(bits & kScheduledOff)) {
          bits |= kScheduledOff;
          ++removed_edge_count_;
          delta.edges.push_back({e.edge, false});
        }
        break;
      }
      case FaultKind::kEdgeAdd: {
        auto& bits = edge_off_[static_cast<std::size_t>(e.edge)];
        if (bits & kScheduledOff) {
          bits &= static_cast<std::uint8_t>(~kScheduledOff);
          --removed_edge_count_;
          delta.edges.push_back({e.edge, true});
        }
        break;
      }
      case FaultKind::kNodeLeave: {
        const auto i = static_cast<std::size_t>(e.node);
        if (departed_[i]) break;
        departed_[i] = 1;
        ++departed_count_;
        const NodeSpec spec = net.spec(e.node);
        parked_specs_[i] = spec;
        if (spec != NodeSpec{}) {
          net.set_spec(e.node, NodeSpec{});
          delta.rates.push_back({e.node, spec, NodeSpec{}});
        }
        wipe(e.node);
        delta.left.push_back(e.node);
        break;
      }
      case FaultKind::kNodeJoin: {
        const auto i = static_cast<std::size_t>(e.node);
        if (!departed_[i]) break;
        departed_[i] = 0;
        --departed_count_;
        const NodeSpec spec = parked_specs_[i];
        if (spec != NodeSpec{}) {
          net.set_spec(e.node, spec);
          delta.rates.push_back({e.node, NodeSpec{}, spec});
        }
        delta.joined.push_back(e.node);
        break;
      }
      case FaultKind::kCapacityNudge: {
        if (departed_[static_cast<std::size_t>(e.node)]) break;
        const NodeSpec before_spec = net.spec(e.node);
        NodeSpec after = before_spec;
        after.in = std::max<Cap>(0, before_spec.in + e.din);
        after.out = std::max<Cap>(0, before_spec.out + e.dout);
        if (after != before_spec) {
          net.set_spec(e.node, after);
          delta.rates.push_back({e.node, before_spec, after});
        }
        break;
      }
      default:
        break;
    }
  }
  const std::size_t after = delta.edges.size() + delta.rates.size() +
                            delta.joined.size() + delta.left.size();
  if (after != before && churn_counter_ != nullptr) {
    churn_counter_->add(static_cast<std::uint64_t>(after - before));
  }
  return after != before;
}

bool FaultInjector::edge_removed(EdgeId e) const {
  const auto i = static_cast<std::size_t>(e);
  return i < edge_off_.size() && (edge_off_[i] & kScheduledOff) != 0;
}

bool FaultInjector::edge_random_off(EdgeId e) const {
  const auto i = static_cast<std::size_t>(e);
  return i < edge_off_.size() && (edge_off_[i] & kRandomOff) != 0;
}

void FaultInjector::set_random_off(EdgeId e, bool off) {
  auto& bits = edge_off_.at(static_cast<std::size_t>(e));
  bits = static_cast<std::uint8_t>(off ? bits | kRandomOff
                                       : bits & ~kRandomOff);
}

bool FaultInjector::node_departed(NodeId v) const {
  const auto i = static_cast<std::size_t>(v);
  return i < departed_.size() && departed_[i] != 0;
}

bool FaultInjector::begin_step(TimeStep t, const SdNetwork& net,
                               const std::function<void(NodeId)>& wipe) {
  ensure_sized(net.node_count());
  bool down_set_changed = false;

  const auto crash = [&](NodeId v, TimeStep until, CrashMode mode) {
    auto& down = down_until_[static_cast<std::size_t>(v)];
    if (down > t) {
      // Already down: overlapping windows extend the outage.
      down = std::max(down, until);
    } else {
      down = until;
      if (mode == CrashMode::kWipe) wipe(v);
    }
    latest_down_until_ = std::max(latest_down_until_, down);
  };

  // Scheduled crashes starting at t.
  for (const std::uint32_t index : starting_at(crash_starts_, t)) {
    const FaultEvent& e = schedule_.events()[index];
    crash(e.node, window_end(e.at, e.duration), e.mode);
  }

  // Random crashes: iterate nodes in a fixed order on the injector's own
  // RNG stream, so outcomes are seed-deterministic and independent of the
  // simulation RNG.
  const RandomCrashConfig& random = schedule_.random_crashes();
  if (random.p_per_step > 0.0) {
    const NodeId n = net.node_count();
    for (NodeId v = 0; v < n; ++v) {
      if (down_until_[static_cast<std::size_t>(v)] > t) continue;
      if (!rng_.bernoulli(random.p_per_step)) continue;
      const TimeStep down =
          rng_.uniform_int(random.min_down, random.max_down);
      crash(v, window_end(t, down), random.mode);
    }
  }

  // Refresh the down set (covers recoveries: down_until <= t means up).
  // With no node down and none down past t, every node stays up.
  went_down_.clear();
  came_up_.clear();
  if (down_count_ > 0 || latest_down_until_ > t) {
    for (std::size_t v = 0; v < down_now_.size(); ++v) {
      const char now = down_until_[v] > t ? 1 : 0;
      if (now == down_now_[v]) continue;
      down_now_[v] = now;
      down_set_changed = true;
      if (now) {
        ++down_count_;
        went_down_.push_back(static_cast<NodeId>(v));
        if (crashes_counter_ != nullptr) crashes_counter_->add(1);
      } else {
        --down_count_;
        came_up_.push_back(static_cast<NodeId>(v));
        if (recoveries_counter_ != nullptr) recoveries_counter_->add(1);
      }
    }
  }

  // Windowed effects, recomputed from the schedule each step.
  for (const NodeId v : surge_nodes_) surge_[static_cast<std::size_t>(v)] = 0;
  surge_nodes_.clear();
  for (const NodeId v : out_nodes_) sink_out_[static_cast<std::size_t>(v)] = 0;
  out_nodes_.clear();
  byz_active_.clear();
  // Churn events are instantaneous mutations handled by apply_churn and
  // crashes act only at their start (above), so neither is in windowed_.
  for (const std::uint32_t index : windowed_) {
    const FaultEvent& e = schedule_.events()[index];
    if (!window_active(e, t)) continue;
    switch (e.kind) {
      case FaultKind::kSinkOutage:
        if (!sink_out_[static_cast<std::size_t>(e.node)]) {
          sink_out_[static_cast<std::size_t>(e.node)] = 1;
          out_nodes_.push_back(e.node);
        }
        break;
      case FaultKind::kSourceSurge:
        if (surge_[static_cast<std::size_t>(e.node)] == 0) {
          surge_nodes_.push_back(e.node);
        }
        surge_[static_cast<std::size_t>(e.node)] += e.extra;
        break;
      case FaultKind::kByzantine:
        if (!down_now_[static_cast<std::size_t>(e.node)]) {
          byz_active_.emplace_back(e.node, e.declare);
        }
        break;
      default:  // churn and crash kinds are not in windowed_
        break;
    }
  }
  return down_set_changed;
}

bool FaultInjector::node_down(NodeId v) const {
  const auto i = static_cast<std::size_t>(v);
  return i < down_now_.size() && down_now_[i] != 0;
}

bool FaultInjector::sink_out(NodeId v) const {
  const auto i = static_cast<std::size_t>(v);
  return i < sink_out_.size() && sink_out_[i] != 0;
}

PacketCount FaultInjector::surge_extra(NodeId v) const {
  const auto i = static_cast<std::size_t>(v);
  return i < surge_.size() ? surge_[i] : 0;
}

void FaultInjector::live_mask(const SdNetwork& net,
                              graph::EdgeMask& mask) const {
  for (EdgeId e = 0; e < mask.size(); ++e) {
    mask.set_active(e, edge_off_[static_cast<std::size_t>(e)] == 0);
  }
  for (std::size_t v = 0; v < down_now_.size(); ++v) {
    const bool cut = down_now_[v] != 0 ||
                     (v < departed_.size() && departed_[v] != 0);
    if (!cut) continue;
    for (const graph::IncidentLink link :
         net.topology().incident(static_cast<NodeId>(v))) {
      mask.set_active(link.edge, false);
    }
  }
}

void FaultInjector::save_state(std::ostream& os) const {
  // Sparse down map, the fault RNG engine, and the churn overlays; the
  // windowed effects are recomputed from the schedule by the next
  // begin_step.  The live down_now_ bit is saved too: rebuilding it from
  // down_until_ alone would make the first post-restore begin_step report
  // spurious down-transitions, breaking the byte-identical-telemetry
  // resume guarantee.  (Churn cannot be replayed from the schedule either:
  // a resume at step t must not re-fire mutations that already happened.)
  std::uint32_t down_count = 0;
  for (const TimeStep until : down_until_) {
    if (until > 0) ++down_count;
  }
  binio::write_u32(os, down_count);
  for (std::size_t v = 0; v < down_until_.size(); ++v) {
    if (down_until_[v] == 0) continue;
    binio::write_i64(os, static_cast<std::int64_t>(v));
    binio::write_i64(os, down_until_[v]);
    binio::write_u8(os, down_now_[v] != 0 ? 1 : 0);
  }
  std::ostringstream engine;
  engine << rng_.engine();
  binio::write_string(os, engine.str());

  // Churn overlays: removed edges, then departed nodes with their parked
  // specs.  Both sparse — churn typically touches a handful of entries.
  binio::write_u32(os, static_cast<std::uint32_t>(removed_edge_count_));
  for (std::size_t e = 0; e < edge_off_.size(); ++e) {
    if (edge_off_[e] & kScheduledOff) {
      binio::write_i64(os, static_cast<std::int64_t>(e));
    }
  }
  binio::write_u32(os, static_cast<std::uint32_t>(departed_count_));
  for (std::size_t v = 0; v < departed_.size(); ++v) {
    if (!departed_[v]) continue;
    binio::write_i64(os, static_cast<std::int64_t>(v));
    binio::write_i64(os, parked_specs_[v].in);
    binio::write_i64(os, parked_specs_[v].out);
    binio::write_i64(os, parked_specs_[v].retention);
  }
}

void FaultInjector::load_state(std::istream& is) {
  // Ids index the per-node and per-edge tables, which size_to fixed to the
  // network, so any id outside it is a corrupt blob.
  const auto node_index = [&](std::int64_t v) {
    if (v < 0 || static_cast<std::uint64_t>(v) >= down_until_.size()) {
      throw std::runtime_error("FaultInjector: node " + std::to_string(v) +
                               " outside the network");
    }
    return static_cast<std::size_t>(v);
  };
  std::fill(down_until_.begin(), down_until_.end(), TimeStep{0});
  std::fill(down_now_.begin(), down_now_.end(), char{0});
  down_count_ = 0;
  latest_down_until_ = 0;
  const std::uint32_t down_count = binio::read_u32(is);
  for (std::uint32_t i = 0; i < down_count; ++i) {
    const std::size_t v = node_index(binio::read_i64(is));
    const TimeStep until = binio::read_i64(is);
    const std::uint8_t now = binio::read_u8(is);
    down_until_[v] = until;
    down_now_[v] = static_cast<char>(now != 0 ? 1 : 0);
  }
  for (std::size_t v = 0; v < down_now_.size(); ++v) {
    down_count_ += down_now_[v] != 0 ? 1 : 0;
    latest_down_until_ = std::max(latest_down_until_, down_until_[v]);
  }
  std::istringstream engine(binio::read_string(is));
  engine >> rng_.engine();
  if (engine.fail()) {
    throw std::runtime_error("FaultInjector: corrupt RNG state");
  }

  std::fill(edge_off_.begin(), edge_off_.end(), std::uint8_t{0});
  std::fill(departed_.begin(), departed_.end(), char{0});
  removed_edge_count_ = 0;
  departed_count_ = 0;
  const std::uint32_t removed_count = binio::read_u32(is);
  for (std::uint32_t i = 0; i < removed_count; ++i) {
    const std::int64_t e = binio::read_i64(is);
    if (e < 0 || static_cast<std::uint64_t>(e) >= edge_off_.size()) {
      throw std::runtime_error("FaultInjector: edge " + std::to_string(e) +
                               " outside the network");
    }
    auto& bits = edge_off_[static_cast<std::size_t>(e)];
    if (!(bits & kScheduledOff)) {
      bits |= kScheduledOff;
      ++removed_edge_count_;
    }
  }
  const std::uint32_t departed_count = binio::read_u32(is);
  for (std::uint32_t i = 0; i < departed_count; ++i) {
    const std::size_t v = node_index(binio::read_i64(is));
    NodeSpec spec;
    spec.in = binio::read_i64(is);
    spec.out = binio::read_i64(is);
    spec.retention = binio::read_i64(is);
    if (spec.in < 0 || spec.out < 0 || spec.retention < 0) {
      throw std::runtime_error("FaultInjector: negative parked spec");
    }
    if (!departed_[v]) {
      departed_[v] = 1;
      ++departed_count_;
    }
    parked_specs_[v] = spec;
  }
}

void FaultInjector::register_metrics(obs::MetricRegistry& registry) {
  crashes_counter_ = &registry.counter("faults.crashes");
  recoveries_counter_ = &registry.counter("faults.recoveries");
  churn_counter_ = &registry.counter("faults.churn");
}

}  // namespace lgg::core
