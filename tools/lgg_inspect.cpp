// lgg_inspect — post-run inspector for the artefacts `lgg_sim` leaves:
// the telemetry JSONL stream (--telemetry) and the Chrome trace
// (--trace-out, core::StepProfiler::write_chrome_trace).
//
// Subcommands:
//
//   telemetry [--strict-bounds] [--resumed] [FILE]
//                Validate a telemetry stream (stdin when FILE is absent),
//                line by line:
//     * every line is one complete JSON object with a string "type";
//     * a "header" line, when present, is the first line, with schema >= 1;
//     * "snapshot" lines come after a header, their seq values are
//       consecutive, their t values strictly increase, and the drift
//       decomposition is internally consistent: the per-cause contributions
//       sum to drift.dP, the per-node contributions sum to drift.dP, and
//       each per-node entry's cause fields sum to its own dP;
//     * "event" lines carry t and kind, with seq values non-decreasing;
//       "governor_mode" events additionally have strictly increasing t
//       (the governor emits at most one mode transition per step);
//     * "hotspots" lines (emitted when hotspot analytics are enabled)
//       immediately follow their snapshot with the same seq and t, carry
//       k >= 1 and non-negative drift_total/queue_total that never
//       decrease from one hotspots line to the next, and their "drift"
//       and "queue" top-K arrays have at most k entries with
//       0 <= v < the header's n, 0 <= err <= w, and weights in
//       non-increasing order (ties broken by ascending v) — the
//       Space-Saving report order; Space-Saving adds each update's weight
//       to exactly one counter, so each array's weights sum to its total
//       (checked exactly while the total is below 2^53);
//     * churn events follow the topology-mutation schema: "edge_down" and
//       "edge_up" carry both endpoints a and b; "node_leave", "node_join"
//       and "rate_change" carry the node in a; a "node_leave" value (the
//       wiped queue) is non-negative;
//     * the sim.topology_version gauge, when present, is a non-negative
//       monotone non-decreasing counter across snapshots;
//     * snapshots carrying any "governor.*" gauge carry the full governor
//       gauge set (multiplier in [0, 1], drift_estimate, mode in {0, 1, 2},
//       time_in_mode >= 0);
//     * "summary" lines carry t and P.
//     A partial final line (a writer killed mid-write) is ignored with a
//     warning.  --strict-bounds also requires every snapshot's
//     sim.bound_slack_growth and sim.bound_slack_state gauges to be
//     non-negative — the live form of the Lemma 1 acceptance check for
//     unsaturated runs.  --resumed accepts the concatenated segments of a
//     crashed-and-resumed run (docs/reproducing.md "Surviving a crash"):
//     one truncated line is tolerated at each segment boundary provided
//     the next line is a header; later headers must repeat the first one's
//     schema and n; snapshot seq and t invariants still hold across the
//     boundary, so a resume that duplicated or skipped work fails.
//
//   trace FILE   Validate a trace: a top-level object with a "traceEvents"
//                array whose entries are complete duration events
//                (non-empty string name, ph == "X", numeric ts/dur >= 0,
//                numeric pid/tid, args.step a number; args.shard, when
//                present, a non-negative number).  When the file carries
//                otherData.spans, the event count must match it.
//
//   stats FILE   The phase table: whole-run per-phase time, share,
//                ns/step, items and items/step from otherData.profile
//                (complete even when the span ring wrapped), then the
//                retained span window split into the serial lane (no
//                args.shard) and shard-worker lanes, with the per-phase
//                parallelism ratio (shard-lane time over serial-lane wall
//                time — >1 means the workers overlapped).
//
//   diff A B     Per-phase serial-lane span totals of two traces side by
//                side with absolute and relative deltas.
//
// Exit codes: 0 = valid, 1 = validation failure, 2 = usage or I/O error.
//
// Built on tools/mini_json.hpp — deliberately independent of the obs
// library that produced the files.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "mini_json.hpp"

namespace {

using minijson::Parser;
using minijson::require;
using minijson::require_present;
using minijson::Value;
using minijson::ValuePtr;

/// Distinguishes "could not read the file" (exit 2) from "the file is not
/// valid" (exit 1).
struct IoError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The whole of `path`, or of stdin when `path` is empty.
std::string load(const std::string& path) {
  std::ifstream file;
  if (!path.empty()) {
    file.open(path);
    if (!file) throw IoError("cannot open " + path);
  }
  std::ostringstream buf;
  buf << (path.empty() ? std::cin : file).rdbuf();
  return buf.str();
}

/// The number field `key` of `obj`; throws "<in> needs <key>" otherwise.
double number(const Value& obj, const char* key, const char* in) {
  return require(obj, key, Value::Kind::kNumber, in)->number;
}

// ---------------------------------------------------------------- telemetry

struct TelemetryChecker {
  bool strict_bounds = false;
  bool resumed = false;
  /// Set by the driver after a tolerated truncated line: the next complete
  /// line must be a (matching) header or the stream is rejected.
  bool expect_header = false;
  bool seen_header = false;
  double header_schema = 0.0;
  double header_n = 0.0;
  std::optional<double> last_snapshot_seq;
  std::optional<double> last_snapshot_t;
  std::optional<double> last_event_seq;
  std::optional<double> last_governor_mode_t;
  std::optional<double> last_topology_version;
  std::optional<double> last_hotspot_total[2];  // drift_total, queue_total
  bool last_was_snapshot = false;
  std::size_t snapshots = 0;
  std::size_t events = 0;
  std::size_t churn_events = 0;
  std::size_t hotspot_lines = 0;
  std::size_t summaries = 0;

  void check_line(const Value& obj, std::size_t line_no) {
    if (obj.kind != Value::Kind::kObject) {
      throw std::runtime_error("line is not a JSON object");
    }
    const Value* type = obj.find("type");
    if (type == nullptr || type->kind != Value::Kind::kString) {
      throw std::runtime_error("missing string \"type\"");
    }
    // The hotspots line is pinned to the snapshot it annotates: it must be
    // the very next line.  Track adjacency here so the dispatch below can
    // enforce it without each branch knowing about the others.
    const bool followed_snapshot = last_was_snapshot;
    last_was_snapshot = false;
    if (expect_header && type->string != "header") {
      throw std::runtime_error(
          "truncated line not followed by a resume header");
    }
    if (type->string == "header") {
      const double schema = number(obj, "schema", "header");
      if (schema < 1.0) throw std::runtime_error("header schema < 1");
      const double n = number(obj, "n", "header");
      if (!seen_header) {
        if (line_no != 1) throw std::runtime_error("header is not line 1");
        header_schema = schema;
        header_n = n;
        seen_header = true;
      } else {
        // A later header opens a resumed segment: legal only under
        // --resumed, and it must describe the same run.
        if (!resumed) throw std::runtime_error("duplicate header");
        if (schema != header_schema || n != header_n) {
          throw std::runtime_error("resume header schema/n mismatch");
        }
      }
      expect_header = false;
    } else if (type->string == "snapshot") {
      check_snapshot(obj);
      last_was_snapshot = true;
    } else if (type->string == "event") {
      check_event(obj);
    } else if (type->string == "hotspots") {
      check_hotspots(obj, followed_snapshot);
    } else if (type->string == "summary") {
      (void)number(obj, "t", "summary");
      (void)number(obj, "P", "summary");
      ++summaries;
    } else {
      throw std::runtime_error("unknown type \"" + type->string + "\"");
    }
  }

  void check_snapshot(const Value& obj) {
    if (!seen_header) throw std::runtime_error("snapshot before header");
    const double seq = number(obj, "seq", "snapshot");
    if (last_snapshot_seq && seq != *last_snapshot_seq + 1.0) {
      throw std::runtime_error("snapshot seq not consecutive");
    }
    last_snapshot_seq = seq;
    const double t = number(obj, "t", "snapshot");
    if (last_snapshot_t && t <= *last_snapshot_t) {
      throw std::runtime_error("snapshot t not increasing");
    }
    last_snapshot_t = t;
    (void)number(obj, "P", "snapshot");
    const double dp = number(obj, "dP", "snapshot");
    require_present(obj, "counters", Value::Kind::kObject, "snapshot");
    const Value* gauges =
        require(obj, "gauges", Value::Kind::kObject, "snapshot");
    require_present(obj, "histograms", Value::Kind::kObject, "snapshot");

    const Value* drift =
        require(obj, "drift", Value::Kind::kObject, "snapshot");
    const double drift_dp = number(*drift, "dP", "drift");
    if (drift_dp != dp) {
      throw std::runtime_error("drift.dP != snapshot dP");
    }
    const Value* by_cause =
        require(*drift, "by_cause", Value::Kind::kObject, "drift");
    double cause_sum = 0.0;
    for (const auto& [name, v] : by_cause->object) {
      if (v->kind != Value::Kind::kNumber) {
        throw std::runtime_error("by_cause." + name + " is not a number");
      }
      cause_sum += v->number;
    }
    if (cause_sum != drift_dp) {
      throw std::runtime_error("by_cause sum != drift.dP");
    }
    require_present(*drift, "cumulative_by_cause", Value::Kind::kObject,
                    "drift");
    const Value* per_node =
        require(*drift, "per_node", Value::Kind::kArray, "drift");
    double node_sum = 0.0;
    double last_node = -1.0;
    for (const ValuePtr& entry : per_node->array) {
      if (entry->kind != Value::Kind::kObject) {
        throw std::runtime_error("per_node entry is not an object");
      }
      const double v = number(*entry, "v", "per_node");
      if (v <= last_node) {
        throw std::runtime_error("per_node not sorted by node id");
      }
      last_node = v;
      const double node_dp = number(*entry, "dP", "per_node");
      double entry_sum = 0.0;
      for (const auto& [key, field] : entry->object) {
        if (key == "v" || key == "dP") continue;
        if (field->kind != Value::Kind::kNumber) {
          throw std::runtime_error("per_node." + key + " is not a number");
        }
        entry_sum += field->number;
      }
      if (entry_sum != node_dp) {
        throw std::runtime_error("per_node causes don't sum to entry dP");
      }
      node_sum += node_dp;
    }
    if (node_sum != drift_dp) {
      throw std::runtime_error("per_node sum != drift.dP");
    }

    // Governor gauge schema: the set is all-or-nothing, and the gauges
    // have hard ranges (multiplier is a fraction, mode a SaturationMode).
    const bool any_governor =
        std::any_of(gauges->object.begin(), gauges->object.end(),
                    [](const auto& gauge) {
                      return gauge.first.rfind("governor.", 0) == 0;
                    });
    if (any_governor) {
      const char* in = "governor gauges";
      const double multiplier = number(*gauges, "governor.multiplier", in);
      if (multiplier < 0.0 || multiplier > 1.0) {
        throw std::runtime_error("governor.multiplier outside [0, 1]");
      }
      (void)number(*gauges, "governor.drift_estimate", in);
      const double mode = number(*gauges, "governor.mode", in);
      if (mode != 0.0 && mode != 1.0 && mode != 2.0) {
        throw std::runtime_error("governor.mode is not a SaturationMode");
      }
      if (number(*gauges, "governor.time_in_mode", in) < 0.0) {
        throw std::runtime_error("governor.time_in_mode is negative");
      }
    }

    // Topology churn: the version gauge is a counter bumped once per
    // mutated step; it can only move forward.
    const Value* topo = gauges->find("sim.topology_version");
    if (topo != nullptr) {
      if (topo->kind != Value::Kind::kNumber || topo->number < 0.0) {
        throw std::runtime_error("sim.topology_version is not a counter");
      }
      if (last_topology_version && topo->number < *last_topology_version) {
        throw std::runtime_error("sim.topology_version decreased");
      }
      last_topology_version = topo->number;
    }

    if (strict_bounds) {
      for (const char* gauge :
           {"sim.bound_slack_growth", "sim.bound_slack_state"}) {
        const Value* v = gauges->find(gauge);
        if (v == nullptr || v->kind != Value::Kind::kNumber) {
          throw std::runtime_error(std::string(gauge) + " missing");
        }
        if (v->number < 0.0) {
          throw std::runtime_error(std::string(gauge) + " is negative (" +
                                   std::to_string(v->number) + ")");
        }
      }
    }
    ++snapshots;
  }

  void check_event(const Value& obj) {
    const double seq = number(obj, "seq", "event");
    if (last_event_seq && seq < *last_event_seq) {
      throw std::runtime_error("event seq decreased");
    }
    last_event_seq = seq;
    const double t = number(obj, "t", "event");
    const std::string& kind =
        require(obj, "kind", Value::Kind::kString, "event")->string;
    if (kind == "governor_mode") {
      // Mode transitions are emitted at most once per step, so equal (or
      // backwards) step stamps mean a corrupt or interleaved stream.
      if (last_governor_mode_t && t <= *last_governor_mode_t) {
        throw std::runtime_error("governor_mode event t not increasing");
      }
      last_governor_mode_t = t;
    } else if (kind == "edge_down" || kind == "edge_up") {
      // Edge churn carries the endpoints of the flipped edge.
      (void)number(obj, "a", kind.c_str());
      (void)number(obj, "b", kind.c_str());
      ++churn_events;
    } else if (kind == "node_leave") {
      (void)number(obj, "a", "node_leave");
      const Value* value = obj.find("value");
      if (value != nullptr &&
          (value->kind != Value::Kind::kNumber || value->number < 0.0)) {
        throw std::runtime_error("node_leave wiped-queue value is negative");
      }
      ++churn_events;
    } else if (kind == "node_join" || kind == "rate_change") {
      (void)number(obj, "a", kind.c_str());
      ++churn_events;
    }
    ++events;
  }

  void check_hotspots(const Value& obj, bool followed_snapshot) {
    if (!followed_snapshot) {
      throw std::runtime_error(
          "hotspots line does not immediately follow a snapshot");
    }
    if (number(obj, "seq", "hotspots") != last_snapshot_seq) {
      throw std::runtime_error("hotspots seq != its snapshot seq");
    }
    if (number(obj, "t", "hotspots") != last_snapshot_t) {
      throw std::runtime_error("hotspots t != its snapshot t");
    }
    const double k = number(obj, "k", "hotspots");
    if (k < 1.0) throw std::runtime_error("hotspots k < 1");
    const char* const lists[2] = {"drift", "queue"};
    const char* const totals[2] = {"drift_total", "queue_total"};
    for (int i = 0; i < 2; ++i) {
      const double total = number(obj, totals[i], "hotspots");
      if (total < 0.0) {
        throw std::runtime_error(std::string("hotspots ") + totals[i] +
                                 " is negative");
      }
      // The sketches only ever add weight.
      if (last_hotspot_total[i] && total < *last_hotspot_total[i]) {
        throw std::runtime_error(std::string("hotspots ") + totals[i] +
                                 " decreased");
      }
      last_hotspot_total[i] = total;
      check_topk(*require(obj, lists[i], Value::Kind::kArray, "hotspots"),
                 lists[i], k, total);
    }
    ++hotspot_lines;
  }

  /// One Space-Saving top-K report: at most k entries, each with a node id
  /// below the header's n, a weight, and an overestimation bound err <= w
  /// (so the true weight w - err is non-negative), sorted by weight
  /// descending with ties broken by ascending node id.  Every update adds
  /// its weight to exactly one counter, so the weights sum to `total`;
  /// below 2^53 every partial sum is an exact double.
  void check_topk(const Value& entries, const char* list, double k,
                  double total) const {
    const auto fail = [list](const char* what) {
      throw std::runtime_error(std::string("hotspots ") + list + what);
    };
    if (static_cast<double>(entries.array.size()) > k) {
      fail(" has more than k entries");
    }
    std::optional<std::pair<double, double>> last;  // (w, v)
    double weight_sum = 0.0;
    for (const ValuePtr& entry : entries.array) {
      if (entry->kind != Value::Kind::kObject) fail(" entry is not an object");
      const double v = number(*entry, "v", list);
      const double w = number(*entry, "w", list);
      const double err = number(*entry, "err", list);
      if (v < 0.0) fail(" node id is negative");
      if (v >= header_n) fail(" node id is not below the header's n");
      if (w < 0.0 || err < 0.0 || err > w) {
        fail(" entry violates 0 <= err <= w");
      }
      if (last &&
          (w > last->first || (w == last->first && v <= last->second))) {
        fail(" not in report order");
      }
      last.emplace(w, v);
      weight_sum += w;
    }
    constexpr double kExactBelow = 9007199254740992.0;  // 2^53
    if (total < kExactBelow && weight_sum != total) {
      fail(" weights do not sum to the total");
    }
  }
};

int cmd_telemetry(const std::string& path, bool strict_bounds, bool resumed) {
  std::istringstream in(load(path));
  TelemetryChecker checker;
  checker.strict_bounds = strict_bounds;
  checker.resumed = resumed;
  std::string line;
  std::size_t line_no = 0;
  std::size_t complete_lines = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) {
      ++complete_lines;
      continue;
    }
    ValuePtr value;
    try {
      value = Parser(line).parse();
    } catch (const std::exception& e) {
      // A writer killed mid-line (crash, SIGKILL, full disk) leaves one
      // partial trailing line.  Tolerate exactly that: a parse failure on
      // the stream's final line, after at least one complete line.
      // Semantic (checker) failures and any non-final garbage still fail.
      const bool is_last = in.peek() == EOF;
      if (is_last && complete_lines > 0) {
        std::fprintf(stderr,
                     "warning: truncated trailing line %zu ignored (%s)\n",
                     line_no, e.what());
        break;
      }
      if (resumed && complete_lines > 0) {
        // Segment boundary of a crashed-and-resumed stream: the killed
        // writer's partial line.  The next line must be a matching header
        // (enforced by the checker) or the stream still fails.
        std::fprintf(
            stderr,
            "warning: truncated line %zu at resume boundary ignored (%s)\n",
            line_no, e.what());
        checker.expect_header = true;
        checker.last_was_snapshot = false;
        continue;
      }
      std::fprintf(stderr, "line %zu: INVALID: %s\n", line_no, e.what());
      return 1;
    }
    try {
      checker.check_line(*value, line_no);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "line %zu: INVALID: %s\n", line_no, e.what());
      return 1;
    }
    ++complete_lines;
  }
  if (complete_lines == 0) {
    std::fprintf(stderr, "error: empty stream\n");
    return 1;
  }
  std::printf(
      "valid: %zu lines (%zu snapshots, %zu events [%zu churn], "
      "%zu hotspots, %zu summaries)\n",
      complete_lines, checker.snapshots, checker.events,
      checker.churn_events, checker.hotspot_lines, checker.summaries);
  return 0;
}

// ------------------------------------------------------------------- traces

struct SpanRow {
  std::string name;  ///< phase name
  double dur = 0.0;  ///< microseconds
  bool sharded = false;
};

struct Trace {
  ValuePtr root;
  std::vector<SpanRow> spans;
};

/// Parses one trace file, validating every event.
Trace load_trace(const std::string& path) {
  const std::string text = load(path);
  if (text.empty()) throw std::runtime_error(path + " is empty");

  Trace trace{Parser(text).parse(), {}};
  const Value& root = *trace.root;
  if (root.kind != Value::Kind::kObject) {
    throw std::runtime_error("top level is not a JSON object");
  }
  const Value* events =
      require(root, "traceEvents", Value::Kind::kArray, "trace");

  trace.spans.reserve(events->array.size());
  std::size_t i = 0;
  for (const ValuePtr& ev : events->array) {
    ++i;
    const std::string where = "event " + std::to_string(i);
    if (ev->kind != Value::Kind::kObject) {
      throw std::runtime_error(where + " is not an object");
    }
    SpanRow row;
    row.name =
        require(*ev, "name", Value::Kind::kString, where.c_str())->string;
    if (row.name.empty()) {
      throw std::runtime_error(where + " has an empty name");
    }
    const Value* ph =
        require(*ev, "ph", Value::Kind::kString, where.c_str());
    if (ph->string != "X") {
      throw std::runtime_error(where + " ph is not \"X\" (complete event)");
    }
    const double ts = number(*ev, "ts", where.c_str());
    row.dur = number(*ev, "dur", where.c_str());
    if (ts < 0.0 || row.dur < 0.0) {
      throw std::runtime_error(where + " has a negative ts or dur");
    }
    (void)number(*ev, "pid", where.c_str());
    (void)number(*ev, "tid", where.c_str());
    const Value* args =
        require(*ev, "args", Value::Kind::kObject, where.c_str());
    (void)number(*args, "step", where.c_str());
    const Value* shard = args->find("shard");
    if (shard != nullptr) {
      if (shard->kind != Value::Kind::kNumber || shard->number < 0.0) {
        throw std::runtime_error(where +
                                 " args.shard is not a non-negative number");
      }
      row.sharded = true;
    }
    trace.spans.push_back(std::move(row));
  }

  // Cross-check the exporter's own span count when it recorded one.
  const Value* other = root.find("otherData");
  if (other != nullptr && other->kind == Value::Kind::kObject) {
    const Value* spans = other->find("spans");
    if (spans != nullptr && spans->kind == Value::Kind::kNumber &&
        spans->number != static_cast<double>(trace.spans.size())) {
      throw std::runtime_error(
          "otherData.spans does not match traceEvents length");
    }
  }
  return trace;
}

struct PhaseStat {
  std::size_t count = 0;
  double total = 0.0;

  void add(double dur) {
    ++count;
    total += dur;
  }
  [[nodiscard]] double mean() const {
    return count > 0 ? total / static_cast<double>(count) : 0.0;
  }
};

struct PhaseSplit {
  PhaseStat serial;
  PhaseStat sharded;
};

std::map<std::string, PhaseSplit> by_phase(const std::vector<SpanRow>& rows) {
  std::map<std::string, PhaseSplit> out;
  for (const SpanRow& row : rows) {
    PhaseSplit& split = out[row.name];
    (row.sharded ? split.sharded : split.serial).add(row.dur);
  }
  return out;
}

int cmd_trace(const std::string& path) {
  const std::vector<SpanRow> rows = load_trace(path).spans;
  std::size_t sharded = 0;
  for (const SpanRow& row : rows) sharded += row.sharded ? 1 : 0;
  std::printf("valid: %zu spans (%zu serial, %zu sharded)\n", rows.size(),
              rows.size() - sharded, sharded);
  return 0;
}

/// The whole-run table from otherData.profile (StepProfiler::json()).
void print_profile(const Value& profile) {
  const double steps = number(profile, "steps", "profile");
  const double total = number(profile, "total_nanos", "profile");
  const double per_sec = number(profile, "steps_per_second", "profile");
  const double divisor = steps > 0.0 ? steps : 1.0;
  std::printf("| %-11s | %9s | %7s | %9s | %10s | %10s |\n", "phase",
              "time ms", "share %", "ns/step", "items", "items/step");
  std::printf("|-------------|-----------|---------|-----------|------------|"
              "------------|\n");
  for (const ValuePtr& phase :
       require(profile, "phases", Value::Kind::kArray, "profile")->array) {
    const std::string& name =
        require(*phase, "name", Value::Kind::kString, "profile phase")
            ->string;
    const double nanos = number(*phase, "nanos", "profile phase");
    const double items = number(*phase, "items", "profile phase");
    std::printf("| %-11s | %9.4f | %7.2f | %9.1f | %10.0f | %10.3f |\n",
                name.c_str(), nanos * 1e-6,
                total > 0.0 ? 100.0 * nanos / total : 0.0, nanos / divisor,
                items, items / divisor);
  }
  std::printf("steps=%.0f profiled_ms=%g steps/sec=%g\n\n", steps,
              total * 1e-6, per_sec);
}

int cmd_stats(const std::string& path) {
  const Trace trace = load_trace(path);
  const Value* other = trace.root->find("otherData");
  const Value* profile = other != nullptr ? other->find("profile") : nullptr;
  if (profile != nullptr) {
    std::printf("whole run:\n");
    print_profile(*profile);
  }
  std::printf("span window:\n");
  std::printf("%-14s %22s %22s %6s\n", "phase",
              "serial n/total/mean us", "shard n/total/mean us", "par");
  for (const auto& [name, split] : by_phase(trace.spans)) {
    // Parallelism ratio: total shard-lane busy time over the serial lane's
    // wall time for the same phase.  With one worker thread this sits
    // near 1; with k threads overlapping it approaches k.
    const double par =
        split.serial.total > 0.0 ? split.sharded.total / split.serial.total
                                 : 0.0;
    std::printf("%-14s %6zu/%9.0f/%5.1f %6zu/%9.0f/%5.1f %6.2f\n",
                name.c_str(), split.serial.count, split.serial.total,
                split.serial.mean(), split.sharded.count,
                split.sharded.total, split.sharded.mean(), par);
  }
  return 0;
}

int cmd_diff(const std::string& path_a, const std::string& path_b) {
  const auto phases_a = by_phase(load_trace(path_a).spans);
  const auto phases_b = by_phase(load_trace(path_b).spans);
  std::printf("%-14s %14s %14s %12s %8s\n", "phase", "A total us",
              "B total us", "delta us", "delta%");
  // Walk the union of phase names so a phase present in only one trace
  // still shows up (with the other side at zero).
  std::vector<std::string> names;
  for (const auto& [name, split] : phases_a) names.push_back(name);
  for (const auto& [name, split] : phases_b) {
    if (phases_a.find(name) == phases_a.end()) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    const auto serial_total = [&name](const auto& phases) {
      const auto it = phases.find(name);
      return it != phases.end() ? it->second.serial.total : 0.0;
    };
    const double a = serial_total(phases_a);
    const double b = serial_total(phases_b);
    const double pct = a > 0.0 ? 100.0 * (b - a) / a : 0.0;
    std::printf("%-14s %14.0f %14.0f %+12.0f %+7.1f%%\n", name.c_str(), a,
                b, b - a, pct);
  }
  return 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s telemetry [--strict-bounds] [--resumed] [FILE]\n"
               "       %s trace FILE\n"
               "       %s stats FILE\n"
               "       %s diff A B\n"
               "telemetry validates a JSONL stream (stdin without FILE), "
               "trace a --trace-out file;\nstats prints a trace's phase "
               "table, diff compares two traces' serial phase totals.\n",
               argv0, argv0, argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string cmd = argv[1];
  try {
    if (cmd == "telemetry") {
      bool strict_bounds = false;
      bool resumed = false;
      std::string path;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--strict-bounds") {
          strict_bounds = true;
        } else if (arg == "--resumed") {
          resumed = true;
        } else if (arg.empty() || arg[0] == '-' || !path.empty()) {
          return usage(argv[0]);
        } else {
          path = arg;
        }
      }
      return cmd_telemetry(path, strict_bounds, resumed);
    }
    if (cmd == "trace" && argc == 3) return cmd_trace(argv[2]);
    if (cmd == "stats" && argc == 3) return cmd_stats(argv[2]);
    if (cmd == "diff" && argc == 4) return cmd_diff(argv[2], argv[3]);
  } catch (const IoError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "INVALID: %s\n", e.what());
    return 1;
  }
  return usage(argv[0]);
}
