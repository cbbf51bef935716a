// lgg_telemetry_check — schema validator for telemetry JSONL streams.
//
// Reads a stream produced by `lgg_sim --telemetry` (or the obs::Telemetry
// API) from a file or stdin and verifies, line by line:
//
//   * every line is one complete JSON object with a string "type";
//   * a "header" line, when present, is the first line, with schema >= 1;
//   * "snapshot" lines come after a header, their seq values are
//     consecutive, their t values strictly increase, and the drift
//     decomposition is internally consistent: the per-cause contributions
//     sum to drift.dP, the per-node contributions sum to drift.dP, and
//     each per-node entry's cause fields sum to its own dP;
//   * "event" lines carry t and kind, with seq values non-decreasing;
//     "governor_mode" events additionally have strictly increasing t
//     (the governor emits at most one mode transition per step);
//   * "hotspots" lines (emitted when hotspot analytics are enabled)
//     immediately follow their snapshot with the same seq and t, carry
//     k >= 1 and non-negative drift_total/queue_total, and their "drift"
//     and "queue" top-K arrays have at most k entries with v >= 0,
//     0 <= err <= w, and weights in non-increasing order (ties broken by
//     ascending v) — the Space-Saving report order;
//   * churn events follow the topology-mutation schema: "edge_down" and
//     "edge_up" carry both endpoints a and b; "node_leave", "node_join"
//     and "rate_change" carry the node in a; a "node_leave" value (the
//     wiped queue) is non-negative;
//   * the sim.topology_version gauge, when present, is a non-negative
//     monotone non-decreasing counter across snapshots;
//   * snapshots carrying any "governor.*" gauge carry the full governor
//     gauge set (multiplier in [0, 1], drift_estimate, mode in {0, 1, 2},
//     time_in_mode >= 0);
//   * "summary" lines carry t and P.
//
// With --strict-bounds, every snapshot's sim.bound_slack_growth and
// sim.bound_slack_state gauges must also be non-negative — the live form
// of the Lemma 1 acceptance check for unsaturated runs.
//
// With --resumed, the stream may be the concatenation of segments from a
// crashed-and-resumed run (docs/reproducing.md "Surviving a crash"):
//
//   * one truncated (killed mid-write) line is tolerated at each segment
//     boundary, provided the very next line is a header;
//   * header lines may recur past line 1, but every later header must
//     carry the same schema and n as the first;
//   * all cross-line invariants still hold *globally*: snapshot seq stays
//     consecutive and t strictly increasing across the boundary — a resume
//     that duplicated or skipped work fails the check.
//
// Exit codes: 0 = valid, 1 = validation failure, 2 = usage or I/O error.
//
// The JSON parser (tools/mini_json.hpp) is deliberately minimal (objects,
// arrays, strings, numbers, booleans, null; numbers as double).  Integer
// fields up to 2^53 round-trip exactly through double, far beyond any
// bounded run's counters.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "mini_json.hpp"

namespace {

using minijson::Parser;
using minijson::require;
using minijson::require_present;
using minijson::Value;
using minijson::ValuePtr;

struct Checker {
  bool strict_bounds = false;
  bool resumed = false;
  /// Set by the driver after a tolerated truncated line: the next complete
  /// line must be a (matching) header or the stream is rejected.
  bool expect_header = false;
  double header_schema = 0.0;
  double header_n = 0.0;
  bool seen_header = false;
  bool have_snapshot_seq = false;
  double last_snapshot_seq = 0.0;
  bool have_snapshot_t = false;
  double last_snapshot_t = 0.0;
  bool have_event_seq = false;
  double last_event_seq = 0.0;
  bool have_governor_mode_t = false;
  double last_governor_mode_t = 0.0;
  bool have_topology_version = false;
  double last_topology_version = 0.0;
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
      const double schema =
          require(obj, "schema", Value::Kind::kNumber, "header")->number;
      if (schema < 1.0) throw std::runtime_error("header schema < 1");
      const double n =
          require(obj, "n", Value::Kind::kNumber, "header")->number;
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
      require_present(obj, "t", Value::Kind::kNumber, "summary");
      require_present(obj, "P", Value::Kind::kNumber, "summary");
      ++summaries;
    } else {
      throw std::runtime_error("unknown type \"" + type->string + "\"");
    }
  }

  void check_snapshot(const Value& obj) {
    if (!seen_header) throw std::runtime_error("snapshot before header");
    const double seq =
        require(obj, "seq", Value::Kind::kNumber, "snapshot")->number;
    if (have_snapshot_seq && seq != last_snapshot_seq + 1.0) {
      throw std::runtime_error("snapshot seq not consecutive");
    }
    last_snapshot_seq = seq;
    have_snapshot_seq = true;
    const double t =
        require(obj, "t", Value::Kind::kNumber, "snapshot")->number;
    if (have_snapshot_t && t <= last_snapshot_t) {
      throw std::runtime_error("snapshot t not increasing");
    }
    last_snapshot_t = t;
    have_snapshot_t = true;
    require_present(obj, "P", Value::Kind::kNumber, "snapshot");
    const double dp =
        require(obj, "dP", Value::Kind::kNumber, "snapshot")->number;
    require_present(obj, "counters", Value::Kind::kObject, "snapshot");
    const Value* gauges =
        require(obj, "gauges", Value::Kind::kObject, "snapshot");
    require_present(obj, "histograms", Value::Kind::kObject, "snapshot");

    const Value* drift =
        require(obj, "drift", Value::Kind::kObject, "snapshot");
    const double drift_dp =
        require(*drift, "dP", Value::Kind::kNumber, "drift")->number;
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
      const double v =
          require(*entry, "v", Value::Kind::kNumber, "per_node")->number;
      if (v <= last_node) {
        throw std::runtime_error("per_node not sorted by node id");
      }
      last_node = v;
      const double node_dp =
          require(*entry, "dP", Value::Kind::kNumber, "per_node")->number;
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
    bool any_governor = false;
    for (const auto& [name, v] : gauges->object) {
      (void)v;
      if (name.rfind("governor.", 0) == 0) {
        any_governor = true;
        break;
      }
    }
    if (any_governor) {
      const double multiplier =
          require(*gauges, "governor.multiplier", Value::Kind::kNumber,
                  "governor gauges")
              ->number;
      if (multiplier < 0.0 || multiplier > 1.0) {
        throw std::runtime_error("governor.multiplier outside [0, 1]");
      }
      require_present(*gauges, "governor.drift_estimate",
                      Value::Kind::kNumber, "governor gauges");
      const double mode =
          require(*gauges, "governor.mode", Value::Kind::kNumber,
                  "governor gauges")
              ->number;
      if (mode != 0.0 && mode != 1.0 && mode != 2.0) {
        throw std::runtime_error("governor.mode is not a SaturationMode");
      }
      const double time_in_mode =
          require(*gauges, "governor.time_in_mode", Value::Kind::kNumber,
                  "governor gauges")
              ->number;
      if (time_in_mode < 0.0) {
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
      if (have_topology_version && topo->number < last_topology_version) {
        throw std::runtime_error("sim.topology_version decreased");
      }
      last_topology_version = topo->number;
      have_topology_version = true;
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
    const double seq =
        require(obj, "seq", Value::Kind::kNumber, "event")->number;
    if (have_event_seq && seq < last_event_seq) {
      throw std::runtime_error("event seq decreased");
    }
    last_event_seq = seq;
    have_event_seq = true;
    const double t = require(obj, "t", Value::Kind::kNumber, "event")->number;
    const Value* kind = require(obj, "kind", Value::Kind::kString, "event");
    if (kind->string == "governor_mode") {
      // Mode transitions are emitted at most once per step, so equal (or
      // backwards) step stamps mean a corrupt or interleaved stream.
      if (have_governor_mode_t && t <= last_governor_mode_t) {
        throw std::runtime_error("governor_mode event t not increasing");
      }
      last_governor_mode_t = t;
      have_governor_mode_t = true;
    } else if (kind->string == "edge_down" || kind->string == "edge_up") {
      // Edge churn carries the endpoints of the flipped edge.
      require_present(obj, "a", Value::Kind::kNumber, kind->string.c_str());
      require_present(obj, "b", Value::Kind::kNumber, kind->string.c_str());
      ++churn_events;
    } else if (kind->string == "node_leave") {
      require_present(obj, "a", Value::Kind::kNumber, "node_leave");
      const Value* value = obj.find("value");
      if (value != nullptr &&
          (value->kind != Value::Kind::kNumber || value->number < 0.0)) {
        throw std::runtime_error("node_leave wiped-queue value is negative");
      }
      ++churn_events;
    } else if (kind->string == "node_join" ||
               kind->string == "rate_change") {
      require_present(obj, "a", Value::Kind::kNumber, kind->string.c_str());
      ++churn_events;
    }
    ++events;
  }

  void check_hotspots(const Value& obj, bool followed_snapshot) {
    if (!followed_snapshot) {
      throw std::runtime_error(
          "hotspots line does not immediately follow a snapshot");
    }
    const double seq =
        require(obj, "seq", Value::Kind::kNumber, "hotspots")->number;
    if (seq != last_snapshot_seq) {
      throw std::runtime_error("hotspots seq != its snapshot seq");
    }
    const double t =
        require(obj, "t", Value::Kind::kNumber, "hotspots")->number;
    if (t != last_snapshot_t) {
      throw std::runtime_error("hotspots t != its snapshot t");
    }
    const double k =
        require(obj, "k", Value::Kind::kNumber, "hotspots")->number;
    if (k < 1.0) throw std::runtime_error("hotspots k < 1");
    for (const char* total : {"drift_total", "queue_total"}) {
      if (require(obj, total, Value::Kind::kNumber, "hotspots")->number <
          0.0) {
        throw std::runtime_error(std::string("hotspots ") + total +
                                 " is negative");
      }
    }
    for (const char* list : {"drift", "queue"}) {
      check_topk(*require(obj, list, Value::Kind::kArray, "hotspots"), list,
                 k);
    }
    ++hotspot_lines;
  }

  /// One Space-Saving top-K report: at most k entries, each with a node id,
  /// a weight, and an overestimation bound err <= w (so the true weight
  /// w - err is non-negative), sorted by weight descending with ties broken
  /// by ascending node id.
  void check_topk(const Value& entries, const char* list, double k) {
    if (static_cast<double>(entries.array.size()) > k) {
      throw std::runtime_error(std::string("hotspots ") + list +
                               " has more than k entries");
    }
    double last_w = -1.0;
    double last_v = -1.0;
    bool first = true;
    for (const ValuePtr& entry : entries.array) {
      if (entry->kind != Value::Kind::kObject) {
        throw std::runtime_error(std::string("hotspots ") + list +
                                 " entry is not an object");
      }
      const double v =
          require(*entry, "v", Value::Kind::kNumber, list)->number;
      const double w =
          require(*entry, "w", Value::Kind::kNumber, list)->number;
      const double err =
          require(*entry, "err", Value::Kind::kNumber, list)->number;
      if (v < 0.0) {
        throw std::runtime_error(std::string("hotspots ") + list +
                                 " node id is negative");
      }
      if (w < 0.0 || err < 0.0 || err > w) {
        throw std::runtime_error(std::string("hotspots ") + list +
                                 " entry violates 0 <= err <= w");
      }
      if (!first && (w > last_w || (w == last_w && v <= last_v))) {
        throw std::runtime_error(std::string("hotspots ") + list +
                                 " not in report order");
      }
      first = false;
      last_w = w;
      last_v = v;
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  bool strict_bounds = false;
  bool resumed = false;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--strict-bounds") {
      strict_bounds = true;
    } else if (arg == "--resumed") {
      resumed = true;
    } else if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr,
                   "usage: %s [--strict-bounds] [--resumed] "
                   "[telemetry.jsonl]\n",
                   argv[0]);
      return 2;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return 2;
    } else {
      path = arg;
    }
  }

  std::ifstream file;
  if (!path.empty()) {
    file.open(path);
    if (!file) {
      std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
      return 2;
    }
  }
  std::istream& in = path.empty() ? std::cin : file;

  Checker checker;
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
      Parser parser(line);
      value = parser.parse();
    } catch (const std::exception& e) {
      // A writer killed mid-line (crash, SIGKILL, full disk) leaves one
      // partial trailing line.  Tolerate exactly that: a parse failure on
      // the stream's final line, after at least one complete line.
      // Semantic (Checker) failures and any non-final garbage still fail.
      const bool is_last = in.eof() || in.peek() == EOF;
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
