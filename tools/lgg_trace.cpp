// lgg_trace — validator and analyzer for Chrome trace-event files written
// by `lgg_sim --trace-out` (core::StepProfiler::write_chrome_trace).
//
// Subcommands:
//
//   check FILE   Validate the trace schema: a top-level object with a
//                "traceEvents" array whose entries are complete duration
//                events (non-empty string name, ph == "X", numeric ts/dur
//                >= 0, numeric pid/tid, args.step a number; args.shard,
//                when present, a non-negative number).  When the file
//                carries otherData.spans, the event count must match it —
//                a cheap end-to-end completeness check on the export path.
//
//   stats FILE   Per-phase timing summary: span count, total/mean/max
//                duration, split into the serial lane (no args.shard) and
//                shard-worker lanes, plus the per-phase parallelism ratio
//                (shard-lane time over serial-lane wall time — >1 means
//                the workers overlapped).
//
//   diff A B     Per-phase serial-lane totals for two traces side by side
//                with absolute and relative deltas — the "where did the
//                time go" view for before/after benchmarking.
//
// Exit codes: 0 = valid, 1 = validation failure, 2 = usage or I/O error.
//
// Built on tools/mini_json.hpp — deliberately independent of the obs
// library that produced the file.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "mini_json.hpp"

namespace {

using minijson::Parser;
using minijson::require;
using minijson::require_present;
using minijson::Value;
using minijson::ValuePtr;

/// Distinguishes "could not read the file" (exit 2) from "the file is not
/// a valid trace" (exit 1).
struct IoError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct SpanRow {
  std::string name;  ///< phase name
  double dur = 0.0;  ///< microseconds
  bool sharded = false;
};

/// Parses one trace file, validating every event, and returns the spans.
std::vector<SpanRow> load_trace(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    throw IoError("cannot open " + path);
  }
  std::ostringstream buf;
  buf << file.rdbuf();
  const std::string text = buf.str();
  if (text.empty()) throw std::runtime_error(path + " is empty");

  Parser parser(text);
  const ValuePtr root = parser.parse();
  if (root->kind != Value::Kind::kObject) {
    throw std::runtime_error("top level is not a JSON object");
  }
  const Value* events =
      require(*root, "traceEvents", Value::Kind::kArray, "trace");

  std::vector<SpanRow> rows;
  rows.reserve(events->array.size());
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
    const double ts =
        require(*ev, "ts", Value::Kind::kNumber, where.c_str())->number;
    row.dur =
        require(*ev, "dur", Value::Kind::kNumber, where.c_str())->number;
    if (ts < 0.0 || row.dur < 0.0) {
      throw std::runtime_error(where + " has a negative ts or dur");
    }
    require_present(*ev, "pid", Value::Kind::kNumber, where.c_str());
    require_present(*ev, "tid", Value::Kind::kNumber, where.c_str());
    const Value* args =
        require(*ev, "args", Value::Kind::kObject, where.c_str());
    require_present(*args, "step", Value::Kind::kNumber, where.c_str());
    const Value* shard = args->find("shard");
    if (shard != nullptr) {
      if (shard->kind != Value::Kind::kNumber || shard->number < 0.0) {
        throw std::runtime_error(where +
                                 " args.shard is not a non-negative number");
      }
      row.sharded = true;
    }
    rows.push_back(std::move(row));
  }

  // Cross-check the exporter's own span count when it recorded one.
  const Value* other = root->find("otherData");
  if (other != nullptr && other->kind == Value::Kind::kObject) {
    const Value* spans = other->find("spans");
    if (spans != nullptr && spans->kind == Value::Kind::kNumber &&
        spans->number != static_cast<double>(rows.size())) {
      throw std::runtime_error(
          "otherData.spans does not match traceEvents length");
    }
  }
  return rows;
}

struct PhaseStat {
  std::size_t count = 0;
  double total = 0.0;
  double max = 0.0;

  void add(double dur) {
    ++count;
    total += dur;
    max = std::max(max, dur);
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

int cmd_check(const std::string& path) {
  const std::vector<SpanRow> rows = load_trace(path);
  std::size_t sharded = 0;
  for (const SpanRow& row : rows) sharded += row.sharded ? 1 : 0;
  std::printf("valid: %zu spans (%zu serial, %zu sharded)\n", rows.size(),
              rows.size() - sharded, sharded);
  return 0;
}

int cmd_stats(const std::string& path) {
  const std::vector<SpanRow> rows = load_trace(path);
  const auto phases = by_phase(rows);
  std::printf("%-14s %22s %22s %6s\n", "phase",
              "serial n/total/mean us", "shard n/total/mean us", "par");
  for (const auto& [name, split] : phases) {
    const auto mean = [](const PhaseStat& s) {
      return s.count > 0 ? s.total / static_cast<double>(s.count) : 0.0;
    };
    // Parallelism ratio: total shard-lane busy time over the serial lane's
    // wall time for the same phase.  With one worker thread this sits
    // near 1; with k threads overlapping it approaches k.
    const double par =
        split.serial.total > 0.0 ? split.sharded.total / split.serial.total
                                 : 0.0;
    std::printf("%-14s %6zu/%9.0f/%5.1f %6zu/%9.0f/%5.1f %6.2f\n",
                name.c_str(), split.serial.count, split.serial.total,
                mean(split.serial), split.sharded.count, split.sharded.total,
                mean(split.sharded), par);
  }
  return 0;
}

int cmd_diff(const std::string& path_a, const std::string& path_b) {
  const auto phases_a = by_phase(load_trace(path_a));
  const auto phases_b = by_phase(load_trace(path_b));
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
               "usage: %s check FILE   validate a --trace-out file\n"
               "       %s stats FILE   per-phase timing summary\n"
               "       %s diff A B     per-phase serial-total comparison\n",
               argv0, argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string cmd = argv[1];
  try {
    if (cmd == "check" && argc == 3) return cmd_check(argv[2]);
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
