// Minimal deterministic JSON emission for the telemetry layer.
//
// Every machine-readable artifact the repo emits (telemetry JSONL
// snapshots, flight-recorder dumps, core::StepProfiler's json() and
// Chrome trace, BENCH_perf_core.json) is built on this one writer so the
// escaping, number formatting, and nesting rules are identical everywhere:
//
//   * strings are escaped per RFC 8259 (control characters as \u00XX);
//     well-formed UTF-8 passes through verbatim, and every invalid
//     non-ASCII byte (truncated/overlong sequence, stray continuation,
//     surrogate) is replaced with U+FFFD — so the output is always valid
//     JSON in valid UTF-8 even for hostile labels;
//   * doubles are printed via std::to_chars — the shortest
//     round-trippable form, byte-stable across runs (a prerequisite for
//     the checkpoint/resume byte-identical-telemetry guarantee);
//   * non-finite doubles become null (JSON has no NaN/Inf);
//   * keys appear in emission order — callers own determinism of order.
//
// The writer is a plain state machine over a std::string buffer; no
// allocation beyond the buffer, no iostreams in the hot path.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lgg::obs {

/// Appends `text` to `out` as a quoted, escaped JSON string.
void append_json_string(std::string& out, std::string_view text);

/// Appends the shortest round-trippable decimal form of `value`
/// (std::to_chars); NaN and infinities become `null`.
void append_json_double(std::string& out, double value);

class JsonWriter {
 public:
  JsonWriter() { stack_.reserve(8); }

  /// Containers.  `key` variants are only legal directly inside an
  /// object; keyless variants only inside an array or at the top level.
  void begin_object();
  void begin_object(std::string_view key);
  void end_object();
  void begin_array();
  void begin_array(std::string_view key);
  void end_array();

  // Scalar members (inside an object).
  void field(std::string_view key, std::string_view value);
  void field(std::string_view key, const char* value) {
    field(key, std::string_view(value));
  }
  void field(std::string_view key, double value);
  void field(std::string_view key, std::int64_t value);
  void field(std::string_view key, std::uint64_t value);
  void field(std::string_view key, bool value);
  /// Splices pre-rendered JSON (e.g. a nested document) as the value.
  void raw_field(std::string_view key, std::string_view json);

  // Scalar elements (inside an array).
  void value(std::string_view v);
  void value(double v);
  void value(std::int64_t v);
  void value(std::uint64_t v);

  /// The document so far.  Valid JSON once every container is closed.
  [[nodiscard]] const std::string& str() const { return out_; }
  [[nodiscard]] std::string take() { return std::move(out_); }
  void clear() {
    out_.clear();
    stack_.clear();
    pending_comma_ = false;
  }

 private:
  void key_prefix(std::string_view key);

  std::string out_;
  std::vector<char> stack_;  // '{' or '['
  bool pending_comma_ = false;
};

}  // namespace lgg::obs
