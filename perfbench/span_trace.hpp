// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own wrappers around calls into
// liblgg (Simulator::step, ArrivalProcess, AdmissionController,
// TelemetrySink::write_line, CheckpointChain::append) — nothing inside the
// library is instrumented.  Each span carries the simulation step it belongs
// to and the index of the span that caused it (the innermost span open on the
// recording thread, or the open step span for calls made from the shard
// engine's worker threads).  Spans stay in memory until write_chrome_trace.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace lgg::perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

class SpanTrace {
 public:
  struct Span {
    std::string_view name;  ///< "layer.call" — points at a string literal
    std::int64_t step = -1;
    std::int32_t parent = -1;  ///< index into spans(), -1 for a root
    std::uint32_t tid = 0;     ///< 0 = the benchmark's main thread
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Spans beyond `capacity` are counted as dropped, not stored.
  explicit SpanTrace(std::size_t capacity);

  /// Opens a span; `name` must outlive the trace (use literals).  Returns
  /// a handle for end(), or -1 when the span was dropped.
  std::int32_t begin(std::string_view name, std::int64_t step);
  void end(std::int32_t handle);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Self time per layer (the name's prefix before the first '.'): a
  /// span's duration minus the part of its interval covered by the union
  /// of its children's intervals.
  [[nodiscard]] std::map<std::string, std::int64_t> self_ns_by_layer() const;

  /// Chrome trace-event JSON (docs/formats.md): one complete ("ph":"X")
  /// event per span, ts/dur in microseconds, args {step, parent}.
  void write_chrome_trace(std::ostream& os) const;

 private:
  std::size_t capacity_;
  std::thread::id owner_;
  std::mutex mu_;  // guards spans_, dropped_, tids_ (workers record too)
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
  std::vector<std::thread::id> tids_;
  std::vector<std::int32_t> stack_;  // open spans of the owner thread
};

/// RAII span; a null trace records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanTrace* trace, std::string_view name, std::int64_t step)
      : trace_(trace), handle_(trace ? trace->begin(name, step) : -1) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->end(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTrace* trace_;
  std::int32_t handle_;
};

}  // namespace lgg::perfbench
