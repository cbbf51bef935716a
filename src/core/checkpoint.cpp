#include "core/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string_view>

#include "common/binio.hpp"
#include "common/failpoint.hpp"
#include "core/simulator.hpp"

namespace lgg::core {

namespace {

/// Payload field order; restore validates each label so a truncated or
/// reordered payload fails with a named field instead of garbage state.
constexpr std::array<std::string_view, 6> kComponentLabels = {
    "protocol", "arrival", "loss", "scheduler", "dynamics", "faults"};

constexpr std::uint64_t kMaxPayload = std::uint64_t{1} << 36;  // 64 GiB

std::string capture(const std::function<void(std::ostream&)>& write) {
  std::ostringstream os(std::ios::binary);
  write(os);
  return os.str();
}

[[noreturn]] void fail(const std::string& what) {
  throw CheckpointError("checkpoint: " + what);
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = ~seed;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

void Simulator::save_checkpoint(std::ostream& os) const {
  std::ostringstream payload_os(std::ios::binary);

  binio::write_i64(payload_os, t_);
  binio::write_u64(payload_os, topology_version_);
  binio::write_i64(payload_os, initial_total_);
  binio::write_i64(payload_os, sum_q_);
  // Σq² is a 128-bit accumulator; split via two 32-bit shifts so the
  // 64-bit fallback build stays well defined.
  binio::write_u64(payload_os, static_cast<std::uint64_t>(sum_sq_));
  binio::write_u64(payload_os,
                   static_cast<std::uint64_t>((sum_sq_ >> 32) >> 32));

  binio::write_u32(payload_os, static_cast<std::uint32_t>(queue_.size()));
  for (const PacketCount q : queue_) binio::write_i64(payload_os, q);

  // The edge-mask slot carries the random-churn bits (1 = not held down
  // by random churn; all ones without it).  Everything else the liveness
  // rule reads is in the faults blob, so restore rebuilds the mask.
  binio::write_u32(payload_os, static_cast<std::uint32_t>(mask_.size()));
  for (EdgeId e = 0; e < mask_.size(); ++e) {
    const bool off = faults_ != nullptr && faults_->edge_random_off(e);
    binio::write_u8(payload_os, off ? 0 : 1);
  }

  // v5: live node specs.  Churn mutates rates mid-run, so the checkpoint
  // carries the current specs rather than trusting the network file.
  binio::write_u32(payload_os, static_cast<std::uint32_t>(net_.node_count()));
  for (NodeId v = 0; v < net_.node_count(); ++v) {
    const NodeSpec& spec = net_.spec(v);
    binio::write_i64(payload_os, spec.in);
    binio::write_i64(payload_os, spec.out);
    binio::write_i64(payload_os, spec.retention);
  }

  binio::write_i64(payload_os, totals_.injected);
  binio::write_i64(payload_os, totals_.proposed);
  binio::write_i64(payload_os, totals_.suppressed);
  binio::write_i64(payload_os, totals_.conflicted);
  binio::write_i64(payload_os, totals_.sent);
  binio::write_i64(payload_os, totals_.lost);
  binio::write_i64(payload_os, totals_.delivered);
  binio::write_i64(payload_os, totals_.extracted);
  binio::write_i64(payload_os, totals_.crash_wiped);
  binio::write_i64(payload_os, totals_.shed);
  binio::write_i64(payload_os, totals_.steps);

  // v4: the master seed pins every remaining draw (draws are addressed by
  // (seed, step, phase, node), never sequenced), so the RNG section is the
  // seed itself.
  binio::write_u64(payload_os, options_.seed);

  const auto component = [&](std::string_view label,
                             const std::string& blob) {
    binio::write_string(payload_os, std::string(label));
    binio::write_string(payload_os, blob);
  };
  component("protocol", capture([&](std::ostream& s) {
              protocol_->save_state(s);
            }));
  component("arrival", capture([&](std::ostream& s) {
              arrival_->save_state(s);
            }));
  component("loss", capture([&](std::ostream& s) { loss_->save_state(s); }));
  component("scheduler", capture([&](std::ostream& s) {
              scheduler_->save_state(s);
            }));
  // The dynamics slot is kept, empty, so the layout stays v9.
  component("dynamics", std::string());
  component("faults", faults_ != nullptr
                          ? capture([&](std::ostream& s) {
                              faults_->save_state(s);
                            })
                          : std::string());
  binio::write_u8(payload_os, faults_ != nullptr ? 1 : 0);

  // v2: optional trailing telemetry section.  Saving it lets a resumed run
  // continue the JSONL stream (sequence numbers, counters, cumulative
  // drift, flight ring) byte-identically.
  binio::write_u8(payload_os, telemetry_ != nullptr ? 1 : 0);
  if (telemetry_ != nullptr) {
    binio::write_string(payload_os, capture([&](std::ostream& s) {
                          telemetry_->save_state(s);
                        }));
  }

  // v3: trailing admission-controller section.  Unlike telemetry this is
  // strict in both directions — admission gating steers the trajectory, so
  // a presence mismatch cannot resume bitwise-identically.
  binio::write_u8(payload_os, admission_ != nullptr ? 1 : 0);
  if (admission_ != nullptr) {
    binio::write_string(payload_os, capture([&](std::ostream& s) {
                          admission_->save_state(s);
                        }));
  }

  const std::string payload = payload_os.str();
  os.write(kCheckpointMagic, sizeof(kCheckpointMagic));
  binio::write_u32(os, kCheckpointVersion);
  binio::write_u64(os, payload.size());
  binio::write_u32(os, crc32(payload.data(), payload.size()));
  binio::write_bytes(os, payload.data(), payload.size());
  if (!os.good()) fail("write failed");
}

void Simulator::restore_checkpoint(std::istream& is) {
  char magic[sizeof(kCheckpointMagic)] = {};
  is.read(magic, sizeof(magic));
  if (is.gcount() != sizeof(magic) ||
      !std::equal(std::begin(magic), std::end(magic), kCheckpointMagic)) {
    fail("bad magic (not a checkpoint file?)");
  }
  std::uint32_t version = 0;
  std::uint64_t size = 0;
  std::uint32_t want_crc = 0;
  try {
    version = binio::read_u32(is);
    size = binio::read_u64(is);
    want_crc = binio::read_u32(is);
  } catch (const std::exception&) {
    // binio's truncated-stream error must surface as a CheckpointError
    // like every other rejection — the fuzz suite holds us to that.
    fail("truncated header");
  }
  if (version != kCheckpointVersion) {
    fail("unsupported version " + std::to_string(version) + " (expected " +
         std::to_string(kCheckpointVersion) + ")");
  }
  if (size > kMaxPayload) fail("implausible payload size");
  // A bit-flipped size field would otherwise drive a multi-GiB allocation
  // below before the truncation check can fire.  When the stream is
  // seekable, bound `size` by the bytes actually present first.
  if (const std::uint64_t left = binio::remaining(is); left < size) {
    fail("truncated payload (" + std::to_string(left) + " of " +
         std::to_string(size) + " bytes)");
  }
  std::string payload(static_cast<std::size_t>(size), '\0');
  is.read(payload.data(), static_cast<std::streamsize>(size));
  if (static_cast<std::uint64_t>(is.gcount()) != size) {
    fail("truncated payload (" + std::to_string(is.gcount()) + " of " +
         std::to_string(size) + " bytes)");
  }
  const std::uint32_t got_crc = crc32(payload.data(), payload.size());
  if (got_crc != want_crc) fail("CRC mismatch (corrupt payload)");

  std::istringstream ps(payload, std::ios::binary);
  try {
    const TimeStep t = binio::read_i64(ps);
    const std::uint64_t topology_version = binio::read_u64(ps);
    const PacketCount initial_total = binio::read_i64(ps);
    const PacketCount want_sum_q = binio::read_i64(ps);
    const std::uint64_t sum_sq_lo = binio::read_u64(ps);
    const std::uint64_t sum_sq_hi = binio::read_u64(ps);

    const std::uint32_t node_count = binio::read_u32(ps);
    if (node_count != queue_.size()) {
      fail("node count mismatch: checkpoint has " +
           std::to_string(node_count) + ", network has " +
           std::to_string(queue_.size()));
    }
    std::vector<PacketCount> queue(node_count);
    for (std::uint32_t v = 0; v < node_count; ++v) {
      queue[v] = binio::read_i64(ps);
      if (queue[v] < 0) fail("negative queue in payload");
    }

    const std::uint32_t edge_count = binio::read_u32(ps);
    if (static_cast<EdgeId>(edge_count) != mask_.size()) {
      fail("edge count mismatch: checkpoint has " +
           std::to_string(edge_count) + ", network has " +
           std::to_string(mask_.size()));
    }
    std::vector<char> active(edge_count);
    const bool random_churn =
        faults_ != nullptr && faults_->schedule().random_churn() != nullptr;
    for (std::uint32_t e = 0; e < edge_count; ++e) {
      active[e] = static_cast<char>(binio::read_u8(ps));
      if (active[e] == 0 && !random_churn) {
        fail("edge " + std::to_string(e) +
             " held down by random churn, but none is installed");
      }
    }

    // v5: live node specs (see save side).
    const std::uint32_t spec_count = binio::read_u32(ps);
    if (spec_count != node_count) {
      fail("spec count mismatch: checkpoint has " +
           std::to_string(spec_count) + ", network has " +
           std::to_string(node_count));
    }
    std::vector<NodeSpec> specs(spec_count);
    for (std::uint32_t v = 0; v < spec_count; ++v) {
      specs[v].in = binio::read_i64(ps);
      specs[v].out = binio::read_i64(ps);
      specs[v].retention = binio::read_i64(ps);
      if (specs[v].in < 0 || specs[v].out < 0 || specs[v].retention < 0) {
        fail("negative node spec in payload");
      }
    }

    CumulativeStats totals;
    totals.injected = binio::read_i64(ps);
    totals.proposed = binio::read_i64(ps);
    totals.suppressed = binio::read_i64(ps);
    totals.conflicted = binio::read_i64(ps);
    totals.sent = binio::read_i64(ps);
    totals.lost = binio::read_i64(ps);
    totals.delivered = binio::read_i64(ps);
    totals.extracted = binio::read_i64(ps);
    totals.crash_wiped = binio::read_i64(ps);
    totals.shed = binio::read_i64(ps);
    totals.steps = binio::read_i64(ps);

    const std::uint64_t seed = binio::read_u64(ps);

    std::array<std::string, kComponentLabels.size()> blobs;
    for (std::size_t i = 0; i < kComponentLabels.size(); ++i) {
      const std::string label = binio::read_string(ps);
      if (label != kComponentLabels[i]) {
        fail("expected component '" + std::string(kComponentLabels[i]) +
             "', found '" + label + "'");
      }
      blobs[i] = binio::read_string(ps);
    }
    if (!blobs[4].empty()) fail("non-empty dynamics component");
    const bool had_faults = binio::read_u8(ps) != 0;
    if (had_faults && faults_ == nullptr) {
      fail("checkpoint has fault-injector state but none is installed");
    }
    if (!had_faults && faults_ != nullptr) {
      fail("a fault injector is installed but the checkpoint has none");
    }

    // Telemetry does not influence the trajectory, so the section is
    // forgiving in one direction: a checkpoint with telemetry state
    // restores fine into a simulator without a session (the blob is
    // skipped), and an attached session stays fresh when the checkpoint
    // has none.
    const bool had_telemetry = binio::read_u8(ps) != 0;
    std::string telemetry_blob;
    if (had_telemetry) telemetry_blob = binio::read_string(ps);

    // Admission control does influence the trajectory, so presence is
    // strict in both directions (like the fault injector).
    const bool had_admission = binio::read_u8(ps) != 0;
    std::string admission_blob;
    if (had_admission) admission_blob = binio::read_string(ps);
    if (had_admission && admission_ == nullptr) {
      fail("checkpoint has admission-controller state but none is attached");
    }
    if (!had_admission && admission_ != nullptr) {
      fail("an admission controller is attached but the checkpoint has none");
    }

    // Everything parsed — apply.  The accumulators and the component blobs
    // are checked only as they are applied, so this simulator's own
    // checkpoint is kept and restored on any rejection: a failed restore
    // leaves the simulator exactly as it was.
    std::stringstream backup(std::ios::in | std::ios::out | std::ios::binary);
    save_checkpoint(backup);
    try {
      // Queues go through a full recompute of the Σ accumulators, then
      // cross-check against the saved values: a mismatch means the payload
      // is internally inconsistent.
      queue_ = std::move(queue);
      sum_q_ = 0;
      sum_sq_ = 0;
      for (const PacketCount q : queue_) {
        sum_q_ += q;
        sum_sq_ += detail::square(q);
      }
      if (sum_q_ != want_sum_q) fail("Σq accumulator mismatch");
      const auto want_sum_sq =
          (((static_cast<detail::QuadAccum>(sum_sq_hi) << 32) << 32)) |
          static_cast<detail::QuadAccum>(sum_sq_lo);
      if (sum_sq_ != want_sum_sq) fail("Σq² accumulator mismatch");

      for (std::uint32_t v = 0; v < spec_count; ++v) {
        if (!(net_.spec(static_cast<NodeId>(v)) == specs[v])) {
          net_.set_spec(static_cast<NodeId>(v), specs[v]);
        }
      }
      t_ = t;
      topology_version_ = topology_version;
      initial_total_ = initial_total;
      totals_ = totals;

      // Adopting the saved seed (rather than requiring the assembled one to
      // match) keeps the resume bitwise-faithful even when the restoring
      // process was launched with a different --seed.
      options_.seed = seed;

      const auto load = [&](std::size_t i, auto& target) {
        std::istringstream blob(blobs[i], std::ios::binary);
        target.load_state(blob);
      };
      protocol_->reset();
      load(0, *protocol_);
      load(1, *arrival_);
      load(2, *loss_);
      load(3, *scheduler_);
      if (faults_ != nullptr) {
        load(5, *faults_);
        for (EdgeId e = 0; e < mask_.size(); ++e) {
          faults_->set_random_off(e, active[static_cast<std::size_t>(e)] == 0);
        }
        faults_->live_mask(net_, mask_);
      } else {
        mask_.set_all(true);
      }
      if (had_telemetry && telemetry_ != nullptr) {
        std::istringstream blob(telemetry_blob, std::ios::binary);
        telemetry_->load_state(blob);
      }
      if (had_admission && admission_ != nullptr) {
        std::istringstream blob(admission_blob, std::ios::binary);
        admission_->load_state(blob);
      }
    } catch (...) {
      restore_checkpoint(backup);
      throw;
    }
  } catch (const CheckpointError&) {
    throw;
  } catch (const std::exception& e) {
    fail(std::string("malformed payload: ") + e.what());
  }
}

void write_checkpoint_file(const Simulator& sim, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os.is_open()) fail("cannot open '" + path + "' for writing");
  sim.save_checkpoint(os);
  os.flush();
  if (!os.good()) fail("write to '" + path + "' failed");
}

void write_checkpoint_file_atomic(const Simulator& sim,
                                  const std::string& path) {
  std::ostringstream os(std::ios::binary);
  sim.save_checkpoint(os);
  if (!common::write_file_durable(path, os.str(), "ckpt")) {
    fail("durable write to '" + path + "' failed");
  }
}

void restore_checkpoint_file(Simulator& sim, const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) fail("cannot open '" + path + "'");
  sim.restore_checkpoint(is);
}

}  // namespace lgg::core
