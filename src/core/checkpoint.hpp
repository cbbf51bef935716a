// Crash-safe simulator checkpoints.
//
// A checkpoint captures everything that determines the rest of a
// trajectory: the step index, queues, random-churn edge bits, topology
// version, the Σq / Σq² accumulators, cumulative stats, the master seed
// (draws are addressed by (seed, step, phase, node), so seed + step pin
// every remaining draw — there is no evolving stream to capture), an
// opaque state blob per component (protocol, arrival, loss, scheduler,
// an always-empty dynamics slot, faults), and — when a telemetry session
// is attached — the telemetry state (snapshot sequence number, metric values, cumulative
// drift, flight-recorder ring).  Restoring into a simulator assembled
// with the same network, options, and component configuration continues
// the run bitwise-identically to one that was never interrupted; with the
// telemetry state restored, the resumed run also emits byte-identical
// JSONL telemetry.
//
// Wire format (all integers little-endian; see docs/formats.md):
//
//   magic   8 bytes  "LGGCKPT1"
//   version u32      kCheckpointVersion
//   size    u64      payload byte count
//   crc     u32      CRC-32 (IEEE, poly 0xEDB88320) of the payload
//   payload size bytes
//
// The header is validated before any payload field is interpreted, so a
// truncated or bit-flipped file fails loudly with CheckpointError instead
// of resuming from garbage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace lgg::core {

class Simulator;

/// Any structural problem with a checkpoint: bad magic, version or size
/// mismatch, CRC failure, truncation, or a configuration that does not
/// match the saved state.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr char kCheckpointMagic[8] = {'L', 'G', 'G', 'C',
                                             'K', 'P', 'T', '1'};
/// v2: fault-injector blobs carry the live down-state bit per entry (so a
/// resume reports no spurious fault transitions) and the payload gains an
/// optional trailing telemetry section.
/// v3: cumulative totals gain the admission `shed` counter and the payload
/// gains a trailing admission-controller section (strict presence: a
/// governed checkpoint only restores into a simulator with an admission
/// controller attached, and vice versa — admission state steers the
/// trajectory, so a mismatch cannot resume bitwise-identically).
/// v4: the serialized RNG stream is replaced by the master seed.  Draws
/// are addressed by (seed, step, phase, node) — common/rng.hpp — so there
/// is no evolving stream to capture: (seed, t) alone pins every future
/// draw, under any shard count.  Older versions are rejected with an error
/// naming both versions.
/// v5: the payload gains a node-spec section (in/out/retention per node)
/// after the edge mask.  Topology churn (core/faults.hpp) mutates specs
/// mid-run, so a mid-churn checkpoint must carry the *current* rates — the
/// network file only has the initial ones.  Restore re-applies the saved
/// specs, which also rebuilds the role indices, so a mid-churn resume is
/// bitwise identical to the uninterrupted run.
/// v6: the telemetry section gains a hotspot-tracker subsection (strict
/// presence byte + both Space-Saving sketches) after the flight ring, so
/// a resumed run with --hotspots emits byte-identical "hotspots" lines.
/// v7: arrival-component blobs move to the flat sparse layout (size,
/// entry count, strictly-ascending index/value pairs) shared by the
/// stateful processes — TokenBucketArrival's token balances, the
/// LeakyBucketArrival fixed-point buckets, and the adversarial traffic
/// plane's window/token state (src/traffic/adversary.hpp: per-source
/// buckets + catch-up timestamps + sweep cursor), so a mid-hoard resume
/// is bitwise identical to the uninterrupted run.
/// v8: the per-snapshot payload layout is identical to v7; the version
/// marks the generation-chain era — snapshots are now fsync'd before the
/// rename and retained in a ring described by a CRC'd manifest
/// (core/ckpt_chain.hpp), so "v8" on disk promises the stronger
/// durability contract.
/// v9: the hotspot-tracker subsection leads with the pending snapshot
/// window — entry count, then strictly ascending (node, drift sum, queue
/// sum) u64 triples — before both Space-Saving sketches.  The sketches are
/// fed once per snapshot window (obs/hotspots.hpp), so a mid-window resume
/// needs the sums accumulated since the last window closed.
inline constexpr std::uint32_t kCheckpointVersion = 9;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).  `seed` chains
/// incremental computations; pass the previous return value.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size,
                                  std::uint32_t seed = 0);

/// Writes a checkpoint to `path` (binary).  Throws CheckpointError when the
/// file cannot be written.  Callers that need crash atomicity should use
/// write_checkpoint_file_atomic instead.
void write_checkpoint_file(const Simulator& sim, const std::string& path);

/// Crash-atomic, durable variant: writes to `path`.tmp, fsyncs the temp
/// file, renames, and fsyncs the directory (best effort), so a reader at
/// `path` sees either the complete old checkpoint or the complete new one
/// — and the new one survives a power cut once the call returns.  Throws
/// CheckpointError on any failure (the temp file is removed).  Failpoint
/// sites ckpt.{write,fsync,rename} (common/failpoint.hpp) are compiled
/// into the stages.
void write_checkpoint_file_atomic(const Simulator& sim,
                                  const std::string& path);

/// Restores `sim` from the checkpoint at `path`.  Throws CheckpointError on
/// a missing/corrupt file or mismatched configuration.
void restore_checkpoint_file(Simulator& sim, const std::string& path);

}  // namespace lgg::core
