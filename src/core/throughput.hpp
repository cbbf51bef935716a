// LGG as a distributed max-flow solver.
//
// Section I relates LGG to Goldberg–Tarjan push-relabel [6]: queue lengths
// play the role of heights, and packets flow downhill.  The executable
// form of that remark: run LGG with saturating injection and no losses —
// the steady-state delivery rate converges to f*, i.e. the protocol
// *computes* the maximum flow of G* in a fully local way.  (The queue
// plateau is the "height function" certifying the min cut.)
#pragma once

#include <span>
#include <vector>

#include "core/sd_network.hpp"

namespace lgg::core {

struct ThroughputEstimate {
  double rate = 0.0;       ///< delivered packets per step over the window
  Cap fstar = 0;           ///< exact maximum flow, for comparison
  double relative_error = 0.0;  ///< |rate − f*| / max(f*, 1)
  TimeStep warmup = 0;
  TimeStep window = 0;
};

/// Runs LGG with every source injecting at full rate (clamped to in(v) =
/// its G* capacity) for `warmup + window` steps and measures the
/// extraction rate over the window.  `net` must have at least one source
/// and sink.  The sources' in(v) should be at least their G*-saturating
/// value for the estimate to reach f*; scenarios can use
/// `saturate_sources` below.
ThroughputEstimate estimate_max_flow_via_lgg(const SdNetwork& net,
                                             TimeStep warmup = 2000,
                                             TimeStep window = 4000,
                                             std::uint64_t seed = 1);

/// Returns a copy of `net` whose every source rate is raised to `rate`
/// (existing sinks untouched) — used to drive the network at or beyond
/// saturation so the measured throughput is cut-limited, not
/// arrival-limited.
SdNetwork saturate_sources(const SdNetwork& net, Cap rate);

/// The certifying cut hidden in LGG's queue landscape.
///
/// In push-relabel, the height function certifies the min cut; in LGG the
/// steady queue plateau plays the same role.  Thresholding the queues at
/// every level ℓ gives candidate source sides A(ℓ) = {v : q(v) >= ℓ}; the
/// cheapest of these level cuts (counting crossing links plus the out(d)
/// of sinks inside A) is the protocol's implicit min-cut certificate.
struct QueueCut {
  std::vector<char> side_a;  ///< source side of the best level cut
  Cap value = 0;             ///< its capacity (== f* at saturation)
  PacketCount level = 0;     ///< the queue threshold that produced it
};

/// Requires every source to sit in some A(ℓ) (true once saturated).
/// Returns the cheapest level cut, the one at the lowest level on a tie,
/// in O(n log n + m).
QueueCut cut_from_queue_profile(const SdNetwork& net,
                                std::span<const PacketCount> queues);

}  // namespace lgg::core
