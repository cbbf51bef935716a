// Umbrella header: the entire liblgg public API.
//
//   #include "lgg.hpp"
//
// pulls in the multigraph substrate, the flow solvers and feasibility
// machinery, the LGG simulator with every pluggable component, the
// baselines, and the analysis toolkit.  Individual headers remain the
// preferred include for compile-time-conscious users.
#pragma once

#include "common/failpoint.hpp"  // IWYU pragma: export
#include "common/require.hpp"   // IWYU pragma: export
#include "common/rng.hpp"       // IWYU pragma: export
#include "common/types.hpp"     // IWYU pragma: export

#include "graph/algorithms.hpp"   // IWYU pragma: export
#include "graph/dot_export.hpp"   // IWYU pragma: export
#include "graph/generators.hpp"   // IWYU pragma: export
#include "graph/graph_io.hpp"     // IWYU pragma: export
#include "graph/multigraph.hpp"   // IWYU pragma: export

#include "flow/dinic.hpp"               // IWYU pragma: export
#include "flow/edmonds_karp.hpp"        // IWYU pragma: export
#include "flow/feasibility.hpp"         // IWYU pragma: export
#include "flow/flow_network.hpp"        // IWYU pragma: export
#include "flow/max_flow.hpp"            // IWYU pragma: export
#include "flow/min_cut.hpp"             // IWYU pragma: export
#include "flow/path_decomposition.hpp"  // IWYU pragma: export
#include "flow/push_relabel.hpp"        // IWYU pragma: export

#include "obs/drift.hpp"            // IWYU pragma: export
#include "obs/flight_recorder.hpp"  // IWYU pragma: export
#include "obs/json.hpp"             // IWYU pragma: export
#include "obs/registry.hpp"         // IWYU pragma: export
#include "obs/telemetry.hpp"        // IWYU pragma: export

#include "core/arrival.hpp"          // IWYU pragma: export
#include "core/bounds.hpp"           // IWYU pragma: export
#include "core/burst_condition.hpp"  // IWYU pragma: export
#include "core/checkpoint.hpp"       // IWYU pragma: export
#include "core/ckpt_chain.hpp"       // IWYU pragma: export
#include "core/convergence.hpp"      // IWYU pragma: export
#include "core/faults.hpp"           // IWYU pragma: export
#include "core/flow_plan.hpp"        // IWYU pragma: export
#include "core/generalized.hpp"      // IWYU pragma: export
#include "core/induction.hpp"        // IWYU pragma: export
#include "core/interference.hpp"     // IWYU pragma: export
#include "core/latency.hpp"          // IWYU pragma: export
#include "core/lgg_protocol.hpp"     // IWYU pragma: export
#include "core/loss.hpp"             // IWYU pragma: export
#include "core/lyapunov.hpp"         // IWYU pragma: export
#include "core/metrics.hpp"          // IWYU pragma: export
#include "core/protocol.hpp"         // IWYU pragma: export
#include "core/region.hpp"           // IWYU pragma: export
#include "core/scenarios.hpp"        // IWYU pragma: export
#include "core/sd_network.hpp"       // IWYU pragma: export
#include "core/simulator.hpp"        // IWYU pragma: export
#include "core/stability.hpp"        // IWYU pragma: export
#include "core/throughput.hpp"       // IWYU pragma: export
#include "core/trace_io.hpp"         // IWYU pragma: export

#include "baselines/backpressure.hpp"       // IWYU pragma: export
#include "baselines/flow_routing.hpp"       // IWYU pragma: export
#include "baselines/hot_potato.hpp"         // IWYU pragma: export
#include "baselines/protocol_registry.hpp"  // IWYU pragma: export
#include "baselines/random_walk.hpp"        // IWYU pragma: export
#include "baselines/stale_lgg.hpp"          // IWYU pragma: export

#include "analysis/csv.hpp"          // IWYU pragma: export
#include "analysis/experiment.hpp"   // IWYU pragma: export
#include "analysis/histogram.hpp"    // IWYU pragma: export
#include "analysis/stats.hpp"        // IWYU pragma: export
#include "analysis/supervisor.hpp"   // IWYU pragma: export
#include "analysis/sweep.hpp"        // IWYU pragma: export
#include "analysis/table.hpp"        // IWYU pragma: export
#include "analysis/thread_pool.hpp"  // IWYU pragma: export
#include "analysis/timeseries.hpp"   // IWYU pragma: export
