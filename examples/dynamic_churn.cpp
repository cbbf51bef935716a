// Dynamic-topology scenario (Conjecture 4): links flap over time.  As long
// as the surviving edges always carry a feasible flow (protected lanes),
// LGG stays stable; when outages can sever the network, stored packets
// track the outage fraction.
//
//   $ ./dynamic_churn
#include <cstdio>
#include <iostream>

#include "analysis/table.hpp"
#include "core/scenarios.hpp"
#include "core/simulator.hpp"
#include "core/stability.hpp"

int main() {
  using namespace lgg;
  const core::SdNetwork net = core::scenarios::fat_path(5, 3, 1, 3);
  std::printf("network: %s\n\n",
              core::describe(net, core::analyze(net)).c_str());

  // Lane 0 of each hop is the protected backbone (it alone carries in = 1).
  std::vector<EdgeId> backbone;
  for (EdgeId e = 0; e < net.topology().edge_count(); e += 3) {
    backbone.push_back(e);
  }

  analysis::Table table({"dynamics", "p_off", "p_on", "verdict", "tail P_t",
                         "goodput"});
  struct Case {
    const char* label;
    double p_off, p_on;
    bool protect;
  };
  for (const Case c :
       {Case{"static", 0.0, 0.0, false},
        Case{"protected churn", 0.3, 0.3, true},
        Case{"protected churn", 0.7, 0.3, true},
        Case{"unprotected churn", 0.3, 0.3, false},
        Case{"unprotected churn", 0.7, 0.1, false},
        Case{"blackout", 1.0, 0.0, false}}) {
    core::SimulatorOptions options;
    options.seed = 555;
    core::Simulator sim(net, options);
    if (c.protect || c.p_off > 0 || c.p_on > 0) {
      core::FaultSchedule churn;
      churn.set_random_churn(
          {c.p_off, c.p_on, c.protect ? backbone : std::vector<EdgeId>{}});
      sim.set_faults(std::make_unique<core::FaultInjector>(std::move(churn)));
    }
    core::MetricsRecorder recorder;
    sim.run(5000, &recorder);
    const auto stability = core::assess_stability(recorder.network_state());
    table.add(c.label, c.p_off, c.p_on,
              std::string(core::to_string(stability.verdict)),
              stability.tail_mean,
              static_cast<double>(sim.cumulative().extracted) /
                  static_cast<double>(sim.cumulative().injected));
  }
  table.print(std::cout);
  std::printf(
      "\nReading: keeping one feasible lane alive under churn preserves "
      "stability (Conjecture 4);\nunprotected churn survives only because "
      "links come back — a permanent blackout diverges.\n");
  return 0;
}
