#include "core/trace_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/scenarios.hpp"
#include "core/simulator.hpp"
#include "graph/graph_io.hpp"

namespace lgg::core {
namespace {

TEST(NetworkIo, RoundTripClassicalNetwork) {
  const SdNetwork net = scenarios::grid_flow(2, 3, 1, 2);
  const SdNetwork back = network_from_string(to_string(net));
  ASSERT_EQ(back.node_count(), net.node_count());
  EXPECT_EQ(back.topology(), net.topology());
  for (NodeId v = 0; v < net.node_count(); ++v) {
    EXPECT_EQ(back.spec(v), net.spec(v)) << "node " << v;
  }
}

TEST(NetworkIo, RoundTripGeneralizedNetwork) {
  const SdNetwork net =
      scenarios::generalize(scenarios::fat_path(3, 2, 1, 2), 9);
  const SdNetwork back = network_from_string(to_string(net));
  for (NodeId v = 0; v < net.node_count(); ++v) {
    EXPECT_EQ(back.spec(v), net.spec(v));
  }
  EXPECT_EQ(back.max_retention(), 9);
}

TEST(NetworkIo, ParsesHandWrittenFile) {
  const SdNetwork net = network_from_string(
      "# a tiny S-D-network\n"
      "nodes 3\n"
      "edge 0 1\n"
      "edge 1 2\n"
      "edge 1 2\n"
      "role 0 2 0 0\n"
      "role 2 0 3 1\n");
  EXPECT_EQ(net.node_count(), 3);
  EXPECT_EQ(net.topology().multiplicity(1, 2), 2);
  EXPECT_EQ(net.spec(0), (NodeSpec{2, 0, 0}));
  EXPECT_EQ(net.spec(2), (NodeSpec{0, 3, 1}));
}

TEST(NetworkIo, BadRoleLinesRejected) {
  EXPECT_THROW(network_from_string("nodes 2\nedge 0 1\nrole 5 1 0 0\n"),
               graph::ParseError);
  EXPECT_THROW(network_from_string("nodes 2\nedge 0 1\nrole 0 -1 0 0\n"),
               graph::ParseError);
  EXPECT_THROW(network_from_string("nodes 2\nedge 0 1\nrole 0 0 0 0\n"),
               graph::ParseError);
  EXPECT_THROW(network_from_string("nodes 2\nedge 0 1\nrole 0 1\n"),
               graph::ParseError);
}

TEST(NetworkIo, HugeRatesParseButAnalysisRejectsThem) {
  // in(0) = 2^62 is a valid sdnet rate, but G*'s scaled capacities would
  // overflow: the analysis must throw instead of wrapping.
  const SdNetwork net = network_from_string(
      "nodes 2\nedge 0 1\nrole 0 4611686018427387904 0 0\nrole 1 0 1 0\n");
  EXPECT_THROW((void)analyze(net), ContractViolation);
}

TEST(TrajectoryCsv, HeaderAndRowCount) {
  SimulatorOptions options;
  Simulator sim(scenarios::single_path(3), options);
  MetricsRecorder recorder;
  sim.run(25, &recorder);
  std::ostringstream os;
  write_trajectory_csv(os, recorder);
  const std::string text = os.str();
  // Header + 25 rows.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 26);
  EXPECT_EQ(text.rfind("t,network_state,total_packets,max_queue", 0), 0u);
}

TEST(TrajectoryCsv, RowsMatchRecorder) {
  SimulatorOptions options;
  Simulator sim(scenarios::fat_path(3, 2, 1, 2), options);
  MetricsRecorder recorder;
  sim.run(5, &recorder);
  std::ostringstream os;
  write_trajectory_csv(os, recorder);
  std::istringstream is(os.str());
  std::string line;
  std::getline(is, line);  // header
  for (std::size_t t = 0; t < 5; ++t) {
    ASSERT_TRUE(static_cast<bool>(std::getline(is, line)));
    std::istringstream row(line);
    std::string cell;
    std::getline(row, cell, ',');
    EXPECT_EQ(std::stoll(cell), static_cast<long long>(t));
    std::getline(row, cell, ',');
    EXPECT_DOUBLE_EQ(std::stod(cell), recorder.network_state()[t]);
  }
}

}  // namespace
}  // namespace lgg::core
