// Failure injection for the AXI-Stream protocol monitor: deliberately
// broken DUTs must be flagged with the right violation class. A watchdog
// that only ever sees correct designs is untested; these fixtures prove
// the monitor's teeth.
#include <gtest/gtest.h>

#include "axis/monitor.hpp"
#include "axis/stream.hpp"
#include "axis/testbench.hpp"
#include "sim/simulator.hpp"

namespace hlshc::axis {
namespace {

using netlist::Design;
using netlist::NodeId;

/// Skeleton DUT with the canonical ports; the master-side behaviour is
/// supplied by the callback, which receives the design and the m_tready
/// input and must create m_tvalid / m_tlast / lane outputs.
Design skeleton(
    const std::function<void(Design&, NodeId m_ready)>& master_side) {
  Design d("broken");
  for (int c = 0; c < 8; ++c) d.input(lane_port("s", c), kInElemWidth);
  d.input("s_tvalid", 1);
  d.input("s_tlast", 1);
  NodeId m_ready = d.input("m_tready", 1);
  d.output("s_tready", d.constant(1, 1));
  master_side(d, m_ready);
  return d;
}

void add_lanes(Design& d, NodeId value9) {
  for (int c = 0; c < 8; ++c) d.output(lane_port("m", c), value9);
}

std::vector<std::string> observe(Design& d, int cycles) {
  sim::Simulator sim(d);
  sim.set_input("m_tready", 0);  // stall the sink: offers must persist
  Monitor monitor(sim);
  for (int i = 0; i < cycles; ++i) {
    sim.eval();
    monitor.sample();
    sim.step();
  }
  return monitor.violations();
}

TEST(MonitorInjection, RetractedValidIsCaught) {
  // TVALID toggles every cycle regardless of TREADY: a V1 violation.
  Design d = skeleton([](Design& d, NodeId) {
    NodeId t = d.reg(1, 1, "t");
    d.set_reg_next(t, d.bnot(t, 1));
    d.output("m_tvalid", t);
    d.output("m_tlast", d.constant(1, 0));
    add_lanes(d, d.constant(kOutElemWidth, 5));
  });
  auto v = observe(d, 6);
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v[0].find("TVALID retracted"), std::string::npos);
}

TEST(MonitorInjection, UnstableDataWhileStalledIsCaught) {
  // TVALID held, but the data counts up while the sink is stalled: V2.
  Design d = skeleton([](Design& d, NodeId) {
    NodeId cnt = d.reg(kOutElemWidth, 0, "cnt");
    d.set_reg_next(cnt, d.add(cnt, d.constant(kOutElemWidth, 1),
                              kOutElemWidth));
    d.output("m_tvalid", d.constant(1, 1));
    d.output("m_tlast", d.constant(1, 0));
    add_lanes(d, cnt);
  });
  auto v = observe(d, 4);
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v[0].find("TDATA lane"), std::string::npos);
}

TEST(MonitorInjection, UnstableLastWhileStalledIsCaught) {
  Design d = skeleton([](Design& d, NodeId) {
    NodeId t = d.reg(1, 0, "t");
    d.set_reg_next(t, d.bnot(t, 1));
    d.output("m_tvalid", d.constant(1, 1));
    d.output("m_tlast", t);
    add_lanes(d, d.constant(kOutElemWidth, 5));
  });
  auto v = observe(d, 4);
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v[0].find("TLAST changed"), std::string::npos);
}

TEST(MonitorInjection, ShortFrameIsCaught) {
  // TLAST on every beat: 1-beat frames instead of 8 (V3).
  Design d = skeleton([](Design& d, NodeId m_ready) {
    d.output("m_tvalid", d.constant(1, 1));
    d.output("m_tlast", d.constant(1, 1));
    (void)m_ready;
    add_lanes(d, d.constant(kOutElemWidth, 5));
  });
  sim::Simulator sim(d);
  sim.set_input("m_tready", 1);  // accept, so frames complete
  Monitor monitor(sim);
  for (int i = 0; i < 3; ++i) {
    sim.eval();
    monitor.sample();
    sim.step();
  }
  auto v = monitor.violations();
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v[0].find("frame of 1 beats"), std::string::npos);
}

TEST(MonitorInjection, MissingLastIsCaught) {
  // Never asserts TLAST: after 8 beats, V3.
  Design d = skeleton([](Design& d, NodeId) {
    d.output("m_tvalid", d.constant(1, 1));
    d.output("m_tlast", d.constant(1, 0));
    add_lanes(d, d.constant(kOutElemWidth, 5));
  });
  sim::Simulator sim(d);
  sim.set_input("m_tready", 1);
  Monitor monitor(sim);
  for (int i = 0; i < 10; ++i) {
    sim.eval();
    monitor.sample();
    sim.step();
  }
  auto v = monitor.violations();
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v[0].find("missing TLAST"), std::string::npos);
}

TEST(MonitorInjection, MalformedFramesStillDeliverAMatrix) {
  // TLAST alone closes a matrix: a 1-beat frame delivers its row with the
  // rest zero, an 11-beat frame its first 8 rows. Neither throws out of
  // the run; the monitor flags both (V3).
  Design short_frames = skeleton([](Design& d, NodeId) {
    d.output("m_tvalid", d.constant(1, 1));
    d.output("m_tlast", d.constant(1, 1));
    add_lanes(d, d.constant(kOutElemWidth, 5));
  });
  Design long_frames = skeleton([](Design& d, NodeId) {
    NodeId cnt = d.reg(kOutElemWidth, 0, "cnt");
    NodeId wrap = d.eq(cnt, d.constant(kOutElemWidth, 10));
    d.set_reg_next(cnt, d.mux(wrap, d.constant(kOutElemWidth, 0),
                              d.add(cnt, d.constant(kOutElemWidth, 1),
                                    kOutElemWidth),
                              kOutElemWidth));
    d.output("m_tvalid", d.constant(1, 1));
    d.output("m_tlast", wrap);
    add_lanes(d, cnt);
  });
  const idct::Block in{};
  {
    sim::Simulator sim(short_frames);
    StreamTestbench tb(sim);
    const auto out = tb.run({in, in}, 100);
    ASSERT_EQ(out.size(), 2u);
    for (int c = 0; c < kLanes; ++c) EXPECT_EQ(idct::at(out[1], 0, c), 5);
    for (int r = 1; r < idct::kBlockDim; ++r)
      EXPECT_EQ(idct::at(out[1], r, 0), 0) << "row " << r;
    EXPECT_FALSE(tb.monitor().clean());
  }
  {
    sim::Simulator sim(long_frames);
    StreamTestbench tb(sim);
    const auto out = tb.run({in}, 100);
    ASSERT_EQ(out.size(), 1u);
    for (int r = 0; r < idct::kBlockDim; ++r)
      EXPECT_EQ(idct::at(out[0], r, 3), r) << "row " << r;
    EXPECT_EQ(tb.timing().total_cycles, 11u);
    EXPECT_FALSE(tb.monitor().clean());
  }
}

TEST(MonitorInjection, CompliantStallerIsClean) {
  // Control: a DUT that holds a single stable offer forever is legal.
  Design d = skeleton([](Design& d, NodeId) {
    d.output("m_tvalid", d.constant(1, 1));
    d.output("m_tlast", d.constant(1, 0));
    add_lanes(d, d.constant(kOutElemWidth, 42));
  });
  auto v = observe(d, 10);
  EXPECT_TRUE(v.empty());
}

}  // namespace
}  // namespace hlshc::axis
