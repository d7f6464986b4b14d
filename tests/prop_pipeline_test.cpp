// Property-based tests for the XLS-style pipeliner on *random* dataflow
// functions (not just the IDCT kernel): for any generated combinational
// function and any requested depth, the pipelined circuit must equal the
// combinational one on a streamed input sequence, shifted by exactly the
// reported latency — and the inserted registers must be the only
// difference.
#include <gtest/gtest.h>

#include "base/rng.hpp"
#include "netlist/ir.hpp"
#include "sim/simulator.hpp"
#include "xls/pipeline.hpp"

namespace hlshc::xls {
namespace {

using netlist::Design;
using netlist::NodeId;

/// Random pure-dataflow function with 3 inputs and 2 outputs.
Design random_function(uint64_t seed) {
  SplitMix64 rng(seed);
  Design d("fn_" + std::to_string(seed));
  std::vector<NodeId> pool;
  for (int i = 0; i < 3; ++i)
    pool.push_back(d.input("in" + std::to_string(i),
                           6 + static_cast<int>(rng.next() % 11)));
  pool.push_back(d.constant(12, rng.next_in(-2048, 2047)));
  auto pick = [&]() {
    return pool[static_cast<size_t>(rng.next() % pool.size())];
  };
  for (int i = 0; i < 50; ++i) {
    NodeId a = pick(), b = pick();
    int w = 4 + static_cast<int>(rng.next() % 29);
    switch (rng.next() % 7) {
      case 0: pool.push_back(d.add(a, b, w)); break;
      case 1: pool.push_back(d.sub(a, b, w)); break;
      case 2: pool.push_back(d.mul(a, b, std::min(w + 12, 44))); break;
      case 3: pool.push_back(d.bxor(a, d.sext(b, d.node(a).width),
                                    d.node(a).width)); break;
      case 4: pool.push_back(d.mux(d.sge(a, b), d.sext(a, w),
                                   d.sext(b, w), w)); break;
      case 5: pool.push_back(d.shl(a, static_cast<int>(rng.next() % 4), w));
        break;
      default: pool.push_back(d.ashr(a, static_cast<int>(rng.next() % 4),
                                     d.node(a).width));
        break;
    }
  }
  d.output("out0", pool[pool.size() - 1]);
  d.output("out1", pool[pool.size() - 2]);
  return d;
}

struct Case {
  uint64_t seed;
  int stages;
};

// A readable, deterministic GetParam() in the CTest name (gtest's default
// dump prints the struct bytes, uninitialized padding included).
void PrintTo(const Case& c, std::ostream* os) {
  *os << "seed=" << c.seed << " stages=" << c.stages;
}

class RandomPipeline : public ::testing::TestWithParam<Case> {};

TEST_P(RandomPipeline, StreamedEquivalenceAtReportedLatency) {
  Design fn = random_function(GetParam().seed);
  PipelineResult pr = pipeline_function(fn, GetParam().stages);
  ASSERT_GE(pr.latency, 1);
  ASSERT_LE(pr.latency, GetParam().stages);

  sim::Simulator comb(fn);
  sim::Simulator pipe(pr.design);
  SplitMix64 rng(GetParam().seed ^ 0x5a5a);

  const int kTicks = 24;
  std::vector<std::array<int64_t, 2>> expected;
  std::vector<std::array<int64_t, 2>> got;
  for (int t = 0; t < kTicks + pr.latency; ++t) {
    for (NodeId in : fn.inputs()) {
      const auto& n = fn.node(in);
      int64_t v = rng.next_in(-(1 << (n.width - 1)), (1 << (n.width - 1)) - 1);
      comb.set_input(n.name, v);
      pipe.set_input(n.name, v);
    }
    comb.eval();
    pipe.eval();
    if (t < kTicks)
      expected.push_back({comb.output_i64("out0"), comb.output_i64("out1")});
    if (t >= pr.latency)
      got.push_back({pipe.output_i64("out0"), pipe.output_i64("out1")});
    comb.step();
    pipe.step();
  }
  ASSERT_EQ(expected.size(), got.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i][0], got[i][0]) << "tick " << i;
    EXPECT_EQ(expected[i][1], got[i][1]) << "tick " << i;
  }
}

TEST_P(RandomPipeline, OnlyRegistersAreAdded) {
  Design fn = random_function(GetParam().seed);
  PipelineResult pr = pipeline_function(fn, GetParam().stages);
  netlist::DesignStats before = netlist::compute_stats(fn);
  netlist::DesignStats after = netlist::compute_stats(pr.design);
  EXPECT_EQ(after.adders, before.adders);
  EXPECT_EQ(after.multipliers + after.const_mults,
            before.multipliers + before.const_mults);
  EXPECT_EQ(after.muxes, before.muxes);
  EXPECT_EQ(after.reg_bits, pr.pipeline_regs);
  EXPECT_GT(after.regs, 0);
}

std::vector<Case> cases() {
  std::vector<Case> out;
  for (uint64_t seed : {201, 202, 203, 204, 205, 206})
    for (int stages : {1, 3, 7}) out.push_back({seed, stages});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomPipeline, ::testing::ValuesIn(cases()),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           return "s" + std::to_string(info.param.seed) +
                                  "_d" + std::to_string(info.param.stages);
                         });

}  // namespace
}  // namespace hlshc::xls
