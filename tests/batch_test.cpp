// Differential tests: the lane-batched engine against the interpreter oracle.
//
// sim::BatchSimulator packs N independent runs into one instruction-stream
// sweep; its contract is that every lane's trajectory is bitwise-identical
// to the same run on the interpreter, sim::Simulator. (The compiled
// sim::Engine is itself a 1-lane batch, so the interpreter is the only
// independent reference.) Layers of evidence:
//
//   1. randomized netlists (the same testutil::random_design space the
//      compiled-vs-interpreter suite fuzzes) driven with per-lane stimulus,
//      every node of every lane compared against an interpreter after
//      every eval, at several lane counts;
//   2. per-lane fault injection (every LaneFault kind, including input and
//      hoisted-const targets) against an interpreter with the same fault
//      armed (Engine::arm_fault), plus disarm/heal parity;
//   3. fault campaigns classified at several {lanes, jobs} combinations,
//      counts AND the per-run log bitwise identical to the interpreter
//      campaign oracle (campaign_oracle.hpp), for every registered
//      workload, including campaigns narrower than the lane pool;
//   4. concurrent ExecPlan::for_design first use (the TSan target) and the
//      batch utilization counters;
//   5. exact hang proofs (axis::HangWatch) on hand-built netlists: proven
//      early exactly where the watchdog would fire, never on a lane that
//      delivers later, never before a timed fault has fired.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "axis/batch.hpp"
#include "axis/stream.hpp"
#include "axis/testbench.hpp"
#include "base/rng.hpp"
#include "fault/campaign.hpp"
#include "fault/model.hpp"
#include "netlist/exec_plan.hpp"
#include "obs/metrics.hpp"
#include "rtl/designs.hpp"
#include "campaign_oracle.hpp"
#include "sim/batch.hpp"
#include "sim/simulator.hpp"
#include "testutil.hpp"
#include "workload/workload.hpp"

namespace hlshc {
namespace {

using netlist::Design;
using netlist::NodeId;
using netlist::Op;
using testutil::random_design;

void expect_lane_equals_scalar(const sim::BatchSimulator& batch, int lane,
                               const sim::Simulator& scalar,
                               const Design& d, uint64_t seed, int cycle) {
  for (size_t i = 0; i < d.node_count(); ++i) {
    NodeId id = static_cast<NodeId>(i);
    ASSERT_EQ(batch.value(lane, id), scalar.value(id))
        << "seed " << seed << " cycle " << cycle << " lane " << lane
        << " node " << id << " (" << netlist::op_name(d.node(id).op)
        << " w=" << d.node(id).width << ')';
  }
}

// ---- 1. every node, every cycle, every lane --------------------------------

class RandomNetlistBatchDiff : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomNetlistBatchDiff, EveryLaneMatchesScalarEveryCycle) {
  const uint64_t seed = GetParam();
  const Design d = random_design(seed);
  const std::vector<NodeId> ins(d.inputs().begin(), d.inputs().end());

  // 3 exercises the generic kernel, 4 and 8 the fixed-trip specializations.
  for (int lanes : {3, 4, 8}) {
    sim::BatchSimulator batch(d, lanes);
    std::vector<std::unique_ptr<sim::Simulator>> scalars;
    std::vector<SplitMix64> rngs;
    for (int l = 0; l < lanes; ++l) {
      scalars.push_back(std::make_unique<sim::Simulator>(d));
      rngs.emplace_back(seed * 64 + static_cast<uint64_t>(l));
    }

    for (int cycle = 0; cycle < 16; ++cycle) {
      for (int l = 0; l < lanes; ++l) {
        for (NodeId in : ins) {
          const int64_t v = static_cast<int64_t>(rngs[l].next());
          batch.poke_input(l, in, v);
          scalars[l]->poke(in, v);
        }
      }
      batch.eval_all();
      for (int l = 0; l < lanes; ++l) {
        scalars[l]->eval();
        expect_lane_equals_scalar(batch, l, *scalars[l], d, seed, cycle);
      }
      batch.step_all();
      for (int l = 0; l < lanes; ++l) scalars[l]->step();
      ASSERT_EQ(batch.cycle(), scalars[0]->cycle());
    }

    // Mid-run reset must restore every lane to the scalar reset state.
    batch.reset_all();
    batch.eval_all();
    for (int l = 0; l < lanes; ++l) {
      scalars[l]->reset();
      scalars[l]->eval();
      expect_lane_equals_scalar(batch, l, *scalars[l], d, seed, -1);
    }
  }
}

// ---- 2. per-lane fault injection -------------------------------------------

/// First node of the given op kind with width > `bit`, or kInvalidNode.
NodeId find_node(const Design& d, Op op, int bit) {
  for (size_t i = 0; i < d.node_count(); ++i) {
    const netlist::Node& n = d.node(static_cast<NodeId>(i));
    if (n.op == op && n.width > bit) return static_cast<NodeId>(i);
  }
  return netlist::kInvalidNode;
}

class RandomNetlistLaneFaults : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomNetlistLaneFaults, EveryLaneFaultKindMatchesScalarInjector) {
  const uint64_t seed = GetParam();
  const Design d = random_design(seed);
  const std::vector<NodeId> ins(d.inputs().begin(), d.inputs().end());

  // One fault per lane, covering every kind plus input/const stuck-at
  // targets (the slots the fast stream never rewrites) and one clean lane.
  std::vector<fault::FaultSite> sites;
  {
    fault::FaultSite s;
    s.kind = fault::FaultKind::kSeuReg;
    s.node = find_node(d, Op::Reg, 0);
    s.cycle = 3;
    sites.push_back(s);
    s = {};
    s.kind = fault::FaultKind::kSeuMem;
    s.mem = 0;
    s.addr = 2;
    s.bit = d.memories()[0].width - 1;
    s.cycle = 0;  // cycle-0 SEU: fires inside reset
    sites.push_back(s);
    s = {};
    s.kind = fault::FaultKind::kStuckAt0;
    s.node = d.outputs()[0];
    sites.push_back(s);
    s = {};
    s.kind = fault::FaultKind::kStuckAt1;
    s.node = find_node(d, Op::Input, 0);
    sites.push_back(s);
    s = {};
    s.kind = fault::FaultKind::kTransient;
    s.node = find_node(d, Op::Const, 0);
    s.cycle = 5;
    sites.push_back(s);
  }

  const int lanes = static_cast<int>(sites.size()) + 1;  // +1 fault-free
  sim::BatchSimulator batch(d, lanes);
  std::vector<std::unique_ptr<sim::Simulator>> scalars;
  for (int l = 0; l < lanes; ++l) {
    scalars.push_back(std::make_unique<sim::Simulator>(d));
    if (l < static_cast<int>(sites.size())) {
      if (sites[l].node == netlist::kInvalidNode &&
          sites[l].kind != fault::FaultKind::kSeuMem)
        continue;  // design has no node of that kind; lane stays clean
      batch.arm_lane_fault(l, sites[l].lane_fault());
      scalars[l]->arm_fault(sites[l].lane_fault());
    }
  }
  batch.reset_all();
  for (auto& s : scalars) s->reset();

  SplitMix64 rng(seed ^ 0xabcdefull);
  for (int cycle = 0; cycle < 12; ++cycle) {
    for (NodeId in : ins) {
      const int64_t v = static_cast<int64_t>(rng.next());
      for (int l = 0; l < lanes; ++l) {
        batch.poke_input(l, in, v);
        scalars[l]->poke(in, v);
      }
    }
    batch.eval_all();
    for (int l = 0; l < lanes; ++l) {
      scalars[l]->eval();
      expect_lane_equals_scalar(batch, l, *scalars[l], d, seed, cycle);
    }
    batch.step_all();
    for (auto& s : scalars) s->step();
  }

  // Disarm heals every lane — including the const slot the transient
  // rewrote — back to the fault-free trajectory.
  for (int l = 0; l < lanes; ++l) {
    batch.disarm_lane_fault(l);
    scalars[l]->arm_fault({});
  }
  batch.eval_all();
  for (int l = 0; l < lanes; ++l) {
    scalars[l]->eval();
    expect_lane_equals_scalar(batch, l, *scalars[l], d, seed, 999);
  }
}

// ---- 3. campaign classification parity -------------------------------------

fault::CampaignOptions campaign_options(int lanes, int jobs) {
  fault::CampaignOptions opts;
  opts.matrices = 2;
  opts.max_cycles = 20000;
  opts.keep_runs = true;
  opts.progress_every = 0;
  opts.lanes = lanes;
  opts.jobs = jobs;
  return opts;
}

fault::CampaignReport campaign_at(const Design& d,
                                  const workload::WorkloadSpec& spec,
                                  const std::vector<fault::FaultSite>& sites,
                                  int lanes, int jobs) {
  return fault::run_campaign(d, spec, sites, campaign_options(lanes, jobs));
}

/// The interpreter campaign oracle at campaign_at's options.
fault::CampaignReport oracle_at(const Design& d,
                                const workload::WorkloadSpec& spec,
                                const std::vector<fault::FaultSite>& sites) {
  return testutil::interpreter_campaign(d, spec, sites,
                                        campaign_options(1, 1));
}

void expect_reports_equal(const fault::CampaignReport& a,
                          const fault::CampaignReport& b,
                          const std::string& what) {
  EXPECT_EQ(a.counts.masked, b.counts.masked) << what;
  EXPECT_EQ(a.counts.sdc, b.counts.sdc) << what;
  EXPECT_EQ(a.counts.detected, b.counts.detected) << what;
  EXPECT_EQ(a.counts.hang, b.counts.hang) << what;
  ASSERT_EQ(a.runs.size(), b.runs.size()) << what;
  for (size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_EQ(a.runs[i].outcome, b.runs[i].outcome)
        << what << " site " << i << " ("
        << a.runs[i].site.to_string() << ')';
    EXPECT_EQ(a.runs[i].site.to_string(), b.runs[i].site.to_string())
        << what << " site " << i;
  }
}

TEST(BatchCampaign, BitwiseIdenticalAcrossLanesAndJobs) {
  const Design d = rtl::build_verilog_opt2();
  const workload::WorkloadSpec& spec =
      workload::Registry::instance().get("idct");
  // SEU and stuck-at sites: the latter exercise the injected (slow-path)
  // batched stream, the former the fast stream + per-lane flip schedule.
  std::vector<fault::FaultSite> sites = fault::sample_seu_sites(d, 24, 60, 9);
  for (const fault::FaultSite& s : fault::sample_stuck_sites(d, 12, 10))
    sites.push_back(s);

  const fault::CampaignReport oracle = oracle_at(d, spec, sites);
  ASSERT_EQ(oracle.runs.size(), sites.size());
  for (int lanes : {1, 4, 32}) {
    for (int jobs : {1, 4}) {
      const fault::CampaignReport batched =
          campaign_at(d, spec, sites, lanes, jobs);
      expect_reports_equal(oracle, batched,
                           "lanes=" + std::to_string(lanes) +
                               " jobs=" + std::to_string(jobs));
    }
  }

  // At lanes 8: 5 sites make a pool narrower than the requested width, and
  // 12 sites leave a partly filled last group (8 + 4), each mixing SEU and
  // stuck-at sites.
  for (size_t n : {5, 12}) {
    std::vector<fault::FaultSite> few(sites.begin(),
                                      sites.begin() + static_cast<long>(n - 2));
    few.insert(few.end(), sites.end() - 2, sites.end());
    const fault::CampaignReport few_oracle = oracle_at(d, spec, few);
    for (int jobs : {1, 4})
      expect_reports_equal(few_oracle, campaign_at(d, spec, few, 8, jobs),
                           std::to_string(n) + " sites lanes=8 jobs=" +
                               std::to_string(jobs));
  }
}

TEST(BatchCampaign, RefillingStreamMatchesScalarOnHangHeavySites) {
  // Hang sites are where the streaming refill and the hang proof earn
  // their keep: a hung lane is proven early (or frees up late at the
  // watchdog), and the refill logic must slot fresh sites into the other
  // lanes without perturbing anyone's clock. A tight cycle budget turns a
  // good fraction of stuck-at sites into hangs; every {lanes, jobs} path
  // must classify every site exactly as the interpreter's watchdog does.
  const Design d = rtl::build_verilog_opt2();
  const workload::WorkloadSpec& spec =
      workload::Registry::instance().get("idct");
  std::vector<fault::FaultSite> sites = fault::sample_stuck_sites(d, 24, 11);
  for (const fault::FaultSite& s : fault::sample_seu_sites(d, 8, 60, 5))
    sites.push_back(s);

  fault::CampaignOptions opts;
  opts.matrices = 1;
  opts.max_cycles = 300;  // tight enough that stalled streams hit the budget
  opts.keep_runs = true;
  opts.progress_every = 0;
  const fault::CampaignReport oracle =
      testutil::interpreter_campaign(d, spec, sites, opts);
  ASSERT_GE(oracle.counts.hang, 1) << "budget too generous: no hang sites";
  ASSERT_LT(oracle.counts.hang, static_cast<int>(sites.size()))
      << "budget too tight: every site hangs";

  obs::set_enabled(true);
  obs::Registry& reg = obs::registry();
  for (int lanes : {1, 2, 8, 32}) {
    for (int jobs : {1, 4}) {
      const int64_t early0 = reg.counter("fault.hang_early")->value();
      const int64_t timeout0 = reg.counter("fault.hang_timeout")->value();
      opts.lanes = lanes;
      opts.jobs = jobs;
      const fault::CampaignReport batched =
          fault::run_campaign(d, spec, sites, opts);
      const std::string what = "hang-heavy lanes=" + std::to_string(lanes) +
                               " jobs=" + std::to_string(jobs);
      expect_reports_equal(oracle, batched, what);
      const int64_t early = reg.counter("fault.hang_early")->value() - early0;
      const int64_t timeout =
          reg.counter("fault.hang_timeout")->value() - timeout0;
      EXPECT_EQ(early + timeout, batched.counts.hang) << what;
      // The interpreter oracle runs every hang to its watchdog; the lane
      // loop proves these long before the budget, at one lane too.
      EXPECT_GT(early, 0) << what;
    }
  }
  obs::set_enabled(false);
}

TEST(BatchCampaign, OneLaneCampaignProvesStuckAtHangsEarly) {
  // The hang-heavy stuck-at case at the real 20000-cycle budget: a 1-lane
  // campaign is a 1-lane batch, so it proves hangs by state repeat instead
  // of running them to the watchdog the interpreter oracle runs them to —
  // and still classifies every site exactly as the oracle does.
  const Design d = rtl::build_verilog_opt2();
  const workload::WorkloadSpec& spec =
      workload::Registry::instance().get("idct");
  const std::vector<fault::FaultSite> sites =
      fault::sample_stuck_sites(d, 40, 2026);
  const fault::CampaignReport oracle = oracle_at(d, spec, sites);
  ASSERT_GE(oracle.counts.hang, 1) << "no hang among the stuck-at sites";

  obs::set_enabled(true);
  obs::Registry& reg = obs::registry();
  for (int jobs : {1, 4}) {
    const int64_t early0 = reg.counter("fault.hang_early")->value();
    const fault::CampaignReport one_lane = campaign_at(d, spec, sites, 1, jobs);
    expect_reports_equal(oracle, one_lane,
                         "lanes=1 jobs=" + std::to_string(jobs));
    EXPECT_GT(reg.counter("fault.hang_early")->value() - early0, 0)
        << "jobs=" << jobs;
  }
  obs::set_enabled(false);
}

TEST(BatchCampaign, EveryRegisteredWorkloadClassifiesIdentically) {
  const workload::Registry& reg = workload::Registry::instance();
  for (const std::string& name : reg.names()) {
    const workload::WorkloadSpec& spec = reg.get(name);
    // The cheapest tier-1 builder keeps the sweep unit-fast.
    const workload::BuilderInfo* builder = nullptr;
    for (const workload::BuilderInfo& b : spec.builders)
      if (!b.slow) { builder = &b; break; }
    ASSERT_NE(builder, nullptr) << name;
    const Design d = builder->build();
    const std::vector<fault::FaultSite> sites =
        fault::sample_seu_sites(d, 12, 40, 3);
    const fault::CampaignReport oracle = oracle_at(d, spec, sites);
    for (int lanes : {1, 8}) {
      const fault::CampaignReport batched =
          campaign_at(d, spec, sites, lanes, 1);
      expect_reports_equal(oracle, batched, name + "/" + builder->name);
    }
  }
}

// ---- 4. shared-plan thread safety and utilization counters -----------------

TEST(BatchInfra, ExecPlanConcurrentFirstUseYieldsOneSharedPlan) {
  // Fresh design each run: the first for_design() call races 8 threads
  // into the per-design cache. Run under TSan (the CI tsan job builds this
  // test) this pins the compile-once lock discipline.
  const Design d = random_design(0xbeef);
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const netlist::ExecPlan>> plans(kThreads);
  std::atomic<int> barrier{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      barrier.fetch_add(1);
      while (barrier.load() < kThreads) {}
      plans[static_cast<size_t>(t)] = netlist::ExecPlan::for_design(d);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) {
    ASSERT_NE(plans[static_cast<size_t>(t)], nullptr);
    EXPECT_EQ(plans[static_cast<size_t>(t)].get(), plans[0].get())
        << "thread " << t << " compiled a duplicate plan";
  }
  EXPECT_GT(plans[0]->depth(), 0);
}

TEST(BatchInfra, UtilizationCountersTrackSweepsAndLanes) {
  obs::set_enabled(true);
  obs::registry().counter("sim.batch.sweeps")->add(0);
  const int64_t sweeps0 = obs::registry().counter("sim.batch.sweeps")->value();
  const int64_t lanes0 = obs::registry().counter("sim.batch.lanes")->value();

  const Design d = rtl::build_verilog_opt2();
  const workload::WorkloadSpec& spec =
      workload::Registry::instance().get("idct");
  const std::vector<fault::FaultSite> sites =
      fault::sample_seu_sites(d, 12, 40, 5);
  campaign_at(d, spec, sites, 4, 1);
  obs::set_enabled(false);

  // 12 sites over 4 lanes stream through at least one refilling sweep of
  // 12 lane-runs (each site also replays reference runs; >= keeps the
  // bound implementation-free).
  EXPECT_GE(obs::registry().counter("sim.batch.sweeps")->value(), sweeps0 + 1);
  EXPECT_GE(obs::registry().counter("sim.batch.lanes")->value(), lanes0 + 12);
}

// ---- 5. exact hang proofs ---------------------------------------------------

/// Canonical-port echo (12-bit input lanes truncated to the 9-bit output
/// lanes, one cycle late) whose stream runs only while the 1-bit node
/// `gate(d)` builds is high: it gates s_tready and m_tvalid.
Design gated_echo(const std::string& name,
                  const std::function<NodeId(Design&)>& gate) {
  Design d(name);
  const NodeId svalid = d.input("s_tvalid", 1);
  const NodeId slast = d.input("s_tlast", 1);
  std::vector<NodeId> lanes;
  for (int c = 0; c < axis::kLanes; ++c)
    lanes.push_back(d.input(axis::lane_port("s", c), axis::kInElemWidth));
  d.input("m_tready", 1);
  const NodeId go = gate(d);
  d.output("s_tready", go);
  const NodeId vreg = d.reg(1, 0, "v");
  d.set_reg_next(vreg, d.band(svalid, go, 1));
  const NodeId lreg = d.reg(1, 0, "l");
  d.set_reg_next(lreg, slast);
  for (int c = 0; c < axis::kLanes; ++c) {
    const NodeId r = d.reg(axis::kOutElemWidth, 0, "d" + std::to_string(c));
    d.set_reg_next(r, d.slice(lanes[static_cast<size_t>(c)],
                              axis::kOutElemWidth - 1, 0));
    d.output(axis::lane_port("m", c), r);
  }
  d.output("m_tvalid", d.band(vreg, go, 1));
  d.output("m_tlast", lreg);
  return d;
}

/// Echo that halts while the 2-bit FSM register "st" is nonzero; st holds
/// its value through an XOR with zero (a combinational node a transient
/// can hit). With `spin_bits` > 0 a free-running counter of that many
/// bits, read by nothing, makes a halted lane periodic instead of a fixed
/// point.
Design wedgeable_echo(int64_t st_init, int spin_bits) {
  return gated_echo("wedgeable_echo", [&](Design& d) {
    const NodeId st = d.reg(2, st_init, "st");
    d.set_reg_next(st, d.bxor(st, d.constant(2, 0), 2));
    if (spin_bits > 0) {
      const NodeId spin = d.reg(spin_bits, 0, "spin");
      d.set_reg_next(spin, d.add(spin, d.constant(spin_bits, 1), spin_bits));
    }
    return d.eq(st, d.constant(2, 0));
  });
}

/// Echo that idles until its 8-bit "delay" register has counted up to 40,
/// then streams. An SEU on bit 7 early on restarts the count from above 128
/// so it wraps first: a long idle past the fault-free run length, with
/// state that never repeats, before the lane delivers.
Design slow_start_echo() {
  return gated_echo("slow_start_echo", [](Design& d) {
    const NodeId delay = d.reg(8, 0, "delay");
    const NodeId go = d.eq(delay, d.constant(8, 40));
    d.set_reg_next(delay,
                   d.mux(go, delay, d.add(delay, d.constant(8, 1), 8), 8));
    return go;
  });
}

NodeId node_named(const Design& d, const std::string& name) {
  for (size_t i = 0; i < d.node_count(); ++i)
    if (d.node(static_cast<NodeId>(i)).name == name)
      return static_cast<NodeId>(i);
  ADD_FAILURE() << "no node named " << name;
  return netlist::kInvalidNode;
}

std::vector<idct::Block> hang_inputs() {
  return fault::ieee1180_input_set(2, 17);
}

/// Cycles of the fault-free run of `inputs` on `d` — the check start a
/// campaign derives from its reference run.
uint64_t fault_free_cycles(const Design& d,
                           const std::vector<idct::Block>& inputs) {
  sim::Simulator sim(d);
  axis::StreamTestbench tb(sim);
  tb.run(inputs);
  return tb.timing().total_cycles;
}

/// Runs `fault` on lane 1 of a 3-lane group (fault-free neighbours)
/// through both batched loops — run_jobs (the streaming campaign loop) and
/// run (the lane-group loop) — with hang checks from `check_from`.
std::vector<axis::BatchLaneResult> through_both_loops(
    const Design& d, const sim::LaneFault& fault, uint64_t max_cycles,
    uint64_t check_from) {
  const std::vector<idct::Block> inputs = hang_inputs();
  std::vector<axis::BatchLaneResult> out;
  {
    sim::BatchSimulator bsim(d, 3);
    axis::BatchStreamTestbench tb(bsim);
    std::vector<axis::BatchStreamTestbench::Job> jobs(3);
    for (auto& job : jobs) job.inputs = inputs;
    jobs[1].fault = fault;
    out.push_back(tb.run_jobs(jobs, max_cycles, {}, {}, check_from)[1]);
  }
  {
    sim::BatchSimulator bsim(d, 3);
    bsim.arm_lane_fault(1, fault);
    axis::BatchStreamTestbench tb(bsim);
    out.push_back(tb.run({inputs, inputs, inputs}, max_cycles, {},
                         check_from)[1]);
  }
  return out;
}

/// The interpreter oracle (the watchdog path) against the lane loop at
/// lanes {1, 8} x jobs {1, 4}, run log bitwise.
void expect_campaign_parity(const Design& d,
                            const std::vector<fault::FaultSite>& sites,
                            uint64_t max_cycles, fault::Outcome want) {
  const workload::WorkloadSpec& spec =
      workload::Registry::instance().get("idct");
  fault::CampaignOptions opts;
  opts.matrices = 2;
  opts.input_seed = 17;
  opts.max_cycles = max_cycles;
  opts.keep_runs = true;
  opts.progress_every = 0;
  const fault::CampaignReport oracle =
      testutil::interpreter_campaign(d, spec, sites, opts);
  ASSERT_EQ(oracle.runs.size(), sites.size());
  for (const fault::RunRecord& run : oracle.runs)
    EXPECT_EQ(run.outcome, want) << d.name() << ' ' << run.site.to_string();
  for (int lanes : {1, 8}) {
    for (int jobs : {1, 4}) {
      opts.lanes = lanes;
      opts.jobs = jobs;
      expect_reports_equal(oracle, fault::run_campaign(d, spec, sites, opts),
                           d.name() + " lanes=" + std::to_string(lanes) +
                               " jobs=" + std::to_string(jobs));
    }
  }
}

sim::LaneFault seu(NodeId reg, int bit, uint64_t cycle) {
  sim::LaneFault f;
  f.kind = sim::LaneFault::Kind::kSeuReg;
  f.node = reg;
  f.bit = bit;
  f.cycle = cycle;
  return f;
}

fault::FaultSite seu_site(NodeId reg, int bit, uint64_t cycle) {
  fault::FaultSite s;
  s.kind = fault::FaultKind::kSeuReg;
  s.node = reg;
  s.bit = bit;
  s.cycle = cycle;
  return s;
}

TEST(HangProof, WedgedFsmIsProvenAtTheFirstCheck) {
  // st flips to 1 mid-stream and holds: a fixed point (period 1), proven
  // one cycle after checks start instead of at the 1000-cycle watchdog.
  const Design d = wedgeable_echo(0, 0);
  const uint64_t from = fault_free_cycles(d, hang_inputs());
  for (const axis::BatchLaneResult& r :
       through_both_loops(d, seu(node_named(d, "st"), 0, 5), 1000, from)) {
    EXPECT_TRUE(r.hung);
    EXPECT_TRUE(r.hang_proven);
    EXPECT_EQ(r.timing.total_cycles, from + 1);
  }
  expect_campaign_parity(d, {seu_site(node_named(d, "st"), 0, 5)}, 1000,
                         fault::Outcome::kHang);
}

TEST(HangProof, FreeRunningModEightCounterIsProvenEarly) {
  // The same wedge with a 3-bit counter running: the lane is periodic with
  // period 8, and Brent's snapshot (re-anchored at distances 1, 2, 4, 8)
  // meets it within two laps.
  const Design d = wedgeable_echo(0, 3);
  const uint64_t from = fault_free_cycles(d, hang_inputs());
  for (const axis::BatchLaneResult& r :
       through_both_loops(d, seu(node_named(d, "st"), 1, 5), 1000, from)) {
    EXPECT_TRUE(r.hung);
    EXPECT_TRUE(r.hang_proven);
    EXPECT_GT(r.timing.total_cycles, from + 8);
    EXPECT_LE(r.timing.total_cycles, from + 16);
  }
  expect_campaign_parity(d, {seu_site(node_named(d, "st"), 1, 5)}, 1000,
                         fault::Outcome::kHang);
}

TEST(HangProof, SlowStartThatDeliversIsNeverCalledHung) {
  // The SEU sends the delay counter the long way round: ~160 idle cycles
  // past the fault-free run length, every one a new state, then delivery.
  const Design d = slow_start_echo();
  const uint64_t from = fault_free_cycles(d, hang_inputs());
  for (const axis::BatchLaneResult& r :
       through_both_loops(d, seu(node_named(d, "delay"), 7, 5), 1000, from)) {
    EXPECT_FALSE(r.hung);
    EXPECT_EQ(r.matrices.size(), 2u);
    EXPECT_GT(r.timing.total_cycles, from + 100);
  }
  // Delivered late but intact: the same outputs as the fault-free run.
  expect_campaign_parity(d, {seu_site(node_named(d, "delay"), 7, 5)}, 1000,
                         fault::Outcome::kMasked);
}

TEST(HangProof, TimedFaultIsNotCheckedBeforeItFires) {
  // st starts wedged, so the lane sits at a fixed point from cycle 1 — but
  // a late SEU (or a transient on the hold path) clears st at cycle 200
  // and the lane then delivers. Checks armed from cycle 0 must wait for
  // the fault; without one the same lane is proven hung at once.
  const Design d = wedgeable_echo(1, 0);
  sim::LaneFault transient;
  transient.kind = sim::LaneFault::Kind::kTransient;
  transient.node = d.node(node_named(d, "st")).operands[0];  // the hold XOR
  transient.bit = 0;
  transient.cycle = 200;
  for (const sim::LaneFault& late : {seu(node_named(d, "st"), 0, 200),
                                     transient}) {
    for (const axis::BatchLaneResult& r :
         through_both_loops(d, late, 1000, 0)) {
      EXPECT_FALSE(r.hung);
      EXPECT_EQ(r.matrices.size(), 2u);
      EXPECT_GT(r.timing.total_cycles, 200u);
    }
  }
  for (const axis::BatchLaneResult& r :
       through_both_loops(d, sim::LaneFault{}, 1000, 0)) {
    EXPECT_TRUE(r.hang_proven);
    EXPECT_LT(r.timing.total_cycles, 8u);
  }
}

TEST(HangProof, SinkBackpressurePhaseIsPartOfTheKey) {
  // A DUT that waits on the sink: s_tready is m_tready, and every register
  // only moves on a ready cycle. Under 3-of-4 stall back-pressure the
  // design, its inputs, the source and the delivered count all stand still
  // across the stalled cycles — only the sink's phase moves. A key without
  // the phase would call that a repeat; the watch must not.
  Design d("ready_gated_echo");
  const NodeId svalid = d.input("s_tvalid", 1);
  const NodeId slast = d.input("s_tlast", 1);
  std::vector<NodeId> lanes;
  for (int c = 0; c < axis::kLanes; ++c)
    lanes.push_back(d.input(axis::lane_port("s", c), axis::kInElemWidth));
  const NodeId mready = d.input("m_tready", 1);
  d.output("s_tready", mready);
  const NodeId vreg = d.reg(1, 0, "v");
  d.set_reg_next(vreg, svalid, mready);
  const NodeId lreg = d.reg(1, 0, "l");
  d.set_reg_next(lreg, slast, mready);
  for (int c = 0; c < axis::kLanes; ++c) {
    const NodeId r = d.reg(axis::kOutElemWidth, 0, "d" + std::to_string(c));
    d.set_reg_next(r,
                   d.slice(lanes[static_cast<size_t>(c)],
                           axis::kOutElemWidth - 1, 0),
                   mready);
    d.output(axis::lane_port("m", c), r);
  }
  d.output("m_tvalid", vreg);
  d.output("m_tlast", lreg);

  sim::BatchSimulator bsim(d, 1);
  axis::SourceDriver source(bsim.lane(0));
  axis::SinkDriver sink(bsim.lane(0));
  sink.set_backpressure(3, 4);
  for (const idct::Block& b : hang_inputs()) source.queue(b);
  axis::HangWatch watch;
  watch.arm(0);
  std::vector<int64_t> prev;
  int phase_only_repeats = 0;
  for (int cycle = 0; cycle < 1000 && sink.matrices().size() < 2; ++cycle) {
    source.pre_cycle();
    sink.pre_cycle();
    bsim.eval_all();
    source.post_eval();
    sink.post_eval();
    bsim.step_all();
    ASSERT_FALSE(watch.repeats(bsim, 0, source, sink))
        << "false hang at cycle " << cycle;
    std::vector<int64_t> key;
    bsim.lane_state(0, key);
    source.append_state(key);
    key.push_back(static_cast<int64_t>(sink.matrices().size()));
    phase_only_repeats += key == prev;
    prev = std::move(key);
  }
  EXPECT_EQ(sink.matrices().size(), 2u);
  EXPECT_GT(phase_only_repeats, 0)
      << "the stalls never left the rest of the key standing";
}

TEST(HangProof, DeliveredCountIsPartOfTheKey) {
  // A DUT that emits an 8-beat frame every 8 cycles from a free-running
  // 3-bit counter and never accepts input: its registers, inputs and the
  // source repeat with period 8, and only the delivered count moves. A key
  // without the count would call that a hang before the quota is met.
  Design d("spontaneous_frames");
  for (int c = 0; c < axis::kLanes; ++c)
    d.input(axis::lane_port("s", c), axis::kInElemWidth);
  d.input("s_tvalid", 1);
  d.input("s_tlast", 1);
  d.input("m_tready", 1);
  d.output("s_tready", d.constant(1, 0));
  const NodeId cnt = d.reg(3, 0, "cnt");
  d.set_reg_next(cnt, d.add(cnt, d.constant(3, 1), 3));
  d.output("m_tvalid", d.constant(1, 1));
  d.output("m_tlast", d.eq(cnt, d.constant(3, 7)));
  for (int c = 0; c < axis::kLanes; ++c)
    d.output(axis::lane_port("m", c), d.zext(cnt, axis::kOutElemWidth));

  sim::BatchSimulator bsim(d, 1);
  axis::SourceDriver source(bsim.lane(0));
  axis::SinkDriver sink(bsim.lane(0));
  const std::vector<idct::Block> inputs = fault::ieee1180_input_set(4, 17);
  for (const idct::Block& b : inputs) source.queue(b);
  axis::HangWatch watch;
  watch.arm(0);
  for (int cycle = 0; cycle < 1000 && sink.matrices().size() < inputs.size();
       ++cycle) {
    source.pre_cycle();
    sink.pre_cycle();
    bsim.eval_all();
    source.post_eval();
    sink.post_eval();
    bsim.step_all();
    if (sink.matrices().size() < inputs.size())
      ASSERT_FALSE(watch.repeats(bsim, 0, source, sink))
          << "false hang at cycle " << cycle;
  }
  EXPECT_EQ(sink.matrices().size(), inputs.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetlistBatchDiff,
                         ::testing::Range<uint64_t>(1, 21));
INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetlistLaneFaults,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace hlshc
