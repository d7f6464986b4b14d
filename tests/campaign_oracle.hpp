// The interpreter campaign oracle for the differential suites.
//
// fault::run_campaign classifies every site through the lane loop
// (axis::BatchStreamTestbench::run_jobs over sim::BatchSimulator) and proves
// hangs early. This helper recomputes the same report the plain way: one
// site at a time on the interpreter (sim::Simulator), each run a
// StreamTestbench that hangs only by its watchdog (sim::SimTimeout). The
// engine_diff and batch suites require run_campaign to reproduce it
// bitwise — counts and the site-ordered run log — at every {lanes, jobs}.
#pragma once

#include <vector>

#include "axis/testbench.hpp"
#include "fault/campaign.hpp"
#include "fault/model.hpp"
#include "sim/simulator.hpp"
#include "workload/workload.hpp"

namespace hlshc::testutil {

inline fault::CampaignReport interpreter_campaign(
    const netlist::Design& d, const workload::WorkloadSpec& spec,
    const std::vector<fault::FaultSite>& sites,
    const fault::CampaignOptions& options) {
  const std::vector<idct::Block> inputs = workload::campaign_input_set(
      spec, options.matrices, options.input_seed);
  const std::vector<idct::Block> model =
      workload::reference_outputs(spec, inputs);
  sim::Simulator sim(d);
  fault::CampaignReport report;
  report.design_name = d.name();
  std::vector<idct::Block> reference;
  {
    axis::StreamTestbench tb(sim);
    reference = tb.run(inputs, options.max_cycles);
  }
  report.reference_functional =
      workload::diff_outputs(spec, model, reference) == 0;
  const std::vector<idct::Block>& golden =
      report.reference_functional ? model : reference;

  for (const fault::FaultSite& site : sites) {
    fault::validate_site(d, site);
    sim.arm_fault(site.lane_fault());
    fault::Outcome outcome = fault::Outcome::kMasked;
    try {
      axis::StreamTestbench tb(sim);
      const std::vector<idct::Block> got = tb.run(inputs, options.max_cycles);
      bool flagged = !tb.monitor().clean();
      for (netlist::NodeId o : d.outputs())
        flagged = flagged ||
                  (d.node(o).name.ends_with("_err") && sim.value(o).to_bool());
      if (flagged)
        outcome = fault::Outcome::kDetected;
      else if (workload::diff_outputs(spec, golden, got) != 0)
        outcome = fault::Outcome::kSdc;
    } catch (const sim::SimTimeout&) {
      outcome = fault::Outcome::kHang;
    }
    sim.arm_fault({});
    switch (outcome) {
      case fault::Outcome::kMasked: ++report.counts.masked; break;
      case fault::Outcome::kSdc: ++report.counts.sdc; break;
      case fault::Outcome::kDetected: ++report.counts.detected; break;
      case fault::Outcome::kHang: ++report.counts.hang; break;
    }
    if (options.keep_runs) report.runs.push_back({site, outcome});
  }
  return report;
}

}  // namespace hlshc::testutil
