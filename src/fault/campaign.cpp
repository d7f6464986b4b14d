#include "fault/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>

#include "axis/batch.hpp"
#include "axis/testbench.hpp"
#include "base/rng.hpp"
#include "base/strings.hpp"
#include "core/report.hpp"
#include "netlist/exec_plan.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/pool.hpp"
#include "sim/engine.hpp"
#include "synth/synthesize.hpp"

namespace hlshc::fault {

using netlist::Design;
using netlist::NodeId;

const char* outcome_name(Outcome outcome) {
  switch (outcome) {
    case Outcome::kMasked: return "masked";
    case Outcome::kSdc: return "sdc";
    case Outcome::kDetected: return "detected";
    case Outcome::kHang: return "hang";
  }
  HLSHC_UNREACHABLE("bad Outcome");
}

std::vector<idct::Block> ieee1180_input_set(int matrices, long seed) {
  return workload::campaign_input_set(
      workload::Registry::instance().get("idct"), matrices, seed);
}

namespace {

/// Output ports whose assertion counts as fault detection (the sticky flags
/// the hardening transforms add).
std::vector<NodeId> detector_ports(const Design& d) {
  std::vector<NodeId> ports;
  for (NodeId o : d.outputs())
    if (d.node(o).name.ends_with("_err")) ports.push_back(o);
  return ports;
}

/// Shared disarm state for a campaign's progress callbacks. A user callback
/// that throws must not take the campaign down with it (under jobs > 1 the
/// exception would abort the pool loop mid-shard): the first throw is
/// recorded here and every later tick skips the callback entirely.
struct ProgressGuard {
  std::atomic<bool> disarmed{false};
  std::mutex mutex;
  std::string error;  ///< what() of the first throw (guarded by mutex)
};

void report_progress(const CampaignOptions& options,
                     const CampaignProgress& progress,
                     ProgressGuard* guard) {
  obs::tracer().instant("campaign.progress", "fault");
  if (options.on_progress) {
    if (guard->disarmed.load(std::memory_order_acquire)) return;
    try {
      options.on_progress(progress);
    } catch (const std::exception& e) {
      guard->disarmed.store(true, std::memory_order_release);
      std::lock_guard<std::mutex> lock(guard->mutex);
      if (guard->error.empty()) guard->error = e.what();
    } catch (...) {
      guard->disarmed.store(true, std::memory_order_release);
      std::lock_guard<std::mutex> lock(guard->mutex);
      if (guard->error.empty()) guard->error = "unknown exception";
    }
    return;
  }
  // The leading figure is the completed-site count, never a site index —
  // under parallel execution indices complete out of order, but "N of M
  // done" stays monotone and meaningful at any worker count.
  std::fprintf(stderr,
               "[campaign %s] %d/%d sites (masked=%d sdc=%d detected=%d "
               "hang=%d)\n",
               progress.design_name.c_str(), progress.completed,
               progress.total, progress.counts.masked, progress.counts.sdc,
               progress.counts.detected, progress.counts.hang);
}

/// One lane result -> its outcome: hang, then detection via the protocol
/// monitor or a sticky "*_err" port (probes the harness sampled at the
/// lane's completion cycle), then SDC against the golden outputs.
Outcome classify_result(const workload::WorkloadSpec& spec,
                        const std::vector<idct::Block>& golden,
                        const axis::BatchLaneResult& r) {
  if (r.hung) return Outcome::kHang;
  bool flagged = !r.clean;
  for (int64_t probe : r.probes) flagged = flagged || probe != 0;
  if (flagged) return Outcome::kDetected;
  if (workload::diff_outputs(spec, golden, r.matrices) != 0)
    return Outcome::kSdc;
  return Outcome::kMasked;
}

void count_outcome(Outcome outcome, CampaignCounts* counts) {
  switch (outcome) {
    case Outcome::kMasked: ++counts->masked; break;
    case Outcome::kSdc: ++counts->sdc; break;
    case Outcome::kDetected: ++counts->detected; break;
    case Outcome::kHang: ++counts->hang; break;
  }
}

}  // namespace

CampaignReport run_campaign(const Design& d,
                            const workload::WorkloadSpec& spec,
                            const std::vector<FaultSite>& sites,
                            const CampaignOptions& options) {
  const int lanes = std::max(
      1, std::min(options.lanes == 0 ? par::default_lanes() : options.lanes,
                  par::kMaxLanes));
  // Work shards over the pool in groups of `lanes` sites — the jobs clamp
  // follows the group count.
  const int64_t groups =
      (static_cast<int64_t>(sites.size()) + lanes - 1) / lanes;
  const int jobs = static_cast<int>(std::max<int64_t>(
      1, std::min<int64_t>(
             options.jobs <= 0 ? par::default_jobs() : options.jobs, groups)));
  obs::Span span("fault.campaign", "fault");
  span.arg("design", d.name())
      .arg("workload", spec.name)
      .arg("sites", static_cast<int64_t>(sites.size()))
      .arg("jobs", static_cast<int64_t>(jobs))
      .arg("lanes", static_cast<int64_t>(lanes));
  for (const FaultSite& site : sites) validate_site(d, site);

  CampaignReport report;
  report.design_name = d.name();

  const std::vector<idct::Block> inputs = workload::campaign_input_set(
      spec, options.matrices, options.input_seed);
  const std::vector<idct::Block> model =
      workload::reference_outputs(spec, inputs);

  // The fault-free reference run also pre-warms every derived cache on the
  // design — validation, topo order, and the shared ExecPlan — so the
  // lane simulators below only read the design. Capture the plan identity
  // to assert the "compiled exactly once" contract across the campaign.
  std::unique_ptr<sim::Engine> sim = sim::make_engine(d);
  if (options.deadline) sim->set_deadline(options.deadline);
  const std::shared_ptr<const void> plan_before = d.cached_exec_plan();
  std::vector<idct::Block> reference;
  // The fault-free run length is where the lane loop starts proving hangs
  // (axis::HangWatch): a lane still running past it is the only hang
  // candidate, and checking earlier would only cost time.
  uint64_t hang_check_from = 0;
  {
    axis::StreamTestbench tb(*sim);
    reference = tb.run(inputs, options.max_cycles);
    hang_check_from = tb.timing().total_cycles;
  }
  report.reference_functional =
      workload::diff_outputs(spec, model, reference) == 0;
  const std::vector<idct::Block>& golden =
      report.reference_functional ? model : reference;

  const std::vector<NodeId> detectors = detector_ports(d);

  // Each site's outcome lands in its own slot as its lane finishes; counts
  // and the run log merge in site order afterwards, so both are bitwise
  // identical at every {lanes, jobs}. Progress ticks count completions —
  // each multiple of the cadence fires exactly once, from whichever worker
  // reaches it, with a running outcome mix.
  const int total = static_cast<int>(sites.size());
  std::vector<Outcome> outcomes(sites.size());
  ProgressGuard progress_guard;
  std::mutex progress_mutex;
  std::atomic<int> completed{0};
  std::atomic<int> running[4] = {};  // by Outcome: CampaignCounts order
  // Hangs proven by a state repeat; every other hang ran to the watchdog.
  std::atomic<int> hangs_proven{0};
  std::atomic<int64_t> refills{0};
  // Sites [first, first + count) through one run_jobs() sweep on `bsim`.
  const auto classify = [&](sim::BatchSimulator& bsim, size_t first,
                            size_t count) {
    std::vector<axis::BatchStreamTestbench::Job> site_jobs(count);
    for (size_t j = 0; j < count; ++j)
      site_jobs[j] = {inputs, sites[first + j].lane_fault()};
    axis::BatchStreamTestbench tb(bsim);
    tb.run_jobs(
        site_jobs, options.max_cycles, detectors,
        [&](size_t job, const axis::BatchLaneResult& r) {
          const Outcome outcome = classify_result(spec, golden, r);
          outcomes[first + job] = outcome;
          ++running[static_cast<int>(outcome)];
          hangs_proven += r.hang_proven;
          const int done = 1 + completed.fetch_add(1);
          if (options.progress_every <= 0 || done % options.progress_every)
            return;
          const CampaignCounts counts{running[0].load(), running[1].load(),
                                      running[2].load(), running[3].load()};
          std::lock_guard<std::mutex> lock(progress_mutex);
          report_progress(options, {d.name(), done, total, counts},
                          &progress_guard);
        },
        hang_check_from);
    refills += tb.lane_refills();
  };
  const auto make_batch = [&] {
    auto bsim = std::make_unique<sim::BatchSimulator>(d, lanes);
    if (options.deadline) bsim->set_deadline(options.deadline);
    return bsim;
  };

  if (jobs == 1) {
    // One worker: every site streams through one refilling sweep, so lanes
    // freed by early finishers take fresh sites instead of draining the
    // group behind a hang straggler.
    if (!sites.empty()) classify(*make_batch(), 0, sites.size());
  } else {
    // Groups of `lanes` sites shard over the pool, one sweep per group on
    // the worker's own simulator.
    par::Pool pool(jobs);
    std::vector<std::unique_ptr<sim::BatchSimulator>> sims(
        static_cast<size_t>(pool.jobs()));
    pool.parallel_for_worker(groups, [&](int worker, int64_t g) {
      std::unique_ptr<sim::BatchSimulator>& bsim =
          sims[static_cast<size_t>(worker)];
      if (!bsim) bsim = make_batch();
      const size_t first = static_cast<size_t>(g) * static_cast<size_t>(lanes);
      classify(*bsim, first,
               std::min(static_cast<size_t>(lanes), sites.size() - first));
    });
  }

  for (size_t i = 0; i < sites.size(); ++i)
    count_outcome(outcomes[i], &report.counts);
  if (options.keep_runs) {
    report.runs.reserve(sites.size());
    for (size_t i = 0; i < sites.size(); ++i)
      report.runs.push_back({sites[i], outcomes[i]});
  }
  report.progress_error = progress_guard.error;
  if (obs::enabled()) {
    obs::Registry& reg = obs::registry();
    reg.counter("fault.hang_early")->add(hangs_proven.load());
    reg.counter("fault.hang_timeout")
        ->add(report.counts.hang - hangs_proven.load());
    reg.counter("fault.lane_refills")->add(refills.load());
  }
  HLSHC_CHECK(d.cached_exec_plan().get() == plan_before.get(),
              "ExecPlan for '" << d.name()
                               << "' was recompiled mid-campaign — the "
                                  "design mutated under the workers");
  obs::log_event(obs::EventLevel::kInfo, "fault.campaign",
                 {{"design", d.name()},
                  {"workload", spec.name},
                  {"sites", std::to_string(sites.size())},
                  {"jobs", std::to_string(jobs)},
                  {"lanes", std::to_string(lanes)},
                  {"masked", std::to_string(report.counts.masked)},
                  {"sdc", std::to_string(report.counts.sdc)},
                  {"detected", std::to_string(report.counts.detected)},
                  {"hang", std::to_string(report.counts.hang)},
                  {"hang_early", std::to_string(hangs_proven.load())}});
  return report;
}

CampaignReport run_campaign(const Design& d,
                            const std::vector<FaultSite>& sites,
                            const CampaignOptions& options) {
  return run_campaign(d, workload::Registry::instance().get("idct"), sites,
                      options);
}

DesignResilience resilience_from_campaign(const Design& d,
                                          const workload::WorkloadSpec& spec,
                                          CampaignReport campaign,
                                          const synth::NormalizedSynth& ds,
                                          const CampaignOptions& options) {
  DesignResilience r;
  r.campaign = std::move(campaign);

  // Fault-free timing run with enough matrices for a steady-state T_P.
  std::unique_ptr<sim::Engine> sim = sim::make_engine(d);
  axis::StreamTestbench tb(*sim);
  const int matrices = std::max(options.matrices, 4);
  tb.run(workload::campaign_input_set(spec, matrices, options.input_seed),
         options.max_cycles * static_cast<uint64_t>(matrices));
  r.periodicity_cycles = tb.timing().periodicity_cycles;

  r.fmax_mhz = ds.normal.fmax_mhz;
  r.area = ds.area();
  r.throughput_mops =
      r.periodicity_cycles > 0 ? r.fmax_mhz / r.periodicity_cycles : 0.0;
  r.quality = r.area > 0
                  ? r.throughput_mops * 1e6 / static_cast<double>(r.area)
                  : 0.0;
  return r;
}

DesignResilience resilience_from_campaign(const Design& d,
                                          CampaignReport campaign,
                                          const synth::NormalizedSynth& ds,
                                          const CampaignOptions& options) {
  return resilience_from_campaign(d, workload::Registry::instance().get("idct"),
                                  std::move(campaign), ds, options);
}

DesignResilience evaluate_resilience(const Design& d,
                                     const workload::WorkloadSpec& spec,
                                     const std::vector<FaultSite>& sites,
                                     const synth::NormalizedSynth& ds,
                                     const CampaignOptions& options) {
  return resilience_from_campaign(d, spec, run_campaign(d, spec, sites, options),
                                  ds, options);
}

DesignResilience evaluate_resilience(const Design& d,
                                     const std::vector<FaultSite>& sites,
                                     const synth::NormalizedSynth& ds,
                                     const CampaignOptions& options) {
  return evaluate_resilience(d, workload::Registry::instance().get("idct"),
                             sites, ds, options);
}

std::string resilience_table(const std::vector<DesignResilience>& rows) {
  core::Table table({"design", "runs", "masked", "sdc", "detected", "hang",
                     "VF", "fmax", "T_P", "P(MOPS)", "A", "Q"});
  for (const DesignResilience& r : rows) {
    const CampaignCounts& c = r.campaign.counts;
    table.add_row({r.campaign.design_name, std::to_string(c.total()),
                   std::to_string(c.masked), std::to_string(c.sdc),
                   std::to_string(c.detected), std::to_string(c.hang),
                   format_fixed(100.0 * c.vulnerability(), 1) + "%",
                   format_fixed(r.fmax_mhz, 1),
                   format_fixed(r.periodicity_cycles, 1),
                   format_fixed(r.throughput_mops, 2),
                   format_grouped(r.area), format_fixed(r.quality, 1)});
  }
  return table.render();
}

}  // namespace hlshc::fault
