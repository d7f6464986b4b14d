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

/// The concrete injector: arms exactly one FaultSite on a simulator.
class SiteInjector : public sim::FaultInjector {
 public:
  explicit SiteInjector(const FaultSite& site) : site_(site) {}

  std::vector<NodeId> combinational_targets() const override {
    switch (site_.kind) {
      case FaultKind::kStuckAt0:
      case FaultKind::kStuckAt1:
      case FaultKind::kTransient:
        return {site_.node};
      default:
        return {};
    }
  }

  BitVec transform(NodeId id, const BitVec& value, uint64_t cycle) override {
    (void)id;
    const int w = value.width();
    const BitVec mask(w, static_cast<int64_t>(uint64_t{1} << site_.bit));
    switch (site_.kind) {
      case FaultKind::kStuckAt0:
        return BitVec::band(value, BitVec::bnot(mask, w), w);
      case FaultKind::kStuckAt1:
        return BitVec::bor(value, mask, w);
      case FaultKind::kTransient:
        return cycle == site_.cycle ? BitVec::bxor(value, mask, w) : value;
      default:
        return value;
    }
  }

  void at_cycle(sim::Engine& sim) override {
    if (fired_ || sim.cycle() != site_.cycle) return;
    if (site_.kind == FaultKind::kSeuReg) {
      sim.flip_reg_bit(site_.node, site_.bit);
      fired_ = true;
    } else if (site_.kind == FaultKind::kSeuMem) {
      sim.flip_mem_bit(site_.mem, site_.addr, site_.bit);
      fired_ = true;
    }
  }

 private:
  FaultSite site_;
  bool fired_ = false;
};

/// Output ports whose assertion counts as fault detection (the sticky flags
/// the hardening transforms add).
std::vector<std::string> detector_ports(const Design& d) {
  std::vector<std::string> ports;
  for (NodeId o : d.outputs()) {
    const std::string& name = d.node(o).name;
    if (name.ends_with("_err")) ports.push_back(name);
  }
  return ports;
}

}  // namespace

namespace {

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

/// Classify one site on `sim`: arm the injector, stream the input set,
/// compare against golden. Pure in (design, site, inputs) — the engine is
/// reset by the testbench each run, so engine reuse and sharding order
/// cannot influence the outcome.
Outcome classify_site(sim::Engine& sim, const workload::WorkloadSpec& spec,
                      const FaultSite& site,
                      const std::vector<idct::Block>& inputs,
                      const std::vector<idct::Block>& golden,
                      const std::vector<std::string>& detectors,
                      const CampaignOptions& options) {
  SiteInjector injector(site);
  sim.set_fault_injector(&injector);
  const int64_t run_start_ns = obs::enabled() ? obs::now_ns() : 0;
  Outcome outcome;
  try {
    axis::StreamTestbench tb(sim);
    auto got = tb.run(inputs, options.max_cycles);
    bool flagged = !tb.monitor().clean();
    for (const std::string& port : detectors)
      flagged = flagged || sim.output(port).to_bool();
    if (flagged)
      outcome = Outcome::kDetected;
    else if (workload::diff_outputs(spec, golden, got) != 0)
      outcome = Outcome::kSdc;
    else
      outcome = Outcome::kMasked;
  } catch (const sim::SimTimeout&) {
    outcome = Outcome::kHang;
  }
  sim.set_fault_injector(nullptr);
  // Per-classification run timing: the timer name carries the outcome, so
  // the metrics export shows e.g. how much wall time hangs cost (each one
  // burns a full watchdog budget).
  if (obs::enabled())
    obs::registry()
        .timer(std::string("fault.outcome.") + outcome_name(outcome))
        ->record_ns(obs::now_ns() - run_start_ns);
  return outcome;
}

/// FaultSite -> the sim-layer lane fault (sim cannot depend on src/fault,
/// so BatchSimulator speaks its own struct).
sim::LaneFault to_lane_fault(const FaultSite& site) {
  sim::LaneFault f;
  switch (site.kind) {
    case FaultKind::kSeuReg: f.kind = sim::LaneFault::Kind::kSeuReg; break;
    case FaultKind::kSeuMem: f.kind = sim::LaneFault::Kind::kSeuMem; break;
    case FaultKind::kStuckAt0: f.kind = sim::LaneFault::Kind::kStuck0; break;
    case FaultKind::kStuckAt1: f.kind = sim::LaneFault::Kind::kStuck1; break;
    case FaultKind::kTransient:
      f.kind = sim::LaneFault::Kind::kTransient;
      break;
  }
  f.node = site.node;
  f.mem = site.mem;
  f.addr = site.addr;
  f.bit = site.bit;
  f.cycle = site.cycle;
  return f;
}

/// One batched lane result -> the scalar outcome, mirroring classify_site
/// line by line: hang, then detection via monitor/sticky ports, then SDC.
/// The per-lane probes were sampled by the harness at the lane's completion
/// cycle — the same read point as the scalar post-run detector reads.
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

/// Classify one lane-group of sites in a single batched sweep: `count`
/// sites from `sites[from]`, one per lane, every lane streaming the same
/// input set. Returns how many of the group's hangs were proven early.
int classify_group(sim::BatchSimulator& bsim,
                   const workload::WorkloadSpec& spec,
                   const std::vector<FaultSite>& sites, size_t from,
                   int count, const std::vector<idct::Block>& inputs,
                   const std::vector<idct::Block>& golden,
                   const std::vector<NodeId>& detector_ids,
                   const CampaignOptions& options, uint64_t hang_check_from,
                   Outcome* out) {
  const int lanes = bsim.lanes();
  for (int l = 0; l < lanes; ++l) {
    if (l < count)
      bsim.arm_lane_fault(l, to_lane_fault(sites[from + static_cast<size_t>(l)]));
    else
      bsim.disarm_lane_fault(l);
  }
  std::vector<std::vector<idct::Block>> lane_inputs(
      static_cast<size_t>(lanes));
  for (int l = 0; l < count; ++l) lane_inputs[static_cast<size_t>(l)] = inputs;
  axis::BatchStreamTestbench tb(bsim);
  const auto results = tb.run(lane_inputs, options.max_cycles, detector_ids,
                              hang_check_from);
  if (obs::enabled())
    obs::registry()
        .counter("fault.lanes_masked")
        ->add(tb.lanes_masked_early());
  int proven = 0;
  for (int l = 0; l < count; ++l) {
    const axis::BatchLaneResult& r = results[static_cast<size_t>(l)];
    out[l] = classify_result(spec, golden, r);
    proven += r.hang_proven;
  }
  return proven;
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
  // The batched strategy only exists for the compiled engine (it executes
  // the shared ExecPlan); the interpreter keeps the scalar per-site loop.
  const bool batched = lanes > 1 &&
                       options.engine == sim::EngineKind::kCompiled &&
                       !sites.empty();
  // Work shards over the pool: lane-groups when batched, single sites
  // otherwise — the jobs clamp follows the shard count.
  const int64_t shards =
      batched ? (static_cast<int64_t>(sites.size()) + lanes - 1) / lanes
              : static_cast<int64_t>(sites.size());
  const int jobs = std::max<int64_t>(
      1, std::min<int64_t>(
             options.jobs <= 0 ? par::default_jobs() : options.jobs, shards));
  obs::Span span("fault.campaign", "fault");
  span.arg("design", d.name())
      .arg("workload", spec.name)
      .arg("sites", static_cast<int64_t>(sites.size()))
      .arg("engine", sim::engine_kind_name(options.engine))
      .arg("jobs", static_cast<int64_t>(jobs))
      .arg("lanes", static_cast<int64_t>(batched ? lanes : 1));
  for (const FaultSite& site : sites) validate_site(d, site);

  CampaignReport report;
  report.design_name = d.name();

  const std::vector<idct::Block> inputs = workload::campaign_input_set(
      spec, options.matrices, options.input_seed);
  const std::vector<idct::Block> model =
      workload::reference_outputs(spec, inputs);

  // The fault-free reference run also pre-warms every derived cache on the
  // design — validation, topo order, and (for the compiled engine) the
  // shared ExecPlan — so worker-side engine construction below is a pure
  // read of the design. Capture the plan identity to assert the "compiled
  // exactly once" contract across the whole campaign.
  std::unique_ptr<sim::Engine> sim = sim::make_engine(d, options.engine);
  if (options.deadline) sim->set_deadline(options.deadline);
  const std::shared_ptr<const void> plan_before = d.cached_exec_plan();
  std::vector<idct::Block> reference;
  // The fault-free run length is where the batched loops start proving
  // hangs (axis::HangWatch): a lane still running past it is the only hang
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

  const std::vector<std::string> detectors = detector_ports(d);
  const int total = static_cast<int>(sites.size());
  ProgressGuard progress_guard;
  // Hangs proven by a state repeat; every other hang ran to the watchdog.
  std::atomic<int> hangs_proven{0};

  if (batched) {
    // Lane-batched loops: a single worker streams every site through one
    // refilling sweep; multiple workers shard site groups of `lanes` over
    // the pool, each group classified in one BatchSimulator sweep. Either
    // way outcomes land in per-site slots and merge in site order, so
    // counts and the run log are bitwise identical to the scalar loop at
    // every {lanes, jobs} combination. (The per-outcome wall timers
    // recorded by classify_site have no per-site meaning inside a shared
    // sweep and are skipped here.)
    std::vector<NodeId> detector_ids;
    detector_ids.reserve(detectors.size());
    for (const std::string& name : detectors)
      detector_ids.push_back(d.find_output(name));
    std::vector<Outcome> outcomes(sites.size());
    const int64_t n_groups = shards;

    if (jobs == 1) {
      // Single worker: one streaming sweep over every site. Each site is a
      // job; lanes freed by early finishers refill with fresh sites once
      // half the group idles, so a hang straggler burning its whole cycle
      // budget no longer drains the group — the other lanes keep
      // classifying new sites around it. Outcomes land in per-site slots,
      // so counts and the run log stay bitwise identical to the scalar
      // loop; completions (and therefore progress ticks) arrive in lane
      // completion order, with the same once-per-cadence-multiple contract
      // as the scalar loop.
      sim::BatchSimulator bsim(d, lanes);
      if (options.deadline) bsim.set_deadline(options.deadline);
      std::vector<axis::BatchStreamTestbench::Job> batch_jobs(sites.size());
      for (size_t i = 0; i < sites.size(); ++i) {
        batch_jobs[i].inputs = inputs;
        batch_jobs[i].fault = to_lane_fault(sites[i]);
      }
      axis::BatchStreamTestbench tb(bsim);
      int completed = 0;
      tb.run_jobs(
          batch_jobs, options.max_cycles, detector_ids,
          [&](size_t job, const axis::BatchLaneResult& r) {
            outcomes[job] = classify_result(spec, golden, r);
            count_outcome(outcomes[job], &report.counts);
            hangs_proven += r.hang_proven;
            ++completed;
            if (options.progress_every > 0 &&
                completed % options.progress_every == 0)
              report_progress(options,
                              {d.name(), completed, total, report.counts},
                              &progress_guard);
          },
          hang_check_from);
      if (obs::enabled())
        obs::registry()
            .counter("fault.lane_refills")
            ->add(tb.lane_refills());
    } else {
      par::Pool pool(jobs);
      std::vector<std::unique_ptr<sim::BatchSimulator>> sims(
          static_cast<size_t>(pool.jobs()));
      std::atomic<int> completed{0};
      std::atomic<int> masked{0}, sdc{0}, detected{0}, hang{0};
      std::mutex progress_mutex;
      pool.parallel_for_worker(n_groups, [&](int worker, int64_t g) {
        std::unique_ptr<sim::BatchSimulator>& bsim =
            sims[static_cast<size_t>(worker)];
        if (!bsim) {
          bsim = std::make_unique<sim::BatchSimulator>(d, lanes);
          if (options.deadline) bsim->set_deadline(options.deadline);
        }
        const size_t from = static_cast<size_t>(g) *
                            static_cast<size_t>(lanes);
        const int count = std::min(lanes, total - static_cast<int>(from));
        hangs_proven += classify_group(*bsim, spec, sites, from, count,
                                       inputs, golden, detector_ids, options,
                                       hang_check_from, outcomes.data() + from);
        for (int l = 0; l < count; ++l) {
          switch (outcomes[from + static_cast<size_t>(l)]) {
            case Outcome::kMasked: ++masked; break;
            case Outcome::kSdc: ++sdc; break;
            case Outcome::kDetected: ++detected; break;
            case Outcome::kHang: ++hang; break;
          }
        }
        const int done = count + completed.fetch_add(count);
        const int prev = done - count;
        // Same per-site cadence contract as the scalar loop: the atomic
        // counter hands each multiple of the cadence in (prev, done] to
        // exactly one worker, which fires once per multiple.
        if (options.progress_every > 0 &&
            prev / options.progress_every != done / options.progress_every) {
          CampaignCounts running{masked.load(), sdc.load(), detected.load(),
                                 hang.load()};
          std::lock_guard<std::mutex> lock(progress_mutex);
          for (int m = (prev / options.progress_every + 1) *
                       options.progress_every;
               m <= done; m += options.progress_every)
            report_progress(options, {d.name(), m, total, running},
                            &progress_guard);
        }
      });
      for (size_t i = 0; i < sites.size(); ++i)
        count_outcome(outcomes[i], &report.counts);
    }
    if (options.keep_runs) {
      report.runs.reserve(sites.size());
      for (size_t i = 0; i < sites.size(); ++i)
        report.runs.push_back({sites[i], outcomes[i]});
    }
  } else if (jobs == 1) {
    // Serial loop: the tier-1 path, byte-identical to the pre-parallel
    // implementation (every run on the one reference engine, in order).
    if (options.keep_runs) report.runs.reserve(sites.size());
    int completed = 0;
    for (const FaultSite& site : sites) {
      const Outcome outcome =
          classify_site(*sim, spec, site, inputs, golden, detectors, options);
      count_outcome(outcome, &report.counts);
      if (options.keep_runs) report.runs.push_back({site, outcome});
      ++completed;
      if (options.progress_every > 0 &&
          completed % options.progress_every == 0)
        report_progress(options, {d.name(), completed, total, report.counts},
                        &progress_guard);
    }
  } else {
    // Parallel loop: sites shard over the pool in chunks; each worker lazily
    // builds one Engine over the shared (already-compiled) ExecPlan and
    // reuses it for all of its sites. Outcomes land in per-site slots and
    // are merged in site order afterwards, so counts and the run log are
    // bitwise identical to the serial loop at any worker count.
    par::Pool pool(jobs);
    std::vector<std::unique_ptr<sim::Engine>> engines(
        static_cast<size_t>(pool.jobs()));
    std::vector<Outcome> outcomes(sites.size());
    std::atomic<int> completed{0};
    std::atomic<int> masked{0}, sdc{0}, detected{0}, hang{0};
    std::mutex progress_mutex;
    pool.parallel_for_worker(
        static_cast<int64_t>(sites.size()), [&](int worker, int64_t i) {
          std::unique_ptr<sim::Engine>& engine =
              engines[static_cast<size_t>(worker)];
          if (!engine) {
            engine = sim::make_engine(d, options.engine);
            if (options.deadline) engine->set_deadline(options.deadline);
          }
          const Outcome outcome =
              classify_site(*engine, spec, sites[static_cast<size_t>(i)],
                            inputs, golden, detectors, options);
          outcomes[static_cast<size_t>(i)] = outcome;
          switch (outcome) {
            case Outcome::kMasked: ++masked; break;
            case Outcome::kSdc: ++sdc; break;
            case Outcome::kDetected: ++detected; break;
            case Outcome::kHang: ++hang; break;
          }
          const int done = 1 + completed.fetch_add(1);
          if (options.progress_every > 0 &&
              done % options.progress_every == 0) {
            CampaignCounts running{masked.load(), sdc.load(), detected.load(),
                                   hang.load()};
            std::lock_guard<std::mutex> lock(progress_mutex);
            report_progress(options, {d.name(), done, total, running},
                            &progress_guard);
          }
        });
    if (options.keep_runs) report.runs.reserve(sites.size());
    for (size_t i = 0; i < sites.size(); ++i) {
      count_outcome(outcomes[i], &report.counts);
      if (options.keep_runs) report.runs.push_back({sites[i], outcomes[i]});
    }
  }

  report.progress_error = progress_guard.error;
  if (obs::enabled()) {
    obs::Registry& reg = obs::registry();
    reg.counter("fault.hang_early")->add(hangs_proven.load());
    reg.counter("fault.hang_timeout")
        ->add(report.counts.hang - hangs_proven.load());
  }
  if (options.engine == sim::EngineKind::kCompiled)
    HLSHC_CHECK(d.cached_exec_plan().get() == plan_before.get(),
                "ExecPlan for '" << d.name()
                                 << "' was recompiled mid-campaign — the "
                                    "design mutated under the workers");
  obs::log_event(obs::EventLevel::kInfo, "fault.campaign",
                 {{"design", d.name()},
                  {"workload", spec.name},
                  {"sites", std::to_string(sites.size())},
                  {"jobs", std::to_string(jobs)},
                  {"lanes", std::to_string(batched ? lanes : 1)},
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
  std::unique_ptr<sim::Engine> sim = sim::make_engine(d, options.engine);
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
