#include "axis/batch.hpp"

#include <memory>

#include "base/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hlshc::axis {

namespace {

/// How a lane's run ended.
enum class LaneEnd { kDone, kHangProven, kWatchdog };

}  // namespace

bool HangWatch::repeats(const sim::BatchSimulator& sim, int lane,
                        const SourceDriver& source, const SinkDriver& sink) {
  if (sim.lane_cycle(lane) < from_ || sim.timed_fault_pending(lane))
    return false;
  key_.clear();
  sim.lane_state(lane, key_);
  source.append_state(key_);
  sink.append_state(key_);
  if (!anchored_) {
    anchored_ = true;
    power_ = 1;
    since_ = 0;
    snapshot_.swap(key_);
    return false;
  }
  if (key_ == snapshot_) return true;
  // Brent: move the snapshot up to the current key at distances 1, 2, 4,
  // ...; once it sits inside the cycle and the distance reaches the
  // period, the next lap lands on it.
  if (++since_ == power_) {
    power_ *= 2;
    since_ = 0;
    snapshot_.swap(key_);
  }
  return false;
}

std::vector<BatchLaneResult> BatchStreamTestbench::run(
    const std::vector<std::vector<idct::Block>>& inputs, uint64_t max_cycles,
    const std::vector<netlist::NodeId>& probes, uint64_t hang_check_from) {
  const int lanes = sim_.lanes();
  HLSHC_CHECK(static_cast<int>(inputs.size()) == lanes,
              "batch run got " << inputs.size() << " input sets for "
                               << lanes << " lanes");
  // One job per lane with stimulus, carrying the fault armed on that lane;
  // no more jobs than lanes means no refill, so every lane runs from reset.
  std::vector<Job> jobs;
  std::vector<int> lane_of;
  for (int l = 0; l < lanes; ++l) {
    if (inputs[static_cast<size_t>(l)].empty()) continue;
    jobs.push_back({inputs[static_cast<size_t>(l)], sim_.lane_fault(l)});
    lane_of.push_back(l);
  }
  std::vector<BatchLaneResult> job_results =
      run_jobs(jobs, max_cycles, probes, {}, hang_check_from);
  std::vector<BatchLaneResult> results(static_cast<size_t>(lanes));
  for (size_t j = 0; j < jobs.size(); ++j)
    results[static_cast<size_t>(lane_of[j])] = std::move(job_results[j]);
  return results;
}

std::vector<BatchLaneResult> BatchStreamTestbench::run_jobs(
    const std::vector<Job>& jobs, uint64_t max_cycles,
    const std::vector<netlist::NodeId>& probes,
    const std::function<void(size_t, const BatchLaneResult&)>& on_done,
    uint64_t hang_check_from) {
  const int lanes = sim_.lanes();
  obs::Span span("testbench.batch_stream", "axis");
  span.arg("design", sim_.design().name())
      .arg("lanes", static_cast<int64_t>(lanes))
      .arg("jobs", static_cast<int64_t>(jobs.size()));
  refills_ = 0;

  std::vector<BatchLaneResult> results(jobs.size());
  std::vector<std::unique_ptr<SourceDriver>> sources(
      static_cast<size_t>(lanes));
  std::vector<std::unique_ptr<SinkDriver>> sinks(static_cast<size_t>(lanes));
  std::vector<std::unique_ptr<Monitor>> monitors(static_cast<size_t>(lanes));
  std::vector<HangWatch> watches(static_cast<size_t>(lanes));
  std::vector<size_t> job_of(static_cast<size_t>(lanes), 0);
  std::vector<size_t> want(static_cast<size_t>(lanes), 0);
  std::vector<char> running(static_cast<size_t>(lanes), 0);
  size_t next = 0;
  int running_count = 0;

  // Fresh driver/monitor state machines over the lane view, exactly as
  // StreamTestbench constructs them, plus the job's stimulus queue.
  auto bind_lane = [&](int l) {
    const size_t sl = static_cast<size_t>(l);
    sources[sl] = std::make_unique<SourceDriver>(sim_.lane(l));
    sinks[sl] = std::make_unique<SinkDriver>(sim_.lane(l));
    monitors[sl] = std::make_unique<Monitor>(sim_.lane(l));
    watches[sl].arm(hang_check_from);
    for (const idct::Block& b : jobs[job_of[sl]].inputs)
      sources[sl]->queue(b);
    want[sl] = jobs[job_of[sl]].inputs.size();
    running[sl] = 1;
    ++running_count;
  };

  // Initial fill: arm before reset — the same contract as run(), so
  // reset_all fires each lane's cycle-0 SEU on the reset state. Lanes with
  // no job idle, disarmed and undriven, to the end of the sweep.
  for (int l = 0; l < lanes; ++l) {
    if (static_cast<size_t>(l) < jobs.size())
      sim_.arm_lane_fault(l, jobs[static_cast<size_t>(l)].fault);
    else
      sim_.disarm_lane_fault(l);
  }
  sim_.reset_all();
  next = std::min(static_cast<size_t>(lanes), jobs.size());
  for (size_t j = 0; j < next; ++j) {
    job_of[j] = j;
    bind_lane(static_cast<int>(j));
  }

  auto finish_lane = [&](int l, LaneEnd end) {
    const size_t sl = static_cast<size_t>(l);
    const size_t j = job_of[sl];
    BatchLaneResult& r = results[j];
    r.matrices = sinks[sl]->matrices();
    r.clean = monitors[sl]->clean();
    r.hung = end != LaneEnd::kDone;
    r.hang_proven = end == LaneEnd::kHangProven;
    // Where StreamTestbench leaves an engine: the settled state right
    // after the lane's final step.
    r.probes.reserve(probes.size());
    for (netlist::NodeId p : probes) r.probes.push_back(sim_.value_i64(l, p));
    r.timing = derive_stream_timing(static_cast<int>(want[sl]),
                                    sim_.lane_cycle(l),
                                    sources[sl]->matrix_start_cycles(),
                                    sinks[sl]->matrix_end_cycles());
    running[sl] = 0;
    --running_count;
    // The lane idles (fault disarmed, no stimulus) until the refill policy
    // hands it the next job, or to the end of the sweep once none is left.
    sim_.disarm_lane_fault(l);
    if (on_done) on_done(j, r);
  };

  while (running_count > 0 || next < jobs.size()) {
    // Per-lane watchdog on the lane's own clock — StreamTestbench's
    // max_cycles contract, so a hang classifies at the same budget
    // regardless of when its lane started.
    for (int l = 0; l < lanes; ++l)
      if (running[static_cast<size_t>(l)] &&
          sim_.lane_cycle(l) >= max_cycles)
        finish_lane(l, LaneEnd::kWatchdog);
    // Refill: once at least half the lanes sit idle, every idle lane
    // restarts on the next pending job, in ascending lane order —
    // deterministic at any lane count. While jobs are pending every lane
    // has had one, so a lane that is not running is idle.
    if (next < jobs.size() && 2 * running_count <= lanes) {
      for (int l = 0; l < lanes && next < jobs.size(); ++l) {
        const size_t sl = static_cast<size_t>(l);
        if (running[sl]) continue;
        job_of[sl] = next++;
        sim_.refill_lane(l, jobs[job_of[sl]].fault);
        bind_lane(l);
        ++refills_;
      }
    }
    if (running_count == 0) continue;
    // One StreamTestbench cycle, in its order, for every running lane:
    // drive, settle all lanes together, consume, check, clock edge.
    for (int l = 0; l < lanes; ++l) {
      if (!running[static_cast<size_t>(l)]) continue;
      sources[static_cast<size_t>(l)]->pre_cycle();
      sinks[static_cast<size_t>(l)]->pre_cycle();
    }
    sim_.eval_all();
    for (int l = 0; l < lanes; ++l) {
      if (!running[static_cast<size_t>(l)]) continue;
      sources[static_cast<size_t>(l)]->post_eval();
      sinks[static_cast<size_t>(l)]->post_eval();
      monitors[static_cast<size_t>(l)]->sample();
    }
    sim_.step_all();
    for (int l = 0; l < lanes; ++l) {
      const size_t sl = static_cast<size_t>(l);
      if (!running[sl]) continue;
      if (sinks[sl]->matrices().size() >= want[sl])
        finish_lane(l, LaneEnd::kDone);
      else if (watches[sl].repeats(sim_, l, *sources[sl], *sinks[sl]))
        finish_lane(l, LaneEnd::kHangProven);
    }
  }

  if (obs::enabled()) {
    obs::Registry& reg = obs::registry();
    reg.counter("sim.batch.sweeps")->add(1);
    reg.counter("sim.batch.lanes")->add(static_cast<int64_t>(jobs.size()));
    reg.counter("sim.batch.refills")->add(refills_);
  }
  span.arg("cycles", static_cast<int64_t>(sim_.cycle()))
      .arg("refills", static_cast<int64_t>(refills_));
  return results;
}

}  // namespace hlshc::axis
