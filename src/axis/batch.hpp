// axis::BatchStreamTestbench — the lockstep lane harness over
// sim::BatchSimulator, and the one lane loop every lane-batched run goes
// through (fault campaigns at any {lanes, jobs}, lane-batched evaluation,
// the throughput benches).
//
// Each lane gets its own SourceDriver / SinkDriver / Monitor instance bound
// to that lane's PortAccess view — the *same* driver and monitor state
// machines StreamTestbench uses for a sim::Engine — and all lanes advance
// through one shared step_all() per cycle. Because a lane's stimulus, its
// handshake decisions and its protocol checks run exactly the
// StreamTestbench code over exactly the Engine per-cycle protocol, a lane's
// captured matrices, violations and timing are bitwise-identical to the
// same run on the interpreter oracle.
//
// Divergence handling: a lane is done when its sink has collected its
// quota of matrices; done lanes stop being driven and sampled and either
// take the next pending job (refill) or are retired from the simulator —
// the lane-major arrays compact, so the remaining sweep only pays for the
// lanes still running and a single straggler degrades toward 1-lane cost.
// A lane still unfinished at max_cycles on its own clock is flagged hung
// (StreamTestbench throws sim::SimTimeout for the same condition; campaign
// code maps both to the hang outcome).
//
// Hang proof: given a check start, a lane whose full state exactly repeats
// (HangWatch) is finished as hung on the spot instead of running on to
// max_cycles — the outcome the watchdog would reach, proven early.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "axis/testbench.hpp"
#include "sim/batch.hpp"

namespace hlshc::axis {

/// Check start meaning "never": the lane runs to the watchdog.
inline constexpr uint64_t kNoHangCheck = std::numeric_limits<uint64_t>::max();

/// Exact hang proof for one lane, by Brent's cycle detection over the
/// lane's state key: registers, memory words and held input values
/// (sim::BatchSimulator::lane_state), the source position and the sink's
/// delivered count and back-pressure phase. Design plus testbench is a
/// deterministic finite-state system, and the key is everything that
/// steers it, so a key that repeats means the lane is periodic from there
/// on. Its delivered count, part of the key and monotone, is then frozen
/// below the quota for good: the lane provably never finishes, which is
/// exactly the watchdog's verdict, reached without running to it.
///
/// The Monitor is not in the key: it only observes, and a hung lane's
/// outcome ignores its verdict. Nor is the sink's partly collected frame:
/// TLAST alone closes a matrix, so the frame changes contents, not timing.
///
/// One snapshot per lane, re-anchored at power-of-two distances, finds a
/// cycle of period p entered after mu cycles within O(mu + p) checks.
/// Checks start once the lane clock reaches `from` and its timed fault (an
/// SEU or a transient) has fired — before that, the same state can lead to
/// different futures.
class HangWatch {
 public:
  /// Starts watching a fresh trajectory of the lane.
  void arm(uint64_t from) {
    from_ = from;
    anchored_ = false;
  }

  /// Call once per cycle, after the clock edge. True once the lane's key
  /// exactly repeats an earlier one.
  bool repeats(const sim::BatchSimulator& sim, int lane,
               const SourceDriver& source, const SinkDriver& sink);

 private:
  uint64_t from_ = kNoHangCheck;
  bool anchored_ = false;
  uint64_t power_ = 1;  ///< distance at which the snapshot is re-anchored
  uint64_t since_ = 0;  ///< checks since the snapshot was taken
  std::vector<int64_t> snapshot_;
  std::vector<int64_t> key_;
};

/// One lane's run result.
struct BatchLaneResult {
  std::vector<idct::Block> matrices;
  bool clean = true;   ///< no protocol violations up to lane completion
  bool hung = false;   ///< lane did not finish within max_cycles
  /// Hung by an exact state repeat (HangWatch) before max_cycles; false
  /// for a lane the watchdog stopped.
  bool hang_proven = false;
  /// Probe node values sampled at lane completion (the settled state a
  /// StreamTestbench run ends on), canonical int64 per probe.
  std::vector<int64_t> probes;
  StreamTiming timing;
};

class BatchStreamTestbench {
 public:
  explicit BatchStreamTestbench(sim::BatchSimulator& sim) : sim_(sim) {}

  /// Push `inputs[l]` through lane l under the fault armed on it (an empty
  /// vector idles the lane and leaves its result default); runs until every
  /// lane collected its matrices or `max_cycles` elapse (stragglers come
  /// back with hung=true — no exception, other lanes' results stay valid).
  /// `probes` names nodes to sample per lane at its completion cycle. From
  /// lane cycle `hang_check_from` on, a lane whose state repeats
  /// (HangWatch) finishes hung at once. One run_jobs() call with a job per
  /// lane; lanes are disarmed as they finish.
  std::vector<BatchLaneResult> run(
      const std::vector<std::vector<idct::Block>>& inputs,
      uint64_t max_cycles,
      const std::vector<netlist::NodeId>& probes = {},
      uint64_t hang_check_from = kNoHangCheck);

  /// One unit of streamed work: an input set plus the fault armed for its
  /// whole run (kNone = clean). Each job's result is bitwise-identical to
  /// a StreamTestbench run of the same fault/inputs from reset.
  struct Job {
    std::vector<idct::Block> inputs;
    sim::LaneFault fault;
  };

  /// Streaming variant of run(): pulls `jobs` through the lane pool,
  /// refilling freed lanes with fresh jobs instead of draining a whole
  /// group behind a straggler. Lanes that finish (or hang — each lane gets
  /// its own `max_cycles` budget on its own clock) go idle; once at least
  /// half the live lanes are idle (or no lane is left running), every idle
  /// lane is refilled via sim::BatchSimulator::refill_lane with the next
  /// pending jobs, in ascending lane order. Results land in job order.
  /// `on_done(job, result)` fires as each job completes, in completion
  /// order — campaign progress hooks ride on it. `hang_check_from` is as
  /// in run(), on each lane's own clock.
  std::vector<BatchLaneResult> run_jobs(
      const std::vector<Job>& jobs, uint64_t max_cycles,
      const std::vector<netlist::NodeId>& probes = {},
      const std::function<void(size_t, const BatchLaneResult&)>& on_done =
          {},
      uint64_t hang_check_from = kNoHangCheck);

  /// Mid-sweep lane refills performed by the last run_jobs().
  int lane_refills() const { return refills_; }

 private:
  sim::BatchSimulator& sim_;
  int refills_ = 0;
};

}  // namespace hlshc::axis
