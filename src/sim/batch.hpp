// sim::BatchSimulator — lane-batched execution of one shared ExecPlan, the
// repository's one compiled simulation executor.
//
// A fault campaign (or a multi-stimulus evaluation) runs the *same* design
// over N independent input/fault trajectories. This backend fetches each
// 48-byte ExecInstr once and applies it across `lanes` independent runs in
// an inner loop the compiler can auto-vectorize:
//
//   * value storage is lane-major per slot: slot s of lane l lives at
//     values_[s * lanes + l], in 64-byte-aligned contiguous arrays, so the
//     per-instruction inner loop reads/writes `lanes` consecutive words;
//   * the per-cycle loop is specialized for fixed trip counts (1/2/4/8/16/32
//     lanes) with a generic path for any other count, and the whole
//     kernel set is compiled per-ISA (baseline + x86-64-v3/AVX2) with the
//     widest supported set picked at runtime (sim/batch_kernels.hpp);
//   * registers, memories and the commit schedules are replicated per lane;
//   * per-lane poke/peek/reset APIs (poke_input(lane, id, v),
//     value(lane, id), step_all()) advance all lanes in lockstep.
//
// At one lane it is also the scalar compiled engine: make_batch_engine
// wraps lane 0 of a 1-lane batch as the sim::Engine behind
// EngineKind::kCompiled (VCD, activity profiling, flips, mem peek/poke,
// watchdog and deadline all go through the Engine base).
//
// Fault injection is per-lane: each lane owns its armed site (LaneFault) and
// flip schedule, applied through the same sim::fault_bit transform the
// interpreter uses, and the cycle protocol reproduces Engine::reset()/step()
// ordering exactly (including the double eval per testbench cycle and the
// cycle-0 SEU flip on reset), so every lane's trajectory is bitwise-
// identical to the same run on the interpreter oracle (sim::Simulator) —
// asserted every-node-every-cycle by tests/batch_test.
//
// Lanes that diverge (finish, detect, hang) are masked out by the harness
// (axis::BatchStreamTestbench) rather than forcing a batch-wide slow path:
// the batch keeps stepping at full width, and a finished lane idles —
// fault disarmed, ports undriven, values unread — until refill_lane hands
// it a fresh trajectory or the sweep ends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "base/bitvec.hpp"
#include "base/deadline.hpp"
#include "netlist/exec_plan.hpp"
#include "netlist/ir.hpp"
#include "sim/engine.hpp"

namespace hlshc::sim {

/// Minimal cache-line-aligned allocator for the lane-major value arrays:
/// a slot's lane group starts on a 64-byte boundary (for the common lane
/// batch), so the auto-vectorized inner loops issue aligned loads/stores.
template <typename T>
struct CacheAlignedAlloc {
  using value_type = T;
  CacheAlignedAlloc() = default;
  template <typename U>
  CacheAlignedAlloc(const CacheAlignedAlloc<U>&) {}
  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{64}));
  }
  void deallocate(T* p, size_t) {
    ::operator delete(p, std::align_val_t{64});
  }
  template <typename U>
  bool operator==(const CacheAlignedAlloc<U>&) const {
    return true;
  }
};

/// Lane-major value storage: 64-byte aligned, contiguous.
using LaneVec = std::vector<int64_t, CacheAlignedAlloc<int64_t>>;

class BatchSimulator {
 public:
  /// Compiles (or reuses) the design's ExecPlan and replicates state for
  /// `lanes` independent runs. `lanes` must be in [1, 64].
  BatchSimulator(const netlist::Design& design, int lanes);

  const netlist::Design& design() const { return design_; }
  int lanes() const { return lanes_; }
  uint64_t cycle() const { return cycle_; }
  /// One lane's own cycle count: the sweep cycle minus the lane's start
  /// cycle. Equal to cycle() until the lane is refilled mid-sweep, after
  /// which the lane restarts from 0 — so a refilled lane's drivers, fault
  /// schedule, and timing all see the same cycle numbers a fresh run from
  /// reset would.
  uint64_t lane_cycle(int lane) const {
    return cycle_ - base_[static_cast<size_t>(lane)];
  }

  /// Engine::reset() for every lane: registers to init, memories/inputs to
  /// zero, cycle counter to 0, then each lane's cycle-0 SEU flip.
  void reset_all();

  /// Combinational settle of all lanes (idempotent for fixed inputs/state).
  void eval_all();

  /// Engine::step() for every lane in lockstep: settle, commit_edge(),
  /// settle again. Polls the armed deadline every 256 cycles like
  /// sim::Engine.
  void step_all();

  /// The clock edge alone: latch every lane, advance the cycle counter and
  /// apply due SEU flips; the next eval_all() settles the new cycle.
  void commit_edge();

  /// Drive one lane's Input node (canonicalized exactly like Engine::poke).
  void poke_input(int lane, netlist::NodeId id, int64_t value);

  /// One lane's value of any node after the most recent settle.
  BitVec value(int lane, netlist::NodeId id) const;
  int64_t value_i64(int lane, netlist::NodeId id) const {
    return values_[at(static_cast<size_t>(id), lane)];
  }

  /// Arms `fault` on one lane (replacing whatever was armed), healing any
  /// const slot the previous fault had rewritten. kNone disarms. The
  /// fault's cycle is interpreted on the lane's own clock (lane_cycle), so
  /// arming after a refill behaves exactly like arming before reset_all.
  void arm_lane_fault(int lane, const LaneFault& fault);
  void disarm_lane_fault(int lane) { arm_lane_fault(lane, LaneFault{}); }
  /// The fault armed on a lane, its cycle on the lane's own clock.
  LaneFault lane_fault(int lane) const;

  /// Flips the register or memory bit `seu` names in one lane's state,
  /// now (an SEU poke; the target must be valid, see validate_fault).
  void flip_state_bit(int lane, const LaneFault& seu);

  /// One lane's memory word, canonical int64; poke canonicalizes to the
  /// memory's width.
  int64_t mem_peek(int lane, int mem, int addr) const;
  void mem_poke(int lane, int mem, int addr, int64_t value);

  /// Copies one lane's value of every node, canonical int64 per node id,
  /// into `out` (node_count() entries).
  void snapshot_values(int lane, int64_t* out) const;

  /// Restarts one lane mid-sweep with a fresh trajectory: per-lane
  /// Engine::reset() (registers to init, memory/inputs to zero, consts
  /// rematerialized), the lane clock rebased to 0, `fault` armed on the
  /// new clock, and a lane-cycle-0 SEU fired on the reset state — the
  /// refilled lane's trajectory is bitwise-identical to a fresh run of
  /// the same fault from reset. Other lanes are unaffected. This is what
  /// lets a fault campaign stream fresh sites into lanes freed by early
  /// finishers instead of draining a whole group behind a hang straggler.
  void refill_lane(int lane, const LaneFault& fault);

  /// Appends one lane's full simulation state to `out`: every register,
  /// every memory word, then the value each input port holds (a port the
  /// harness leaves unpoked keeps its last value into the next settle).
  /// Together with the harness's driver state and an armed fault that is
  /// no longer timed (see timed_fault_pending), this fixes the lane's whole
  /// future — the key axis::HangWatch compares to prove a hang.
  void lane_state(int lane, std::vector<int64_t>& out) const;

  /// True while the lane's armed fault still depends on the clock: an SEU
  /// that has not flipped yet, or a transient whose cycle has not passed.
  /// Stuck-at faults act the same on every cycle and are never pending.
  bool timed_fault_pending(int lane) const;

  /// Wall-clock budget shared by all lanes; nullptr (default) disarms.
  void set_deadline(std::shared_ptr<const Deadline> deadline) {
    deadline_ = std::move(deadline);
  }

  /// Port-level view of one lane, compatible with every sim::Engine
  /// consumer in src/axis (drivers, monitors). Valid for the simulator's
  /// lifetime.
  PortAccess& lane(int l);

 private:
  /// One lane's port-level adapter.
  class LaneView final : public PortAccess {
   public:
    const netlist::Design& design() const override { return sim_->design(); }
    void poke(netlist::NodeId input, int64_t value) override {
      sim_->poke_input(lane_, input, value);
    }
    BitVec value(netlist::NodeId id) const override {
      return sim_->value(lane_, id);
    }
    uint64_t cycle() const override { return sim_->lane_cycle(lane_); }

   private:
    friend class BatchSimulator;
    BatchSimulator* sim_ = nullptr;
    int lane_ = 0;
  };

  /// One armed combinational transform, pre-resolved for the exec loop.
  struct CombEntry {
    int32_t slot = 0;  ///< target node / value slot
    int32_t lane = 0;
    LaneFault::Kind kind = LaneFault::Kind::kNone;
    int bit = 0;
    uint64_t cycle = 0;   ///< transient fire cycle
    int width = 1;        ///< target node width
    bool is_input = false;
    bool is_const = false;
    int64_t imm = 0;  ///< const rematerialization value (is_const only)
  };

  void eval_stream_injected();
  void apply_comb_entry(const CombEntry& e);
  void commit_all();
  void seu_flips();          ///< fire due SEU flips (cycle_ == fault.cycle)
  void restore_consts(int lane);
  void rebuild_comb_index();
  /// Index of row `row` (a value/state slot or a memory word), lane `lane`.
  size_t at(size_t row, int lane) const {
    return row * static_cast<size_t>(lanes_) + static_cast<size_t>(lane);
  }

  const netlist::Design& design_;
  std::shared_ptr<const netlist::ExecPlan> plan_;
  /// ISA- and lane-count-specialized stream kernel, selected once at
  /// construction (see sim/batch_kernels.hpp for the dispatch story).
  void (*stream_kernel_)(const netlist::ExecInstr*, size_t, int64_t*,
                         int64_t*, std::vector<LaneVec>*, int) = nullptr;
  int lanes_ = 1;
  uint64_t cycle_ = 0;
  bool evaluated_ = false;
  std::shared_ptr<const Deadline> deadline_;

  // Lane-major storage: slot s, lane l at s * lanes_ + l.
  LaneVec values_;
  LaneVec state_;
  std::vector<LaneVec> mem_;  ///< word w, lane l at w * lanes_ + l

  /// Sweep cycle at which each lane's current trajectory started (0 after
  /// reset_all; the refill cycle after refill_lane). Armed fault cycles
  /// are stored rebased onto the sweep clock: faults_[l].cycle ==
  /// base_[l] + the lane-relative cycle the caller armed.
  std::vector<uint64_t> base_;

  std::vector<LaneFault> faults_;      ///< per lane; kNone = disarmed
  std::vector<uint8_t> seu_fired_;     ///< per lane: SEU applied
  std::vector<CombEntry> comb_entries_;      ///< armed comb faults, all lanes
  std::vector<uint8_t> comb_slot_flag_;      ///< per slot: any lane armed
  bool comb_armed_ = false;
  std::vector<LaneView> views_;
};

/// The sim::Engine behind EngineKind::kCompiled: lane 0 of a 1-lane
/// BatchSimulator. The design must outlive the engine.
std::unique_ptr<Engine> make_batch_engine(const netlist::Design& design);

}  // namespace hlshc::sim
