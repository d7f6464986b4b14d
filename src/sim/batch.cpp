#include "sim/batch.hpp"

#include <algorithm>

#include "base/check.hpp"
#include "sim/batch_kernels.hpp"

namespace hlshc::sim {

using netlist::ExecInstr;
using netlist::ExecPlan;
using netlist::MemCommit;
using netlist::MemShape;
using netlist::NodeId;
using netlist::Op;
using netlist::RegCommit;

namespace {

inline int64_t canon(int width, int64_t v) {
  return BitVec(width, v).to_int64();
}

}  // namespace

BatchSimulator::BatchSimulator(const netlist::Design& design, int lanes)
    : design_(design), plan_(ExecPlan::for_design(design)), lanes_(lanes) {
  HLSHC_CHECK(lanes >= 1 && lanes <= 64,
              "lane count " << lanes << " outside [1, 64]");
  design_.validate();
  const size_t l = static_cast<size_t>(lanes_);
  values_.assign(plan_->slot_count() * l, 0);
  state_.assign(plan_->slot_count() * l, 0);
  for (const MemShape& m : plan_->mem_shapes())
    mem_.emplace_back(static_cast<size_t>(m.depth) * l, int64_t{0});
  base_.assign(l, 0);
  faults_.assign(l, LaneFault{});
  seu_fired_.assign(l, 0);
  comb_slot_flag_.assign(plan_->slot_count(), 0);
  views_.resize(l);
  for (int i = 0; i < lanes_; ++i) {
    views_[static_cast<size_t>(i)].sim_ = this;
    views_[static_cast<size_t>(i)].lane_ = i;
  }
  stream_kernel_ = select_stream_kernel(lanes_);
  reset_all();
}

PortAccess& BatchSimulator::lane(int l) {
  HLSHC_CHECK(l >= 0 && l < lanes_,
              "lane " << l << " outside [0, " << lanes_ << ')');
  return views_[static_cast<size_t>(l)];
}

void BatchSimulator::restore_consts(int lane) {
  // Constants are hoisted out of the per-cycle stream; rematerialize this
  // lane's const slots so a transform armed earlier cannot outlive itself
  // (the interpreter recomputes every const on every eval).
  for (const ExecInstr& in : plan_->const_instrs())
    values_[at(static_cast<size_t>(in.dst), lane)] = in.imm;
}

void BatchSimulator::reset_all() {
  const size_t L = static_cast<size_t>(lanes_);
  for (const RegCommit& rc : plan_->reg_commits()) {
    int64_t* s = state_.data() + static_cast<size_t>(rc.reg) * L;
    std::fill(s, s + L, rc.init);
  }
  for (LaneVec& mem : mem_) std::fill(mem.begin(), mem.end(), int64_t{0});
  for (NodeId in : design_.inputs()) {
    int64_t* v = values_.data() + static_cast<size_t>(in) * L;
    std::fill(v, v + L, int64_t{0});
  }
  for (int i = 0; i < lanes_; ++i) restore_consts(i);
  // Re-anchor every armed fault onto the fresh sweep clock: faults_ stores
  // sweep-absolute cycles (base_[l] + lane-relative), and both collapse to
  // the caller's lane-relative cycle at base 0.
  for (int i = 0; i < lanes_; ++i) {
    const size_t sl = static_cast<size_t>(i);
    faults_[sl].cycle -= base_[sl];
    base_[sl] = 0;
  }
  rebuild_comb_index();
  cycle_ = 0;
  evaluated_ = false;
  std::fill(seu_fired_.begin(), seu_fired_.end(), uint8_t{0});
  // Engine::reset() ends with injector_->at_cycle(): cycle-0 SEUs land on
  // the reset state, before the first settle.
  seu_flips();
}

void BatchSimulator::poke_input(int lane, NodeId id, int64_t value) {
  HLSHC_CHECK(lane >= 0 && lane < lanes_,
              "lane " << lane << " outside [0, " << lanes_ << ')');
  const netlist::Node& n = design_.node(id);
  HLSHC_CHECK(n.op == Op::Input,
              "poke target " << id << " is not an input of design '"
                             << design_.name() << '\'');
  values_[at(static_cast<size_t>(id), lane)] = canon(n.width, value);
  evaluated_ = false;
}

BitVec BatchSimulator::value(int lane, NodeId id) const {
  return BitVec(design_.node(id).width, value_i64(lane, id));
}

int64_t BatchSimulator::mem_peek(int lane, int mem, int addr) const {
  return mem_[static_cast<size_t>(mem)][at(static_cast<size_t>(addr), lane)];
}

void BatchSimulator::mem_poke(int lane, int mem, int addr, int64_t value) {
  mem_[static_cast<size_t>(mem)][at(static_cast<size_t>(addr), lane)] =
      canon(plan_->mem_shapes()[static_cast<size_t>(mem)].width, value);
  evaluated_ = false;
}

void BatchSimulator::snapshot_values(int lane, int64_t* out) const {
  const size_t L = static_cast<size_t>(lanes_);
  for (size_t s = 0, p = at(0, lane); s < plan_->slot_count(); ++s, p += L)
    out[s] = values_[p];
}

void BatchSimulator::lane_state(int lane, std::vector<int64_t>& out) const {
  const size_t L = static_cast<size_t>(lanes_);
  for (const RegCommit& rc : plan_->reg_commits())
    out.push_back(state_[at(static_cast<size_t>(rc.reg), lane)]);
  for (const LaneVec& mem : mem_)
    for (size_t w = at(0, lane); w < mem.size(); w += L) out.push_back(mem[w]);
  for (NodeId in : design_.inputs())
    out.push_back(values_[at(static_cast<size_t>(in), lane)]);
}

bool BatchSimulator::timed_fault_pending(int lane) const {
  const LaneFault& f = faults_[static_cast<size_t>(lane)];
  switch (f.kind) {
    case LaneFault::Kind::kSeuReg:
    case LaneFault::Kind::kSeuMem:
      return !seu_fired_[static_cast<size_t>(lane)];
    case LaneFault::Kind::kTransient:
      // Applied in the settles of sweep cycle f.cycle; once the clock has
      // moved past it no later settle sees the flip.
      return cycle_ <= f.cycle;
    default:
      return false;
  }
}

// ---- execution -------------------------------------------------------------

StreamKernelFn select_stream_kernel(int lanes) {
  // One-time CPUID probe per construction; the result is stored in the
  // simulator's function pointer, so the hot path never re-tests.
#if defined(HLSHC_BATCH_HAVE_V4)
  if (__builtin_cpu_supports("x86-64-v4")) return select_stream_kernel_v4(lanes);
#endif
#if defined(HLSHC_BATCH_HAVE_V3)
  if (__builtin_cpu_supports("x86-64-v3")) return select_stream_kernel_v3(lanes);
#endif
  return select_stream_kernel_base(lanes);
}

void BatchSimulator::apply_comb_entry(const CombEntry& e) {
  int64_t& v = values_[at(static_cast<size_t>(e.slot), e.lane)];
  if (e.kind != LaneFault::Kind::kTransient || cycle_ == e.cycle)
    v = fault_bit(e.kind, e.bit, e.width, v);
}

void BatchSimulator::eval_stream_injected() {
  // Inputs and constants have no per-cycle instruction; flagged inputs
  // transform in place, flagged constants rematerialize from the immediate
  // and then transform (the interpreter's recompute-then-transform order).
  for (const CombEntry& e : comb_entries_) {
    if (e.is_const)
      values_[at(static_cast<size_t>(e.slot), e.lane)] = e.imm;
    if (e.is_input || e.is_const) apply_comb_entry(e);
  }
  const uint8_t* flag = comb_slot_flag_.data();
  for (const ExecInstr& in : plan_->instrs()) {
    exec_instr_lanes(in, values_.data(), state_.data(), &mem_, lanes_);
    if (flag[in.dst]) {
      for (const CombEntry& e : comb_entries_)
        if (e.slot == in.dst && !e.is_input && !e.is_const)
          apply_comb_entry(e);
    }
  }
}

void BatchSimulator::eval_all() {
  if (!comb_armed_)
    stream_kernel_(plan_->instrs().data(), plan_->instrs().size(),
                   values_.data(), state_.data(), &mem_, lanes_);
  else
    eval_stream_injected();
  evaluated_ = true;
}

void BatchSimulator::commit_all() {
  const size_t L = static_cast<size_t>(lanes_);
  // Latch registers: reads go to the pre-edge value slots, writes to the
  // separate state array, so ordering within the loop cannot matter.
  for (const RegCommit& rc : plan_->reg_commits()) {
    int64_t* s = state_.data() + static_cast<size_t>(rc.reg) * L;
    const int64_t* next = values_.data() + static_cast<size_t>(rc.next) * L;
    if (rc.enable < 0) {
      for (size_t l = 0; l < L; ++l) s[l] = next[l];
    } else {
      const int64_t* en = values_.data() + static_cast<size_t>(rc.enable) * L;
      for (size_t l = 0; l < L; ++l)
        if (en[l] != 0) s[l] = next[l];
    }
  }
  // Commit memory writes in node order (later writes win on collisions).
  for (const MemCommit& mc : plan_->mem_commits()) {
    LaneVec& mem = mem_[static_cast<size_t>(mc.mem)];
    const size_t depth = mem.size() / L;
    const int64_t* en = values_.data() + static_cast<size_t>(mc.enable) * L;
    const int64_t* addr = values_.data() + static_cast<size_t>(mc.addr) * L;
    const int64_t* data = values_.data() + static_cast<size_t>(mc.data) * L;
    for (size_t l = 0; l < L; ++l) {
      if (en[l] == 0) continue;
      uint64_t w = (static_cast<uint64_t>(addr[l]) & mc.addr_mask) % depth;
      mem[w * L + l] = data[l];
    }
  }
}

void BatchSimulator::flip_state_bit(int lane, const LaneFault& seu) {
  const bool reg = seu.kind == LaneFault::Kind::kSeuReg;
  int64_t& w = reg ? state_[at(static_cast<size_t>(seu.node), lane)]
                   : mem_[static_cast<size_t>(seu.mem)]
                         [at(static_cast<size_t>(seu.addr), lane)];
  w = fault_bit(seu.kind, seu.bit,
                reg ? design_.node(seu.node).width
                    : plan_->mem_shapes()[static_cast<size_t>(seu.mem)].width,
                w);
  evaluated_ = false;
}

void BatchSimulator::seu_flips() {
  for (int l = 0; l < lanes_; ++l) {
    const LaneFault& f = faults_[static_cast<size_t>(l)];
    if (!f.seu() || seu_fired_[static_cast<size_t>(l)] || cycle_ != f.cycle)
      continue;
    flip_state_bit(l, f);
    seu_fired_[static_cast<size_t>(l)] = 1;
  }
}

void BatchSimulator::commit_edge() {
  commit_all();
  ++cycle_;
  seu_flips();
  evaluated_ = false;
}

void BatchSimulator::step_all() {
  // Deadline poll every 256 cycles, exactly like Engine::step(): one clock
  // read per poll keeps multi-million-cycle sweeps interruptible.
  if (deadline_ && (cycle_ & 0xFF) == 0 && deadline_->expired())
    deadline_->check("batched simulation of design '" + design_.name() +
                     '\'');
  if (!evaluated_) eval_all();
  commit_edge();
  eval_all();
}

void BatchSimulator::rebuild_comb_index() {
  comb_entries_.clear();
  std::fill(comb_slot_flag_.begin(), comb_slot_flag_.end(), uint8_t{0});
  comb_armed_ = false;
  for (int l = 0; l < lanes_; ++l) {
    const LaneFault& f = faults_[static_cast<size_t>(l)];
    if (!f.combinational()) continue;
    const netlist::Node& n = design_.node(f.node);
    CombEntry e;
    e.slot = static_cast<int32_t>(f.node);
    e.lane = l;
    e.kind = f.kind;
    e.bit = f.bit;
    e.cycle = f.cycle;
    e.width = n.width;
    e.is_input = n.op == Op::Input;
    e.is_const = n.op == Op::Const;
    e.imm = n.imm;
    comb_entries_.push_back(e);
    if (!e.is_input && !e.is_const) comb_slot_flag_[static_cast<size_t>(e.slot)] = 1;
    comb_armed_ = true;
  }
}

void BatchSimulator::arm_lane_fault(int lane, const LaneFault& fault) {
  HLSHC_CHECK(lane >= 0 && lane < lanes_,
              "lane " << lane << " outside [0, " << lanes_ << ')');
  validate_fault(design_, fault);
  LaneFault rebased = fault;
  rebased.cycle += base_[static_cast<size_t>(lane)];  // lane -> sweep clock
  faults_[static_cast<size_t>(lane)] = rebased;
  seu_fired_[static_cast<size_t>(lane)] = 0;
  // Heal any const slot a previously armed transform rewrote.
  restore_consts(lane);
  rebuild_comb_index();
  evaluated_ = false;
}

LaneFault BatchSimulator::lane_fault(int lane) const {
  LaneFault f = faults_[static_cast<size_t>(lane)];
  f.cycle -= base_[static_cast<size_t>(lane)];  // sweep -> lane clock
  return f;
}

void BatchSimulator::refill_lane(int lane, const LaneFault& fault) {
  HLSHC_CHECK(lane >= 0 && lane < lanes_,
              "lane " << lane << " outside [0, " << lanes_ << ')');
  // Per-lane Engine::reset(): this lane's column back to the reset state,
  // every other column untouched.
  for (const RegCommit& rc : plan_->reg_commits())
    state_[at(static_cast<size_t>(rc.reg), lane)] = rc.init;
  for (size_t m = 0; m < mem_.size(); ++m) {
    const size_t depth = static_cast<size_t>(plan_->mem_shapes()[m].depth);
    for (size_t w = 0; w < depth; ++w) mem_[m][at(w, lane)] = 0;
  }
  for (NodeId in : design_.inputs())
    values_[at(static_cast<size_t>(in), lane)] = 0;
  base_[static_cast<size_t>(lane)] = cycle_;
  // Validates, restores consts, rebuilds the comb index, and rebases the
  // fault cycle onto the sweep clock (arm_lane_fault reads base_).
  arm_lane_fault(lane, fault);
  // Engine::reset() ends with the injector's cycle hook: a lane-cycle-0
  // SEU lands on the fresh reset state, before the lane's first settle.
  const LaneFault& f = faults_[static_cast<size_t>(lane)];
  if (f.seu() && f.cycle == cycle_) {
    flip_state_bit(lane, f);
    seu_fired_[static_cast<size_t>(lane)] = 1;
  }
}

// ---- the compiled sim::Engine ----------------------------------------------

namespace {

/// Lane 0 of a 1-lane BatchSimulator behind the sim::Engine protocol. The
/// Engine base keeps the cycle counter, watchdog, deadline and activity
/// accounting; the batch keeps values, state and the armed fault, and its
/// own clock advances in step through commit_edge().
class BatchEngine final : public Engine {
 public:
  explicit BatchEngine(const netlist::Design& design)
      : Engine(design), batch_(design, 1) {}

  const char* kind_name() const override { return "compiled"; }

  BitVec value(NodeId id) const override { return batch_.value(0, id); }

  BitVec mem_peek(int mem_id, int addr) const override {
    return BitVec(design_.memories()[static_cast<size_t>(mem_id)].width,
                  batch_.mem_peek(0, mem_id, addr));
  }
  void mem_poke(int mem_id, int addr, const BitVec& value) override {
    batch_.mem_poke(0, mem_id, addr, value.to_int64());
  }

 protected:
  void eval_comb() override { batch_.eval_all(); }
  void commit_state() override { batch_.commit_edge(); }
  void reset_state() override { batch_.reset_all(); }
  void poke_input(NodeId id, int64_t value) override {
    batch_.poke_input(0, id, value);
  }
  void flip_state_bit(const LaneFault& seu) override {
    batch_.flip_state_bit(0, seu);
  }
  void on_fault_armed() override { batch_.arm_lane_fault(0, fault_); }
  void snapshot_values(int64_t* out) const override {
    batch_.snapshot_values(0, out);
  }

 private:
  BatchSimulator batch_;
};

}  // namespace

std::unique_ptr<Engine> make_batch_engine(const netlist::Design& design) {
  return std::make_unique<BatchEngine>(design);
}

}  // namespace hlshc::sim
