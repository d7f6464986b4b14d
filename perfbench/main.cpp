// perfbench — the repository benchmark driver.
//
// One binary runs each named workload of BENCHMARK.json, checks the
// program's outputs, and prints every metric by name with its unit:
//
//   dse_grid     tools::full_dse, the 254-config Fig. 1 / Table II grid, at
//                4 jobs; set-up checks every workload-registry builder
//                bit-exact against its workload's reference model.
//   fault_campaign  single-threaded, 32-lane fault::run_campaign batches of
//                seeded SEU and stuck-at sites over designs compiled in
//                set-up (idct, fir16 and matmul builders).
//   svc_mixed    a closed loop of one client against an svc::Server with 2
//                workers: compile (option fingerprints over a key set larger
//                than the 64-entry DesignCache), evaluate, small campaign,
//                stats and list_designs requests.
//
// Each run does a fixed amount of work sized from --seconds and a nominal
// rate (sweeps, rounds or requests per second on the reference host), all
// of it generated from --seed, so two runs of one seed attempt the same
// operations and fail the same ones.
//
// Untraced runs (--trace 0) report the end-to-end metrics, with timings
// scaled by a host-speed probe (see "host speed" below). A traced run
// (--trace 1) first repeats the untraced measurement, then re-runs the
// workload while timing each layer from outside — around calls into each
// module's public entry points — and reports per-layer metrics whose layer
// times plus other_ms sum to the traced wall. Metrics of layers a workload
// does not load are reported as 0.
//
// Failures are counted, never skipped: a campaign batch that throws counts
// all its sites as failed, and a service response that is an error or
// disagrees with a direct library call counts as a failed request. The
// result's `correct` is false only when a check of a modelled output fails
// (a registry builder that is not bit-exact, a nondeterministic result, a
// traced re-run that disagrees with the untraced one).
//
// Every modelled result is folded into a per-workload FNV-1a digest that
// leaves out timings and trace ids, so a speed-only change can show its
// modelled output is identical to its parent's.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//   The last line of stdout is one JSON object with the keys correct,
//   attempted, failed and metrics; the lines before it are a readable report.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "axis/batch.hpp"
#include "axis/testbench.hpp"
#include "base/rng.hpp"
#include "chisel/designs.hpp"
#include "fault/campaign.hpp"
#include "fault/model.hpp"
#include "netlist/dump.hpp"
#include "netlist/exec_plan.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/sweep.hpp"
#include "rtl/designs.hpp"
#include "sim/batch.hpp"
#include "sim/engine.hpp"
#include "svc/cache.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "synth/synthesize.hpp"
#include "tools/compile.hpp"
#include "tools/flows.hpp"
#include "workload/workload.hpp"

namespace {

using namespace hlshc;
using Clock = std::chrono::steady_clock;
using obs::Json;

constexpr int kDseJobs = 4;       // the DSE pool: one worker per core
// Set-up repeats (setup_s is their median): at least kSetupReps and
// kSetupMinSeconds, at most kSetupMaxReps.
constexpr size_t kSetupReps = 5;
constexpr size_t kSetupMaxReps = 25;
constexpr double kSetupMinSeconds = 1.5;
// A run stops measuring early past this wall time (a host several times
// slower than the reference), to stay within its time limit.
constexpr double kMeasureCapS = 70;
constexpr int kCampaignLanes = 32;
constexpr int kSvcWorkers = 2;
// Enough requests that p99 has at least ten samples beyond it.
constexpr int64_t kSvcMinRequests = 1100;
// Nominal work rates on the reference host (a shared 4-vCPU x86-64 VM),
// which size each run, and how many units run between probe samples.
constexpr double kDseSweepsPerSecond = 0.25;
constexpr double kFaultRoundsPerSecond = 15;
constexpr double kSvcRequestsPerSecond = 70;
constexpr int64_t kDseSweepsPerProbe = 1;
constexpr int64_t kFaultRoundsPerProbe = 64;
constexpr int64_t kSvcRequestsPerProbe = 400;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ---- report ---------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json ("end_to_end" and "per_layer"), in order; the
// smoke test checks that they do.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"ops_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
};

constexpr MetricDef kPerLayer[] = {
    {"wall_ms", "ms"},
    {"other_ms", "ms"},
    {"obs.trace_overhead_frac", "fraction"},
    // dse_grid
    {"frontend.build_ms", "ms"},
    {"netlist.pass_ms", "ms"},
    {"netlist.pass.narrow_ms", "ms"},
    {"netlist.pass.cse_ms", "ms"},
    {"netlist.pass.eliminate_dead_ms", "ms"},
    {"netlist.pass.fold_constants_ms", "ms"},
    {"netlist.pass.copy_prop_ms", "ms"},
    {"netlist.pass.mux_simplify_ms", "ms"},
    {"netlist.pass_iterations", "count"},
    {"netlist.nodes_removed", "count"},
    {"netlist.plan_ms", "ms"},
    {"netlist.plan_instrs", "count"},
    {"synth.ms", "ms"},
    {"sim.stream_ms", "ms"},
    {"sim.stream_cycles_per_s", "1/s"},
    {"tools.sweep_task_ms", "ms"},
    {"par.busy_frac", "fraction"},
    // fault_campaign
    {"fault.seu_ms", "ms"},
    {"fault.stuck_ms", "ms"},
    {"fault.hang_sites", "count"},
    {"fault.hang_ms", "ms"},
    {"fault.nonhang_ms", "ms"},
    {"fault.lane_refills", "count"},
    {"sim.batch_ms", "ms"},
    {"sim.batch_lane_cycles_per_s", "1/s"},
    // svc_mixed
    {"svc.queue_ms", "ms"},
    {"svc.handler_ms", "ms"},
    {"svc.parse_us", "us"},
    {"svc.queue_ms_p50", "ms"},
    {"svc.queue_ms_p99", "ms"},
    {"svc.cache.hit_rate", "fraction"},
    {"svc.cache.evictions", "count"},
    {"svc.cache.hit_us", "us"},
    {"svc.cache.miss_ms", "ms"},
    {"svc.method.compile_ms_p50", "ms"},
    {"svc.method.evaluate_ms_p50", "ms"},
    {"svc.method.campaign_ms_p50", "ms"},
};

struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> values;

  void set(const std::string& name, double v) { values[name] = v; }
  /// A failed output check: the run is reported incorrect, with the reason.
  void check_failed(const std::string& why) {
    correct = false;
    std::printf("CHECK FAILED: %s\n", why.c_str());
  }
};

void note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void note(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::fputc('\n', stdout);
}

std::string format_number(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
/// Every metric of the mode's list is present; layers this workload does
/// not load read 0.
void emit(const Report& r, bool traced) {
  const MetricDef* defs = traced ? kPerLayer : kEndToEnd;
  const size_t n = traced ? std::size(kPerLayer) : std::size(kEndToEnd);
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " +
         std::to_string(std::max<int64_t>(r.attempted, 1));
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < n; ++i) {
    const auto it = r.values.find(defs[i].name);
    const double v = it != r.values.end() ? it->second : 0.0;
    if (i) out += ", ";
    out += std::string("\"") + defs[i].name + "\": {\"value\": " +
           format_number(std::isfinite(v) ? v : 0.0) + ", \"unit\": \"" +
           defs[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ---- statistics and digests ----------------------------------------------

/// Exact percentile of the samples (linear interpolation between order
/// statistics); 0 for an empty set.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  return lo + 1 < v.size() ? v[lo] + frac * (v[lo + 1] - v[lo]) : v[lo];
}

/// Incremental 64-bit FNV-1a over a sequence of records.
class Digest {
 public:
  void add(const std::string& record) {
    for (unsigned char c : record) mix(c);
    mix(0xff);  // record separator
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void mix(unsigned char c) {
    h_ ^= c;
    h_ *= 0x100000001b3ull;
  }
  uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Point k of a seeded Kronecker (additive-recurrence) sequence, as an
/// index into [0, n). Any prefix of the sequence covers [0, n) nearly
/// evenly, so the shares of a run's inputs — hang-prone fault sites, heavy
/// requests — track their expected values far closer than independent
/// draws would, and run-to-run spread across seeds stays small. The seed
/// picks the start point; `alpha` is the step (an irrational in (0, 1)).
uint64_t kronecker(uint64_t seed, double alpha, uint64_t k, uint64_t n) {
  const uint64_t start = SplitMix64(seed).next();
  const uint64_t step = static_cast<uint64_t>(alpha * 0x1p64);
  const unsigned __int128 x = start + k * step;  // wraps mod 2^64
  return static_cast<uint64_t>((x * n) >> 64);
}

// Steps of the R-sequence (the generalized golden ratio for 3 dimensions):
// jointly low-discrepancy when the three are used on the same index.
constexpr double kAlpha[3] = {0.8191725133961645, 0.6710436067037893,
                              0.5497004779019703};

// ---- host speed -------------------------------------------------------------
//
// Shared hosts drift in speed and may not run a VM's cores in parallel (on a
// shared 4-vCPU x86-64 VM the same run differed by up to 1.7x over minutes,
// and at times 4 threads of one kernel took 4x one thread's time), moving
// every timing of a run together. A fixed probe kernel —
// interpreter-style dispatch over a small instruction array, in this file
// and touching no repository code, so no change to the program moves it —
// is sampled before set-up and again after every few units of work (see
// HostProbe). Every timing of the run is
// scaled by the median of those samples against the probe's reference
// time: value x (kProbeReferenceMs / probe time) for rates, the inverse for
// times. The median of samples spread over the whole run follows drift over
// minutes without following the probe's own sample-to-sample noise. The
// probe tracks svc_mixed only in part: its cache- and allocation-heavy
// requests slowed by up to 1.5 times as much as the probe did. The raw
// values and the factor are in the readable report.

constexpr double kProbeReferenceMs = 20.0;
constexpr int kProbeRounds = 15;

double probe_once_ms() {
  struct Instr {
    uint8_t op;
    uint32_t a, b, d;
  };
  constexpr size_t kSlots = size_t{1} << 14;
  std::vector<Instr> prog;
  SplitMix64 rng(1);
  for (int i = 0; i < 8192; ++i) {
    const uint64_t x = rng.next();
    prog.push_back({static_cast<uint8_t>(x % 12),
                    static_cast<uint32_t>((x >> 8) % kSlots),
                    static_cast<uint32_t>((x >> 24) % kSlots),
                    static_cast<uint32_t>((x >> 40) % kSlots)});
  }
  std::vector<uint64_t> slots(kSlots, 1);  // unsigned: wraps, never UB
  const auto t0 = Clock::now();
  for (int rep = 0; rep < 200; ++rep)
    for (const Instr& in : prog) {
      const uint64_t a = slots[in.a], b = slots[in.b];
      uint64_t r = 0;
      switch (in.op) {
        case 0: r = a + b; break;
        case 1: r = a - b; break;
        case 2: r = a * b; break;
        case 3: r = a & b; break;
        case 4: r = a | b; break;
        case 5: r = a ^ b; break;
        case 6: r = a << (b & 15); break;
        case 7: r = a >> (b & 15); break;
        case 8: r = a < b; break;
        case 9: r = a == b; break;
        case 10: r = b ? a : ~a; break;
        default: r = (a + 1) & 0xffff; break;
      }
      slots[in.d] = r;
    }
  const double ms = ms_since(t0);
  volatile uint64_t sink = slots[0];
  (void)sink;
  return ms;
}

/// Probe samples of one run, taken while the workload is idle. The kernel
/// runs on as many threads at once as the workload keeps busy, since a
/// one-thread probe cannot see a host that withholds parallelism; a round
/// is their wall time, so it also pays the scheduling the workload pays
/// (on the reference host this tracked dse_grid's sweeps within +-4% while
/// they drifted +-14%; the mean of per-CPU times, each on a thread pinned
/// to its CPU, tracked within +-8%). Threads start with the caller's CPUs,
/// so a pinned workload's probe runs on its CPU. A sample is the median of
/// kProbeRounds rounds.
struct HostProbe {
  explicit HostProbe(int threads) : threads(threads) {}

  int threads;
  std::vector<double> marks;  ///< median probe ms of each sample, in run order

  void sample() {
    // An idle host runs the first rounds several times slower (4x seen):
    // warm up before the first sample.
    const auto warm = Clock::now();
    while (marks.empty() && ms_since(warm) < 300) round_ms();
    std::vector<double> ms;
    for (int i = 0; i < kProbeRounds; ++i) ms.push_back(round_ms());
    marks.push_back(percentile(ms, 0.5));
  }
  /// Host slowness against the reference: > 1 when the host runs slow.
  double factor() const { return percentile(marks, 0.5) / kProbeReferenceMs; }

 private:
  double round_ms() const {
    const auto t0 = Clock::now();
    std::vector<std::thread> pool;
    for (int t = 1; t < threads; ++t) pool.emplace_back(probe_once_ms);
    probe_once_ms();
    for (std::thread& t : pool) t.join();
    return ms_since(t0);
  }
};

/// Pins the calling thread — and the threads it starts while pinned — to
/// one CPU; the destructor restores the calling thread's previous CPUs.
class Pin {
 public:
  explicit Pin(int cpu) {
    ok_ = sched_getaffinity(0, sizeof saved_, &saved_) == 0;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ok_ = ok_ && sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~Pin() {
    if (ok_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  Pin(const Pin&) = delete;
  Pin& operator=(const Pin&) = delete;

 private:
  cpu_set_t saved_{};
  bool ok_ = false;
};

/// The CPU, of those this process may use, on which the probe kernel runs
/// fastest now. Workloads with one busy thread at a time run pinned there,
/// so the scheduler does not move them onto a vCPU that a neighbour slows,
/// and their probe samples that same CPU.
int fastest_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  int best = 0;
  double best_ms = 0;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &set)) continue;
    double ms = 0;
    std::thread([&] {
      Pin pin(c);
      std::vector<double> rounds;
      for (int r = 0; r < kProbeRounds; ++r) rounds.push_back(probe_once_ms());
      ms = percentile(rounds, 0.5);
    }).join();
    if (best_ms == 0 || ms < best_ms) {
      best = c;
      best_ms = ms;
    }
  }
  return best;
}

/// Unit times scaled to the probe's reference host speed.
std::vector<double> scaled_ms(const std::vector<double>& raw_ms,
                              const HostProbe& probe) {
  std::vector<double> out;
  for (double ms : raw_ms) out.push_back(ms / probe.factor());
  return out;
}

/// Runs `make` until at least kSetupReps runs and kSetupMinSeconds have
/// passed (at most kSetupMaxReps runs) and keeps the last state; returns the
/// median set-up time in seconds through `setup_s`. A cheap set-up is
/// repeated more, so its median is steady too.
template <class F>
auto repeated_setup(F make, double* setup_s) {
  std::vector<double> times;
  double total_s = 0;
  decltype(make()) state{};
  while (times.size() < kSetupMaxReps &&
         (times.size() < kSetupReps || total_s < kSetupMinSeconds)) {
    state = {};  // release the previous copy before building the next
    const auto t0 = Clock::now();
    state = make();
    times.push_back(ms_since(t0) / 1e3);
    total_s += times.back();
  }
  *setup_s = percentile(times, 0.5);
  return state;
}

/// The number of work units (sweeps, rounds, requests) of a run: the
/// workload's nominal rate on the reference host times the requested
/// seconds. A run does a fixed, seed-determined amount of work, so its
/// attempted and failed counts are functions of the seed alone.
int64_t units_for(double seconds, double units_per_second, int64_t at_least) {
  return std::max(at_least, static_cast<int64_t>(std::llround(seconds * units_per_second)));
}

/// Whether a run has measured past its time cap (a host far slower than
/// the reference); the run then stops early and says so.
bool over_cap(Clock::time_point t0) { return ms_since(t0) > kMeasureCapS * 1e3; }

/// `ops_per_s` is the workload's rate over scaled unit times (see each
/// workload). `rss_mb` is the resident high-water mark through set-up and
/// the first unit of work (the whole loop for svc_mixed), so it does not
/// grow with the benchmark's own record of a run. Timings are scaled by the
/// host probe; `raw_ops_per_s` and `raw_ms` are the unscaled values.
void report_end_to_end(Report& r, const HostProbe& probe, double setup_s,
                       double rss_mb, double ops_per_s, double raw_ops_per_s,
                       const std::vector<double>& latencies_ms,
                       const std::vector<double>& raw_ms, const char* unit_name) {
  // The tail is the highest percentile, up to p99, that leaves at least ten
  // samples beyond it (the median when a run has fewer than 20 units).
  const double n = static_cast<double>(latencies_ms.size());
  const double tail_q = std::clamp(1.0 - 10.0 / n, 0.5, 0.99);
  r.set("setup_s", setup_s / probe.factor());
  r.set("peak_rss_mb", rss_mb);
  r.set("ops_per_s", ops_per_s);
  r.set("latency_p50_ms", percentile(latencies_ms, 0.5));
  r.set("latency_tail_ms", percentile(latencies_ms, tail_q));
  note("raw: ops_per_s %.3f; %s latency over %zu samples: p50 %.3f ms, p%.4g "
       "%.3f ms; setup_s %.4f; peak_rss_mb %.1f",
       raw_ops_per_s, unit_name, raw_ms.size(), percentile(raw_ms, 0.5),
       tail_q * 100, percentile(raw_ms, tail_q), setup_s, rss_mb);
  note("host probe on %d threads, %zu samples of %d rounds: %.3f-%.3f ms, "
       "median %.3f ms (reference %.1f ms): timings scaled by %.4f",
       probe.threads, probe.marks.size(), kProbeRounds,
       *std::min_element(probe.marks.begin(), probe.marks.end()),
       *std::max_element(probe.marks.begin(), probe.marks.end()),
       percentile(probe.marks, 0.5), kProbeReferenceMs, 1 / probe.factor());
}

struct Args {
  std::string workload;
  uint64_t seed = 2026;
  double seconds = 10;
  bool trace = false;
};

// ---- dse_grid -------------------------------------------------------------

std::string point_record(const core::ScatterPoint& p) {
  return p.family + '|' + p.config + '|' + p.workload + '|' +
         exact(p.throughput_mops) + '|' + std::to_string(p.area) + '|' +
         std::to_string(p.nodes_saved);
}

struct GridCell {
  std::string workload;
  const workload::BuilderInfo* builder = nullptr;
};

/// The grid tools::full_dse sweeps, enumerated through the public flow and
/// workload registries in full_dse's order: every flow's tasks with
/// narrowing on, the same tasks with narrowing off ("+wide"), then every
/// fast builder of the non-IDCT workloads.
struct Grid {
  std::vector<tools::SweepTask> narrow, wide;
  std::vector<GridCell> cells;
  size_t size() const { return narrow.size() + wide.size() + cells.size(); }
};

Grid enumerate_grid() {
  Grid g;
  for (const auto& flow : tools::make_flows())
    for (tools::SweepTask& t : flow->sweep_tasks()) g.narrow.push_back(std::move(t));
  tools::CompileOptions wide;
  wide.narrow = false;
  for (const auto& flow : tools::make_flows(wide))
    for (tools::SweepTask& t : flow->sweep_tasks()) g.wide.push_back(std::move(t));
  const workload::Registry& reg = workload::Registry::instance();
  for (const std::string& w : reg.names()) {
    if (w == "idct") continue;
    for (const workload::BuilderInfo& b : reg.get(w).builders)
      if (!b.slow) g.cells.push_back({w, &b});
  }
  return g;
}

/// Every registry builder (slow ones included), compiled through the
/// canonical pipeline and streamed on the compiled engine, checked against
/// its workload's reference model: one "name|verdict|T_L|T_P" line each.
std::vector<std::string> check_registry_builders(uint64_t seed) {
  struct Item {
    const workload::WorkloadSpec* spec;
    const workload::BuilderInfo* builder;
  };
  std::vector<Item> items;
  for (const auto& [name, spec] : workload::Registry::instance().all())
    for (const workload::BuilderInfo& b : spec.builders) items.push_back({&spec, &b});
  par::SweepRunner runner(kDseJobs);
  return runner.map<std::string>(
      "perfbench.builders", static_cast<int64_t>(items.size()),
      [&](int64_t i) -> std::string {
        const Item& it = items[static_cast<size_t>(i)];
        const std::string name = it.spec->name + "." + it.builder->name;
        try {
          const tools::CompiledDesign c = tools::compile(it.builder->build());
          std::unique_ptr<sim::Engine> engine = sim::make_engine(c.design);
          axis::StreamTestbench tb(*engine);
          const std::vector<workload::Frame> ins =
              workload::eval_input_set(*it.spec, 2, seed, true);
          const std::vector<workload::Frame> outs = tb.run(ins);
          const bool exact_ok =
              tb.monitor().clean() &&
              workload::diff_outputs(*it.spec,
                                     workload::reference_outputs(*it.spec, ins),
                                     outs) == 0;
          return name + (exact_ok ? "|bit-exact|" : "|MISMATCH|") +
                 std::to_string(tb.timing().latency_cycles) + '|' +
                 exact(tb.timing().periodicity_cycles);
        } catch (const std::exception& e) {
          return name + "|THREW|" + e.what();
        }
      });
}

/// Set-up product: the grid, and the registry-builder verdicts — functional
/// verification is the precondition for reporting any design's numbers.
struct DseSetup {
  Grid grid;
  std::vector<std::string> verdicts;
};

/// One grid task timed layer by layer: the workload cells are decomposed
/// into the calls tools::evaluate_design makes; flow tasks are reachable
/// only as opaque SweepTask closures.
struct TaskTrace {
  core::ScatterPoint point;
  double frontend = 0, pass = 0, plan = 0, sim = 0, synth = 0, opaque = 0;
  double total = 0;
  std::map<std::string, double> pass_ms;
  int iterations = 0;
  int64_t removed = 0;
  size_t instrs = 0;
  uint64_t cycles = 0;
  std::string error;  ///< what() of a task that threw
};

TaskTrace trace_cell(const GridCell& cell) {
  const workload::WorkloadSpec& spec =
      workload::Registry::instance().get(cell.workload);
  const core::EvaluateOptions eval;  // what evaluate_design measures with
  TaskTrace t;
  const auto t_task = Clock::now();
  auto t0 = Clock::now();
  const netlist::Design raw = cell.builder->build();
  t.frontend = ms_since(t0);

  t0 = Clock::now();
  const tools::CompiledDesign c = tools::compile(raw);
  t.pass = ms_since(t0);
  for (const netlist::PassRun& run : c.stats.runs)
    t.pass_ms[run.pass] += static_cast<double>(run.wall_ns) / 1e6;
  t.iterations = c.stats.iterations;
  t.removed = c.stats.nodes_delta();

  t0 = Clock::now();
  t.instrs = netlist::ExecPlan::for_design(c.design)->instrs().size();
  t.plan = ms_since(t0);

  const std::vector<workload::Frame> ins = workload::eval_input_set(
      spec, eval.matrices, eval.seed, eval.realistic_inputs);
  t0 = Clock::now();
  std::unique_ptr<sim::Engine> engine = sim::make_engine(c.design, eval.engine);
  axis::StreamTestbench tb(*engine);
  tb.run(ins, eval.max_cycles);
  t.sim = ms_since(t0);
  t.cycles = tb.timing().total_cycles;

  t0 = Clock::now();
  const synth::NormalizedSynth ns =
      synth::synthesize_normalized(c.design, eval.synth);
  t.synth = ms_since(t0);

  const double tp = tb.timing().periodicity_cycles;
  t.point = core::ScatterPoint{cell.builder->flow,
                               cell.workload + "." + cell.builder->name,
                               tp > 0 ? ns.normal.fmax_mhz / tp : 0.0,
                               ns.area(), static_cast<long>(t.removed),
                               cell.workload};
  t.total = ms_since(t_task);
  return t;
}

TaskTrace trace_opaque(const tools::SweepTask& task, const char* suffix) {
  TaskTrace t;
  const auto t0 = Clock::now();
  t.point = task.run();
  t.point.config = task.config + suffix;
  t.opaque = t.total = ms_since(t0);
  return t;
}

void trace_dse(Report& r, const Grid& grid,
               const std::vector<std::string>& untraced_records,
               double untraced_sweep_ms) {
  obs::set_enabled(true);
  obs::registry().reset();
  const auto t0 = Clock::now();
  par::SweepRunner runner(kDseJobs);
  const std::vector<TaskTrace> traces = runner.map<TaskTrace>(
      "perfbench.dse", static_cast<int64_t>(grid.size()), [&](int64_t i) {
        size_t k = static_cast<size_t>(i);
        try {
          if (k < grid.narrow.size()) return trace_opaque(grid.narrow[k], "");
          k -= grid.narrow.size();
          if (k < grid.wide.size()) return trace_opaque(grid.wide[k], "+wide");
          return trace_cell(grid.cells[k - grid.wide.size()]);
        } catch (const std::exception& e) {
          TaskTrace failed;
          failed.error = e.what();
          return failed;
        }
      });
  const double wall = ms_since(t0);
  // The pass manager's own timers cover every compile of the grid, the
  // opaque flow tasks' included.
  std::map<std::string, double> grid_pass_ms;
  double grid_passes = 0;
  for (const char* pass : {"fold_constants", "narrow", "strength_reduce",
                           "mux_simplify", "copy_prop", "cse", "eliminate_dead"}) {
    const double ms = static_cast<double>(
        obs::registry().timer(std::string("netlist.pass.") + pass + ".ns")->total_ns()) / 1e6;
    grid_pass_ms[pass] = ms;
    grid_passes += ms;
  }
  obs::set_enabled(false);

  TaskTrace sum;
  std::vector<std::string> records;
  for (const TaskTrace& t : traces) {
    records.push_back(point_record(t.point));
    sum.frontend += t.frontend;
    sum.pass += t.pass;
    sum.plan += t.plan;
    sum.sim += t.sim;
    sum.synth += t.synth;
    sum.opaque += t.opaque;
    sum.total += t.total;
    for (const auto& [pass, ms] : t.pass_ms) sum.pass_ms[pass] += ms;
    sum.iterations += t.iterations;
    sum.removed += t.removed;
    sum.instrs += t.instrs;
    sum.cycles += t.cycles;
  }
  r.attempted += static_cast<int64_t>(traces.size());
  for (const TaskTrace& t : traces)
    if (!t.error.empty()) {
      r.failed += 1;
      note("traced grid task threw: %s", t.error.c_str());
    }
  if (records != untraced_records)
    r.check_failed("the traced DSE grid disagrees with tools::full_dse");

  // Task times are summed over the pool's threads; dividing by the job
  // count turns them into shares of the wall, so layers + other = wall and
  // other_ms holds the pool's idle time. Pass time inside the opaque flow
  // tasks (the grid's pass timers minus the cells' own passes) moves from
  // tools.sweep_task_ms to netlist.pass_ms.
  double cell_passes = 0;
  for (const auto& [pass, ms] : sum.pass_ms) cell_passes += ms;
  const double opaque_passes = std::max(0.0, grid_passes - cell_passes);
  sum.pass += opaque_passes;
  sum.opaque -= opaque_passes;
  const double jobs = kDseJobs;
  r.set("wall_ms", wall);
  r.set("frontend.build_ms", sum.frontend / jobs);
  r.set("netlist.pass_ms", sum.pass / jobs);
  for (const char* pass : {"narrow", "cse", "eliminate_dead", "fold_constants",
                           "copy_prop", "mux_simplify"})
    r.set(std::string("netlist.pass.") + pass + "_ms", grid_pass_ms[pass] / jobs);
  // Counts come from the decomposed workload cells only.
  r.set("netlist.pass_iterations", sum.iterations);
  r.set("netlist.nodes_removed", static_cast<double>(sum.removed));
  r.set("netlist.plan_ms", sum.plan / jobs);
  r.set("netlist.plan_instrs", static_cast<double>(sum.instrs));
  r.set("synth.ms", sum.synth / jobs);
  r.set("sim.stream_ms", sum.sim / jobs);
  r.set("sim.stream_cycles_per_s",
        sum.sim > 0 ? static_cast<double>(sum.cycles) / (sum.sim / 1e3) : 0.0);
  r.set("tools.sweep_task_ms", sum.opaque / jobs);
  r.set("par.busy_frac", sum.total / (wall * jobs));
  const double layers =
      (sum.frontend + sum.pass + sum.plan + sum.synth + sum.sim + sum.opaque) /
      jobs;
  r.set("other_ms", wall - layers);
  r.set("obs.trace_overhead_frac", wall / untraced_sweep_ms - 1.0);
  note("traced grid: wall %.1f ms = frontend %.1f + netlist.pass %.1f + "
       "netlist.plan %.1f + synth %.1f + sim.stream %.1f + tools.sweep_task "
       "%.1f + other %.1f (per-worker ms, %d jobs); narrow is %.1f%% of "
       "pass time",
       wall, sum.frontend / jobs, sum.pass / jobs, sum.plan / jobs,
       sum.synth / jobs, sum.sim / jobs, sum.opaque / jobs, wall - layers,
       kDseJobs, grid_passes > 0 ? 100 * grid_pass_ms["narrow"] / grid_passes : 0.0);
}

Report run_dse(const Args& args) {
  Report r;
  HostProbe probe(kDseJobs);
  probe.sample();
  double setup_s = 0;
  const DseSetup setup = repeated_setup(
      [&] { return DseSetup{enumerate_grid(), check_registry_builders(args.seed)}; },
      &setup_s);
  const Grid& grid = setup.grid;
  Digest digest;
  int exact_builders = 0;
  for (const std::string& v : setup.verdicts) {
    digest.add(v);
    if (v.find("|bit-exact|") != std::string::npos)
      ++exact_builders;
    else
      r.check_failed("registry builder not bit-exact: " + v);
  }
  note("registry builders bit-exact against their reference models: %d of %zu",
       exact_builders, setup.verdicts.size());
  note("dse_grid: tools::full_dse over %zu configs (%zu flow, %zu +wide, %zu "
       "workload cells) at %d jobs",
       grid.size(), grid.narrow.size(), grid.wide.size(), grid.cells.size(),
       kDseJobs);

  // A fixed number of sweeps, each bracketed by probe samples.
  const int64_t sweeps = units_for(args.seconds, kDseSweepsPerSecond, 1);
  std::vector<double> raw;  // sweep wall times
  double rss_mb = 0;
  std::vector<std::string> first;
  probe.sample();
  const auto t0 = Clock::now();
  for (int64_t k = 0; k < sweeps; ++k) {
    const auto ts = Clock::now();
    r.attempted += static_cast<int64_t>(grid.size());
    try {
      const std::vector<core::ScatterPoint> points = tools::full_dse(kDseJobs);
      raw.push_back(ms_since(ts));
      if (raw.size() == 1) rss_mb = peak_rss_mb();
      std::vector<std::string> records;
      bool sane = points.size() == grid.size();
      for (const core::ScatterPoint& p : points) {
        records.push_back(point_record(p));
        sane = sane && p.area > 0 && p.throughput_mops > 0 &&
               std::isfinite(p.throughput_mops);
      }
      if (!sane) r.check_failed("full_dse returned a malformed grid");
      if (first.empty())
        first = records;
      else if (records != first)
        r.check_failed("full_dse results differ between sweeps");
    } catch (const std::exception& e) {
      raw.push_back(ms_since(ts));
      r.failed += static_cast<int64_t>(grid.size());
      note("full_dse threw: %s", e.what());
    }
    const bool stop = over_cap(t0);
    if (stop || (k + 1) % kDseSweepsPerProbe == 0 || k + 1 == sweeps) probe.sample();
    if (stop) {
      note("stopped after %lld of %lld sweeps: past the %.0f s cap",
           static_cast<long long>(k + 1), static_cast<long long>(sweeps), kMeasureCapS);
      break;
    }
  }

  for (const std::string& rec : first) digest.add(rec);
  const std::vector<double> scaled = scaled_ms(raw, probe);
  const double configs = static_cast<double>(grid.size());
  // dse.configs_per_s over the median sweep.
  const double rate = configs / (percentile(scaled, 0.5) / 1e3);
  std::string list;
  for (double ms : raw) list += " " + std::to_string(std::lround(ms));
  note("sweeps (raw ms):%s", list.c_str());
  note("dse.configs_per_s %.3f 1/s (median of %zu sweeps); fail_frac %.6f",
       rate, raw.size(),
       static_cast<double>(r.failed) / static_cast<double>(r.attempted));
  note("digest dse_grid %s", digest.hex().c_str());
  if (args.trace)
    trace_dse(r, grid, first, percentile(raw, 0.5));
  else
    report_end_to_end(r, probe, setup_s, rss_mb, rate,
                      configs / (percentile(raw, 0.5) / 1e3), scaled, raw, "sweep");
  return r;
}

// ---- fault_campaign -------------------------------------------------------

// Campaign designs — the Verilog IDCT progression, the pipelined XLS IDCT,
// and the FIR and matmul kernels — with the sites of each batch (one
// run_campaign call). A stuck-at site costs several SEU sites (more of them
// hang), so its batches are smaller. The Bambu IDCT is left out: one
// run_campaign call on it costs ~130 ms even for 5 sites (4-vCPU x86-64
// VM), which would make it most of every round.
struct CampaignDesign {
  const char* name;
  int seu_sites;
  int stuck_sites;
};
constexpr CampaignDesign kFaultDesigns[] = {
    {"idct.verilog_initial", 64, 16}, {"idct.verilog_opt2", 64, 16},
    {"idct.xls_p8", 64, 16},          {"fir16.rtl_comb", 64, 16},
    {"fir16.xls_p2", 64, 16},         {"matmul.rtl_comb", 64, 16},
};
constexpr int kCampaignMatrices = 2;
constexpr uint64_t kMaxInjectCycle = 60;  // within the 2-matrix stream window
// The watchdog is relative to each design's fault-free run, the usual
// campaign timeout: a hang then costs kWatchdogFactor normal runs. (With a
// fixed 20000-cycle budget one hang costs the time of ~300 normal runs, and
// a run's throughput would hinge on its handful of hang events: runs of the
// same work spread 20-40% across seeds.)
constexpr uint64_t kWatchdogFactor = 20;

/// One design's fault-site universe for one kind, with the distribution
/// fault::sample_seu_sites / fault::sample_stuck_sites draw from: SEU sites
/// uniform over register and memory bits, injection cycle uniform in
/// [0, kMaxInjectCycle]; stuck-at sites uniform over non-MemWrite nodes,
/// then over the node's bits and both polarities. Site k of a stream takes
/// each coordinate from point k of a seeded Kronecker sequence instead of
/// independent draws.
class SiteSpace {
 public:
  SiteSpace(const netlist::Design& d, bool stuck) : stuck_(stuck) {
    const auto add = [&](fault::FaultSite proto, int bits) {
      targets_.push_back({proto, total_, bits});
      total_ += stuck ? 1 : static_cast<uint64_t>(bits);
    };
    for (size_t i = 0; i < d.node_count(); ++i) {
      const netlist::Node& n = d.node(static_cast<netlist::NodeId>(i));
      fault::FaultSite proto;
      proto.node = static_cast<netlist::NodeId>(i);
      if (stuck ? n.op != netlist::Op::MemWrite : n.op == netlist::Op::Reg)
        add(proto, n.width);
    }
    for (size_t m = 0; m < d.memories().size() && !stuck; ++m)
      for (int addr = 0; addr < d.memories()[m].depth; ++addr) {
        fault::FaultSite proto;
        proto.kind = fault::FaultKind::kSeuMem;
        proto.mem = static_cast<int>(m);
        proto.addr = addr;
        add(proto, d.memories()[m].width);
      }
  }

  fault::FaultSite site(uint64_t stream, uint64_t k) const {
    // Stuck-at: pick a node, then a bit and a polarity. SEU: pick a state
    // bit (targets are laid out by their first bit), then a cycle.
    const uint64_t pick = kronecker(stream, kAlpha[0], k, total_);
    const auto t = std::prev(std::upper_bound(
        targets_.begin(), targets_.end(), pick,
        [](uint64_t p, const Target& x) { return p < x.first; }));
    fault::FaultSite s = t->proto;
    if (stuck_) {
      s.bit = static_cast<int>(kronecker(stream, kAlpha[1], k,
                                         static_cast<uint64_t>(t->bits)));
      s.kind = kronecker(stream, kAlpha[2], k, 2) ? fault::FaultKind::kStuckAt1
                                                  : fault::FaultKind::kStuckAt0;
    } else {
      s.bit = static_cast<int>(pick - t->first);
      s.cycle = kronecker(stream, kAlpha[1], k, kMaxInjectCycle + 1);
    }
    return s;
  }

 private:
  struct Target {
    fault::FaultSite proto;  ///< kind and node / memory word
    uint64_t first = 0;      ///< first index of the target in the universe
    int bits = 0;
  };
  bool stuck_;
  uint64_t total_ = 0;  ///< nodes (stuck-at) or state bits (SEU)
  std::vector<Target> targets_;
};

struct FaultDesign {
  std::string name;
  const workload::WorkloadSpec* spec = nullptr;
  netlist::Design design;
  SiteSpace seu, stuck;
  uint64_t watchdog = 0;  ///< campaign cycle budget per run
};

/// Set-up product: the designs, compiled with their plans warmed, and their
/// fault-site universes.
struct FaultSetup {
  std::vector<FaultDesign> designs;
};

FaultSetup fault_setup() {
  const workload::Registry& reg = workload::Registry::instance();
  FaultSetup s;
  s.designs.reserve(std::size(kFaultDesigns));  // plans live in the designs
  for (const CampaignDesign& cd : kFaultDesigns) {
    const std::string name = cd.name;
    const size_t dot = name.find('.');
    const workload::WorkloadSpec& spec = reg.get(name.substr(0, dot));
    netlist::Design d =
        tools::compile(spec.builder(name.substr(dot + 1)).build()).design;
    SiteSpace seu(d, false), stuck(d, true);
    s.designs.push_back({name, &spec, std::move(d), std::move(seu),
                         std::move(stuck), 0});
    FaultDesign& fd = s.designs.back();
    // The fault-free run over the campaign input set sizes the watchdog.
    std::unique_ptr<sim::Engine> engine = sim::make_engine(fd.design);
    axis::StreamTestbench tb(*engine);
    tb.run(workload::campaign_input_set(spec, kCampaignMatrices, 1));
    fd.watchdog = kWatchdogFactor * tb.timing().total_cycles;
  }
  return s;
}

struct Batch {
  size_t design = 0;
  bool stuck = false;
  std::vector<fault::FaultSite> sites;
};

/// Round `round` of the seeded input stream: one SEU and one stuck-at batch
/// per design. Each (design, kind) draws its sites as the next points of
/// its own seeded Kronecker sequence over the site universe, so every round
/// is fresh sites and any number of rounds samples the universe evenly.
std::vector<Batch> make_round(const FaultSetup& s, uint64_t seed, int round) {
  std::vector<Batch> batches;
  for (size_t i = 0; i < s.designs.size(); ++i)
    for (bool stuck : {false, true}) {
      const SiteSpace& space = stuck ? s.designs[i].stuck : s.designs[i].seu;
      const int n = stuck ? kFaultDesigns[i].stuck_sites : kFaultDesigns[i].seu_sites;
      const uint64_t stream =
          SplitMix64(seed).next() ^ SplitMix64(2 * i + stuck).next();
      Batch b{i, stuck, {}};
      for (int j = 0; j < n; ++j)
        b.sites.push_back(space.site(stream, static_cast<uint64_t>(round * n + j)));
      batches.push_back(std::move(b));
    }
  return batches;
}

struct BatchResult {
  bool threw = false;
  bool reference_functional = true;
  std::string error;
  std::vector<fault::Outcome> outcomes;  ///< site order
  double ms = 0;
};

BatchResult run_batch(const FaultDesign& d,
                      const std::vector<fault::FaultSite>& sites, int lanes) {
  fault::CampaignOptions o;
  o.matrices = kCampaignMatrices;
  o.max_cycles = d.watchdog;
  o.keep_runs = true;
  o.progress_every = 0;
  o.jobs = 1;
  o.lanes = lanes;
  BatchResult res;
  const auto t0 = Clock::now();
  try {
    const fault::CampaignReport rep = fault::run_campaign(d.design, *d.spec, sites, o);
    res.ms = ms_since(t0);
    res.reference_functional = rep.reference_functional;
    for (const fault::RunRecord& run : rep.runs) res.outcomes.push_back(run.outcome);
  } catch (const std::exception& e) {
    res.ms = ms_since(t0);
    res.threw = true;
    res.error = e.what();
  }
  return res;
}

/// Checks a batch result against what run_campaign must deliver; a thrown
/// campaign is a counted failure of all its sites, not a check failure.
void account_batch(Report& r, const FaultDesign& d, size_t sites,
                   const BatchResult& res) {
  r.attempted += static_cast<int64_t>(sites);
  if (res.threw) {
    r.failed += static_cast<int64_t>(sites);
    return;
  }
  if (!res.reference_functional)
    r.check_failed(d.name + ": fault-free campaign run is not bit-exact");
  if (res.outcomes.size() != sites)
    r.check_failed(d.name + ": campaign run log does not cover every site");
}

/// The first round again: lane-batched it must reproduce itself bit for
/// bit, and a scalar (1-lane) replay of each batch's leading sites — an
/// independent engine path — must classify them identically.
void check_round_zero(Report& r, const FaultSetup& s,
                      const std::vector<Batch>& round,
                      const std::vector<BatchResult>& results) {
  constexpr size_t kScalarSites = 8;
  for (size_t i = 0; i < round.size(); ++i) {
    const Batch& b = round[i];
    const FaultDesign& d = s.designs[b.design];
    const BatchResult again = run_batch(d, b.sites, kCampaignLanes);
    if (again.threw != results[i].threw || again.outcomes != results[i].outcomes)
      r.check_failed(d.name + ": a repeated campaign batch changed outcome");
    if (results[i].threw) continue;
    const size_t n = std::min(kScalarSites, b.sites.size());
    const BatchResult scalar = run_batch(
        d, std::vector<fault::FaultSite>(b.sites.begin(), b.sites.begin() + static_cast<long>(n)), 1);
    if (scalar.threw)
      note("scalar replay on %s threw: %s", d.name.c_str(), scalar.error.c_str());
    else if (!std::equal(scalar.outcomes.begin(), scalar.outcomes.end(),
                         results[i].outcomes.begin()))
      r.check_failed(d.name + ": lane-batched and scalar campaigns classify differently");
  }
}

void trace_fault(Report& r, const FaultSetup& s,
                 const std::vector<std::vector<Batch>>& rounds,
                 const std::vector<std::vector<BatchResult>>& results,
                 double untraced_campaign_ms) {
  obs::set_enabled(true);
  obs::registry().reset();
  double kind_ms[2] = {0, 0}, hang_ms = 0, nonhang_ms = 0;
  int64_t hang_sites = 0;
  const auto t_wall = Clock::now();
  for (size_t k = 0; k < rounds.size(); ++k)
    for (size_t i = 0; i < rounds[k].size(); ++i) {
      const Batch& b = rounds[k][i];
      const BatchResult& want = results[k][i];
      const FaultDesign& d = s.designs[b.design];
      if (want.threw) {  // re-run whole: it is expected to throw again
        const BatchResult res = run_batch(d, b.sites, kCampaignLanes);
        nonhang_ms += res.ms;
        kind_ms[b.stuck] += res.ms;
        account_batch(r, d, b.sites.size(), res);
        continue;
      }
      // Split by the untraced outcome: hung sites run to the watchdog, so
      // their cost is measured apart from the sites that finish.
      std::vector<fault::FaultSite> parts[2];  // [0] finish, [1] hang
      for (size_t j = 0; j < b.sites.size(); ++j)
        parts[want.outcomes[j] == fault::Outcome::kHang].push_back(b.sites[j]);
      hang_sites += static_cast<int64_t>(parts[1].size());
      for (int hang = 0; hang < 2; ++hang) {
        if (parts[hang].empty()) continue;
        const BatchResult res = run_batch(d, parts[hang], kCampaignLanes);
        (hang ? hang_ms : nonhang_ms) += res.ms;
        kind_ms[b.stuck] += res.ms;
        account_batch(r, d, parts[hang].size(), res);
        if (!res.threw &&
            std::any_of(res.outcomes.begin(), res.outcomes.end(),
                        [&](fault::Outcome o) {
                          return (o == fault::Outcome::kHang) != (hang == 1);
                        }))
          r.check_failed(d.name + ": a site re-run apart changed outcome");
      }
    }

  // Fault-free lane-batched streaming on every design: the simulation rate
  // the campaigns ride on.
  double batch_ms = 0, lane_cycles = 0;
  for (const FaultDesign& d : s.designs) {
    const std::vector<std::vector<workload::Frame>> inputs(
        kCampaignLanes, workload::campaign_input_set(*d.spec, kCampaignMatrices, 1));
    const auto t0 = Clock::now();
    sim::BatchSimulator bsim(d.design, kCampaignLanes);
    axis::BatchStreamTestbench tb(bsim);
    for (const axis::BatchLaneResult& lane : tb.run(inputs, d.watchdog))
      lane_cycles += static_cast<double>(lane.timing.total_cycles);
    batch_ms += ms_since(t0);
  }
  const double wall = ms_since(t_wall);
  const double refills = static_cast<double>(
      obs::registry().counter("fault.lane_refills")->value());
  obs::set_enabled(false);

  const double campaign_ms = hang_ms + nonhang_ms;
  r.set("wall_ms", wall);
  r.set("fault.seu_ms", kind_ms[0]);
  r.set("fault.stuck_ms", kind_ms[1]);
  r.set("fault.hang_sites", static_cast<double>(hang_sites));
  r.set("fault.hang_ms", hang_ms);
  r.set("fault.nonhang_ms", nonhang_ms);
  r.set("fault.lane_refills", refills);
  r.set("sim.batch_ms", batch_ms);
  r.set("sim.batch_lane_cycles_per_s",
        batch_ms > 0 ? lane_cycles / (batch_ms / 1e3) : 0.0);
  r.set("other_ms", wall - campaign_ms - batch_ms);
  r.set("obs.trace_overhead_frac", campaign_ms / untraced_campaign_ms - 1.0);
  note("traced rounds: wall %.1f ms = fault.seu %.1f + fault.stuck %.1f + "
       "sim.batch %.1f + other %.1f; campaigns split into hang %.1f ms "
       "(%lld sites) + nonhang %.1f ms",
       wall, kind_ms[0], kind_ms[1], batch_ms, wall - campaign_ms - batch_ms,
       hang_ms, static_cast<long long>(hang_sites), nonhang_ms);
}

Report run_fault(const Args& args) {
  Report r;
  const int cpu = fastest_cpu();
  const Pin pin(cpu);  // campaigns run on one thread
  note("fault_campaign runs pinned to CPU %d", cpu);
  HostProbe probe(1);
  probe.sample();
  double setup_s = 0;
  const FaultSetup s = repeated_setup(fault_setup, &setup_s);
  note("fault_campaign: %zu designs; each round one SEU and one stuck-at "
       "batch per design; jobs 1, %d lanes, watchdog %llux the fault-free run",
       s.designs.size(), kCampaignLanes,
       static_cast<unsigned long long>(kWatchdogFactor));
  for (size_t i = 0; i < s.designs.size(); ++i)
    note("  %-22s %3d SEU + %2d stuck-at sites per round, watchdog %llu cycles",
         s.designs[i].name.c_str(), kFaultDesigns[i].seu_sites,
         kFaultDesigns[i].stuck_sites,
         static_cast<unsigned long long>(s.designs[i].watchdog));

  // A fixed number of rounds of fresh seeded sites, with a probe sample
  // every kFaultRoundsPerProbe rounds. A round — both campaign kinds over
  // every design — is the unit whose latency is reported.
  const int64_t n_rounds = units_for(args.seconds, kFaultRoundsPerSecond, 1);
  std::vector<std::vector<Batch>> rounds;
  std::vector<std::vector<BatchResult>> results;
  std::vector<double> round_ms;
  std::vector<double> round_sites;  // per round: sites of batches that finished
  double rss_mb = 0;
  double kind_sites[2] = {0, 0}, kind_ms[2] = {0, 0}, campaign_ms = 0;
  std::map<std::string, int> throws;  // "design kind" -> batches that threw
  probe.sample();
  const auto t0 = Clock::now();
  for (int64_t k = 0; k < n_rounds; ++k) {
    const auto tr = Clock::now();
    rounds.push_back(make_round(s, args.seed, static_cast<int>(k)));
    std::vector<BatchResult>& out = results.emplace_back();
    double sites = 0;
    for (const Batch& b : rounds.back()) {
      const FaultDesign& d = s.designs[b.design];
      BatchResult res = run_batch(d, b.sites, kCampaignLanes);
      account_batch(r, d, b.sites.size(), res);
      kind_ms[b.stuck] += res.ms;
      campaign_ms += res.ms;
      if (res.threw) {
        if (throws[d.name + (b.stuck ? " stuck-at" : " SEU")]++ == 0)
          note("campaign batch on %s (%s) threw: %s", d.name.c_str(),
               b.stuck ? "stuck-at" : "SEU", res.error.c_str());
      } else {
        kind_sites[b.stuck] += static_cast<double>(b.sites.size());
        sites += static_cast<double>(b.sites.size());
      }
      out.push_back(std::move(res));
    }
    round_ms.push_back(ms_since(tr));
    round_sites.push_back(sites);
    if (round_ms.size() == 1) rss_mb = peak_rss_mb();
    const bool stop = over_cap(t0);
    if (stop || (k + 1) % kFaultRoundsPerProbe == 0 || k + 1 == n_rounds) probe.sample();
    if (stop) {
      note("stopped after %lld of %lld rounds: past the %.0f s cap",
           static_cast<long long>(k + 1), static_cast<long long>(n_rounds),
           kMeasureCapS);
      break;
    }
  }
  check_round_zero(r, s, rounds[0], results[0]);
  Digest digest;  // every site of every round
  for (size_t k = 0; k < rounds.size(); ++k)
    for (size_t i = 0; i < rounds[k].size(); ++i) {
      const Batch& b = rounds[k][i];
      const BatchResult& res = results[k][i];
      std::string rec = s.designs[b.design].name;
      if (res.threw) rec += "|threw";
      for (size_t j = 0; j < b.sites.size() && !res.threw; ++j)
        rec += '|' + b.sites[j].to_string() + '=' + fault::outcome_name(res.outcomes[j]);
      digest.add(rec);
    }
  fault::CampaignCounts counts;
  for (const auto& round : results)
    for (const BatchResult& b : round)
      for (fault::Outcome o : b.outcomes) {
        counts.masked += o == fault::Outcome::kMasked;
        counts.sdc += o == fault::Outcome::kSdc;
        counts.detected += o == fault::Outcome::kDetected;
        counts.hang += o == fault::Outcome::kHang;
      }
  for (size_t i = 0; i < s.designs.size(); ++i) {
    double ms[2] = {0, 0};
    for (size_t k = 0; k < rounds.size(); ++k)
      for (size_t j = 0; j < rounds[k].size(); ++j)
        if (rounds[k][j].design == i) ms[rounds[k][j].stuck] += results[k][j].ms;
    note("  %-22s SEU %8.1f ms, stuck-at %8.1f ms", s.designs[i].name.c_str(),
         ms[0], ms[1]);
  }
  note("%zu rounds: masked %d, sdc %d, detected %d, hang %d", rounds.size(),
       counts.masked, counts.sdc, counts.detected, counts.hang);
  for (const auto& [what, k] : throws)
    note("  batches that threw: %-30s %d of %zu", what.c_str(), k, rounds.size());
  note("campaign.seu_faults_per_s %.3f 1/s; campaign.stuck_faults_per_s %.3f "
       "1/s (sites classified per second of their campaigns); fail_frac %.6f",
       kind_sites[0] / (kind_ms[0] / 1e3), kind_sites[1] / (kind_ms[1] / 1e3),
       static_cast<double>(r.failed) / static_cast<double>(r.attempted));
  note("digest fault_campaign %s (%zu rounds)", digest.hex().c_str(), rounds.size());
  if (args.trace) {
    trace_fault(r, s, rounds, results, campaign_ms);
  } else {
    // ops_per_s: the median round's sites classified per second.
    std::vector<double> raw_rate;
    for (size_t k = 0; k < round_ms.size(); ++k)
      raw_rate.push_back(round_sites[k] / (round_ms[k] / 1e3));
    const double rate = percentile(raw_rate, 0.5);
    report_end_to_end(r, probe, setup_s, rss_mb, rate * probe.factor(), rate,
                      scaled_ms(round_ms, probe), round_ms, "round");
  }
  return r;
}

// ---- svc_mixed ------------------------------------------------------------

struct SvcSetup {
  std::unique_ptr<svc::Server> server;
  std::vector<std::string> designs;  ///< as list_designs returns them
};

/// A server with a warmed cache: one default-option compile per design.
SvcSetup svc_setup(size_t recent_requests) {
  SvcSetup s;
  svc::ServerOptions o;
  o.workers = kSvcWorkers;
  o.queue_capacity = 64;
  o.recent_requests = recent_requests;
  s.server = std::make_unique<svc::Server>(o);
  const Json list =
      Json::parse(s.server->handle(R"({"id":0,"method":"list_designs"})"));
  const Json& names = list.at("result").at("designs");
  for (size_t i = 0; i < names.size(); ++i) s.designs.push_back(names[i].as_string());
  for (const std::string& d : s.designs) {
    Json req = Json::object();
    req.set("id", Json::number(0));
    req.set("method", Json::string("compile"));
    Json params = Json::object();
    params.set("design", Json::string(d));
    req.set("params", std::move(params));
    s.server->handle(req.dump());
  }
  return s;
}

struct SvcRequest {
  std::string method;
  std::string line;
  std::string signature;  ///< method + params: equal signatures, equal results
};

/// One request line with its method and signature.
SvcRequest make_request(const std::string& method, Json params, int64_t id) {
  Json req = Json::object();
  req.set("id", Json::number(id));
  req.set("method", Json::string(method));
  if (params.size() > 0) req.set("params", params);
  return {method, req.dump(), method + params.dump()};
}

/// Requests per served design in one block of the svc_mixed deck.
constexpr int64_t kDeckPerDesign = 20;

/// The seeded request stream: `blocks` blocks, each holding, for every
/// served design, 11 compiles (the option fingerprints — narrow,
/// strength_reduce, optimize — cycle through 8 combinations, so the key set
/// is well past the 64-entry cache), 3 evaluates (1 matrix), 1 campaign of 8
/// sites (SEU and stuck-at alternate), 3 stats and 2 list_designs, in an
/// order shuffled by the seed. Every run of every seed sends the same
/// requests but for the campaign sites; the seed sets their order — and so
/// the cache's hits, misses and evictions — and the campaigns' site seeds.
/// (A mix drawn request by request made a run's cost hinge on how many of
/// the few heavy requests, evaluates of the Bambu designs, it drew.)
std::vector<SvcRequest> make_requests(uint64_t seed,
                                      const std::vector<std::string>& designs,
                                      int64_t blocks) {
  std::vector<SvcRequest> out;
  for (int64_t b = 0; b < blocks; ++b) {
    std::vector<std::pair<std::string, Json>> block;
    for (size_t d = 0; d < designs.size(); ++d) {
      const auto on_design = [&] {
        Json params = Json::object();
        params.set("design", Json::string(designs[d]));
        return params;
      };
      for (int j = 0; j < 11; ++j) {
        const uint64_t option = (static_cast<uint64_t>(j) + d + 3 * static_cast<uint64_t>(b)) % 8;
        Json params = on_design();
        params.set("narrow", Json::boolean(option & 1));
        params.set("strength_reduce", Json::boolean(option & 2));
        params.set("optimize", Json::boolean(option < 6));
        block.emplace_back("compile", std::move(params));
      }
      for (int j = 0; j < 3; ++j) {
        Json params = on_design();
        params.set("matrices", Json::number(1));
        block.emplace_back("evaluate", std::move(params));
      }
      Json params = on_design();
      params.set("sites", Json::number(8));
      params.set("kind", Json::string((d + static_cast<size_t>(b)) % 2 ? "stuck" : "seu"));
      params.set("seed", Json::number(static_cast<int64_t>(
          SplitMix64(seed ^ SplitMix64(static_cast<uint64_t>(b) * 4096 + d).next()).next() % 1000)));
      params.set("matrices", Json::number(1));
      block.emplace_back("campaign", std::move(params));
      for (int j = 0; j < 5; ++j)
        block.emplace_back(j < 3 ? "stats" : "list_designs", Json::object());
    }
    SplitMix64 rng(seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(b) + 1);
    for (size_t i = block.size() - 1; i > 0; --i)
      std::swap(block[i], block[rng.next() % (i + 1)]);
    for (auto& [method, params] : block)
      out.push_back(make_request(method, std::move(params), static_cast<int64_t>(out.size())));
  }
  return out;
}

struct Sample {
  int64_t seq = 0;
  SvcRequest request;
  double latency_ms = 0;  ///< send -> reply
  std::string response;
};

/// Closed loop of one client: it sends request k + 1 only after the reply to
/// request k, through every request. One request is in flight at a time, so
/// the cache sees the same sequence of lookups, inserts and evictions on
/// every run of a seed, and so do the results. With a probe, a sample is
/// taken every kSvcRequestsPerProbe requests (the loop stops early past the
/// time cap). Samples come back in send order.
std::vector<Sample> closed_loop(svc::Server& server,
                                const std::vector<SvcRequest>& requests,
                                HostProbe* probe, double* wall_ms) {
  const int64_t n = static_cast<int64_t>(requests.size());
  std::vector<Sample> samples;
  if (probe) probe->sample();
  double probe_ms = 0;  // time spent probing, not serving
  const auto t0 = Clock::now();
  for (int64_t k = 0; k < n; ++k) {
    Sample s;
    s.seq = k;
    s.request = requests[static_cast<size_t>(k)];
    const auto ts = Clock::now();
    try {
      s.response = server.submit(s.request.line).get();
    } catch (const std::exception&) {
      // No response: left empty, it fails the response checks.
    }
    s.latency_ms = ms_since(ts);
    samples.push_back(std::move(s));
    if (!probe) continue;
    const bool stop = over_cap(t0);
    if (stop || (k + 1) % kSvcRequestsPerProbe == 0 || k + 1 == n) {
      const auto tp = Clock::now();
      probe->sample();
      probe_ms += ms_since(tp);
    }
    if (stop) {
      note("stopped after %lld of %lld requests: past the %.0f s cap",
           static_cast<long long>(k + 1), static_cast<long long>(n), kMeasureCapS);
      break;
    }
  }
  *wall_ms = ms_since(t0) - probe_ms;
  return samples;
}

// Direct-library references for service results.

netlist::Design build_served(const std::string& name) {
  if (name == "idct.rtl_kernel") return rtl::build_matrix_kernel();
  if (name == "idct.chisel_kernel") return chisel::build_matrix_kernel();
  const workload::Registry& reg = workload::Registry::instance();
  const size_t dot = name.find('.');
  if (dot == std::string::npos) return reg.get("idct").builder(name).build();
  return reg.get(name.substr(0, dot)).builder(name.substr(dot + 1)).build();
}

const workload::WorkloadSpec& served_spec(const std::string& name) {
  const workload::Registry& reg = workload::Registry::instance();
  const size_t dot = name.find('.');
  const workload::WorkloadSpec* spec =
      dot == std::string::npos ? nullptr : reg.find(name.substr(0, dot));
  return spec ? *spec : reg.get("idct");
}

bool param_bool(const Json& params, const char* key, bool fallback) {
  const Json* v = params.find(key);
  return v ? v->as_bool() : fallback;
}

/// The fields of a result that a direct library call must reproduce.
std::string checked_fields(const std::string& method, const Json& result) {
  static const std::map<std::string, std::vector<const char*>> kFields = {
      {"compile", {"content_hash", "node_count"}},
      {"evaluate", {"functional", "latency_cycles", "periodicity_cycles",
                    "fmax_mhz", "area"}},
      {"campaign", {"sites", "counts"}},
  };
  std::string out;
  for (const char* f : kFields.at(method)) {
    const Json* v = result.find(f);
    out += std::string(f) + '=' + (v ? v->dump() : "<missing>") + ';';
  }
  return out;
}

/// What the service must answer for `method` + `params`, computed through
/// tools::compile / tools::evaluate_design / fault::run_campaign directly.
std::string reference_fields(const std::string& method, const Json& params) {
  const std::string name = params.at("design").as_string();
  Json result = Json::object();
  if (method == "compile") {
    tools::CompileOptions o;
    o.optimize = param_bool(params, "optimize", true);
    o.strength_reduce = param_bool(params, "strength_reduce", false);
    o.narrow = param_bool(params, "narrow", true);
    const tools::CompiledDesign c = tools::compile(build_served(name), o);
    result.set("content_hash",
               Json::string(svc::content_hash(netlist::dump_text(c.design))));
    result.set("node_count",
               Json::number(static_cast<int64_t>(c.design.node_count())));
  } else if (method == "evaluate") {
    core::EvaluateOptions eval;
    eval.matrices = static_cast<int>(params.at("matrices").as_int());
    const core::DesignEvaluation ev = tools::evaluate_design(
        build_served(name), served_spec(name), tools::CompileOptions{}, eval);
    result.set("functional", Json::boolean(ev.functional));
    result.set("latency_cycles", Json::number(ev.latency_cycles));
    result.set("periodicity_cycles", Json::number(ev.periodicity_cycles));
    result.set("fmax_mhz", Json::number(ev.fmax_mhz));
    result.set("area", Json::number(static_cast<int64_t>(ev.area)));
  } else {
    const tools::CompiledDesign c = tools::compile(build_served(name));
    const int sites = static_cast<int>(params.at("sites").as_int());
    const uint64_t seed = static_cast<uint64_t>(params.at("seed").as_int());
    const std::vector<fault::FaultSite> fs =
        params.at("kind").as_string() == "stuck"
            ? fault::sample_stuck_sites(c.design, sites, seed)
            : fault::sample_seu_sites(c.design, sites, 40, seed);
    fault::CampaignOptions o;
    o.matrices = static_cast<int>(params.at("matrices").as_int());
    o.progress_every = 0;
    o.keep_runs = false;
    const fault::CampaignReport rep =
        fault::run_campaign(c.design, served_spec(name), fs, o);
    Json counts = Json::object();
    counts.set("masked", Json::number(rep.counts.masked));
    counts.set("sdc", Json::number(rep.counts.sdc));
    counts.set("detected", Json::number(rep.counts.detected));
    counts.set("hang", Json::number(rep.counts.hang));
    result.set("sites", Json::number(rep.counts.total()));
    result.set("counts", std::move(counts));
  }
  return checked_fields(method, result);
}

/// Validates every response and counts failures: an error response, or a
/// result that disagrees with the direct-library reference, is a failed
/// request. A malformed response fails the run's checks. Folds every
/// response into `digest` when given.
void check_responses(Report& r, const std::vector<Sample>& samples,
                     Digest* digest) {
  std::map<std::string, const Sample*> distinct;  // signature -> an ok sample
  std::vector<std::pair<const Sample*, Json>> parsed;
  std::map<std::string, int> outcomes;
  for (const Sample& s : samples) {
    r.attempted += 1;
    Json resp;
    try {
      resp = Json::parse(s.response);
    } catch (const std::exception&) {
      r.failed += 1;
      r.check_failed("unparseable response to " + s.request.line);
      continue;
    }
    const Json* ok = resp.find("ok");
    const Json* id = resp.find("id");
    if (!ok || !id || !resp.find("trace_id") ||
        id->dump() != Json::parse(s.request.line).at("id").dump()) {
      r.failed += 1;
      r.check_failed("malformed response " + s.response);
      continue;
    }
    if (!ok->as_bool()) {
      r.failed += 1;
      ++outcomes[s.request.method + ":" + resp.at("error").at("code").as_string()];
    } else if (s.request.method == "compile" || s.request.method == "evaluate" ||
               s.request.method == "campaign") {
      distinct.emplace(s.request.signature, &s);
    }
    parsed.emplace_back(&s, std::move(resp));
  }

  std::vector<const Sample*> refs;
  for (const auto& [sig, s] : distinct) refs.push_back(s);
  par::SweepRunner runner(kDseJobs);
  const std::vector<std::string> want = runner.map<std::string>(
      "perfbench.svc_refs", static_cast<int64_t>(refs.size()),
      [&](int64_t i) -> std::string {
        const Sample& s = *refs[static_cast<size_t>(i)];
        try {
          return reference_fields(s.request.method,
                                  Json::parse(s.request.line).at("params"));
        } catch (const std::exception& e) {
          return std::string("threw: ") + e.what();
        }
      });
  std::map<std::string, std::string> expected;
  for (size_t i = 0; i < refs.size(); ++i)
    expected[refs[i]->request.signature] = want[i];

  std::map<int64_t, std::string> digest_records;
  for (const auto& [s, resp] : parsed) {
    const bool ok = resp.at("ok").as_bool();
    std::string record = s->request.signature + "=>";
    if (ok) {
      // The body minus "cached", which depends on request interleaving;
      // stats bodies are live counters, not modelled results.
      Json body = Json::object();
      for (const auto& [k, v] : resp.at("result").items())
        if (k != "cached" && s->request.method != "stats") body.set(k, v);
      record += body.dump();
      const auto it = expected.find(s->request.signature);
      if (it != expected.end()) {
        const std::string got = checked_fields(s->request.method, resp.at("result"));
        if (got != it->second) {
          r.failed += 1;
          if (++outcomes[s->request.method + ":wrong_result"] == 1)
            note("  first wrong %s result: %s answered %s, direct call gives %s",
                 s->request.method.c_str(), s->request.signature.c_str(),
                 got.c_str(), it->second.c_str());
        } else {
          ++outcomes[s->request.method + ":ok"];
        }
      } else {
        ++outcomes[s->request.method + ":ok"];
      }
    } else {
      record += resp.at("error").at("code").as_string();
    }
    digest_records[s->seq] = record;
  }
  if (digest)
    for (const auto& [key, record] : digest_records) digest->add(record);
  for (const auto& [what, n] : outcomes) note("  %-28s %d", what.c_str(), n);
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

std::vector<double> latencies(const std::vector<Sample>& samples,
                              const std::string& method = "") {
  std::vector<double> out;
  for (const Sample& s : samples)
    if (method.empty() || s.request.method == method) out.push_back(s.latency_ms);
  return out;
}

void trace_svc(Report& r, int cpu, const std::vector<SvcRequest>& requests,
               double untraced_mean_ms) {
  auto pin = std::make_unique<Pin>(cpu);  // as in the untraced loop
  // A fresh server whose request ring holds the whole run.
  SvcSetup s = svc_setup(size_t{1} << 20);
  obs::set_enabled(true);
  double wall = 0;
  const std::vector<Sample> samples =
      closed_loop(*s.server, requests, nullptr, &wall);
  obs::set_enabled(false);
  pin.reset();
  check_responses(r, samples, nullptr);

  // Queue and handler time per request, from the server's own records of
  // exactly these requests.
  std::set<std::string> ids;
  for (const Sample& smp : samples) {
    const size_t at = smp.response.find("\"trace_id\":\"");
    if (at != std::string::npos) ids.insert(smp.response.substr(at + 12, 16));
  }
  std::vector<double> queue_ms;
  double queue_sum = 0, handler_sum = 0;
  for (const svc::Server::RequestRecord& rec : s.server->recent_requests()) {
    if (!ids.count(obs::trace_id_hex(rec.trace_id))) continue;
    queue_ms.push_back(static_cast<double>(rec.queue_ns) / 1e6);
    queue_sum += static_cast<double>(rec.queue_ns) / 1e6;
    handler_sum += static_cast<double>(rec.total_ns - rec.queue_ns) / 1e6;
  }
  if (queue_ms.size() != samples.size())
    r.check_failed("server request records do not cover every request");
  const svc::DesignCache::Stats cache = s.server->cache_stats();

  // parse_request on the same lines.
  const auto tp = Clock::now();
  for (const Sample& smp : samples) svc::parse_request(smp.request.line, 1u << 16);
  const double parse_us = ms_since(tp) * 1e3 / static_cast<double>(samples.size());

  // The same cache keys, in send order, against a standalone DesignCache.
  svc::DesignCache replay;
  std::map<std::string, netlist::Design> built;
  const auto design_for = [&](const std::string& name) -> const netlist::Design& {
    auto it = built.find(name);
    if (it == built.end()) it = built.emplace(name, build_served(name)).first;
    return it->second;
  };
  for (const std::string& d : s.designs) replay.get_or_compile(design_for(d), {});
  std::vector<double> hit_us, miss_ms;
  int replay_errors = 0;
  for (const Sample& smp : samples) {
    const std::string& m = smp.request.method;
    if (m != "compile" && m != "evaluate" && m != "campaign") continue;
    const Json params = Json::parse(smp.request.line).at("params");
    tools::CompileOptions o;
    if (m == "compile") {
      o.optimize = param_bool(params, "optimize", true);
      o.strength_reduce = param_bool(params, "strength_reduce", false);
      o.narrow = param_bool(params, "narrow", true);
    }
    const netlist::Design& d = design_for(params.at("design").as_string());
    const auto t0 = Clock::now();
    try {
      const bool hit = replay.get_or_compile(d, o).hit;
      (hit ? hit_us : miss_ms).push_back(hit ? ms_since(t0) * 1e3 : ms_since(t0));
    } catch (const std::exception&) {
      ++replay_errors;
    }
  }

  r.set("wall_ms", wall);
  r.set("svc.queue_ms", queue_sum);
  r.set("svc.handler_ms", handler_sum);
  r.set("other_ms", wall - queue_sum - handler_sum);
  r.set("svc.parse_us", parse_us);
  r.set("svc.queue_ms_p50", percentile(queue_ms, 0.5));
  r.set("svc.queue_ms_p99", percentile(queue_ms, 0.99));
  const double lookups = static_cast<double>(cache.hits + cache.misses);
  r.set("svc.cache.hit_rate", lookups > 0 ? cache.hits / lookups : 0.0);
  r.set("svc.cache.evictions", static_cast<double>(cache.evictions));
  r.set("svc.cache.hit_us", percentile(hit_us, 0.5));
  r.set("svc.cache.miss_ms", percentile(miss_ms, 0.5));
  for (const char* m : {"compile", "evaluate", "campaign"})
    r.set(std::string("svc.method.") + m + "_ms_p50", percentile(latencies(samples, m), 0.5));
  r.set("obs.trace_overhead_frac",
        mean(latencies(samples)) / untraced_mean_ms - 1.0);
  note("traced loop: %zu requests; wall %.1f ms = svc.queue %.1f + "
       "svc.handler %.1f + other %.1f; cache replay %zu hits, %zu misses, "
       "%d compiles threw",
       samples.size(), wall, queue_sum, handler_sum, wall - queue_sum - handler_sum,
       hit_us.size(), miss_ms.size(), replay_errors);
}

Report run_svc(const Args& args) {
  Report r;
  // One request in flight: one busy thread at a time, so the client and
  // the server's workers run pinned to one CPU (the reference checks after
  // the loop use every CPU).
  const int cpu = fastest_cpu();
  auto pin = std::make_unique<Pin>(cpu);
  note("svc_mixed client and server run pinned to CPU %d", cpu);
  HostProbe probe(1);
  probe.sample();
  double setup_s = 0;
  SvcSetup s = repeated_setup([] { return svc_setup(svc::ServerOptions{}.recent_requests); },
                              &setup_s);
  // Whole blocks of the request deck, at least kSvcMinRequests requests.
  const int64_t block = kDeckPerDesign * static_cast<int64_t>(s.designs.size());
  const int64_t blocks = std::max(
      (kSvcMinRequests + block - 1) / block,
      static_cast<int64_t>(std::llround(args.seconds * kSvcRequestsPerSecond /
                                        static_cast<double>(block))));
  const std::vector<SvcRequest> requests = make_requests(args.seed, s.designs, blocks);
  const int64_t n = static_cast<int64_t>(requests.size());
  note("svc_mixed: 1 closed-loop client, %d workers, %zu designs, cache "
       "budget %zu entries, %lld requests",
       kSvcWorkers, s.designs.size(), s.server->options().cache.max_entries,
       static_cast<long long>(n));
  double wall = 0;
  const std::vector<Sample> samples =
      closed_loop(*s.server, requests, &probe, &wall);
  const double rss_mb = peak_rss_mb();
  const svc::DesignCache::Stats cache = s.server->cache_stats();
  s = {};  // stop the workers before the reference computations
  pin.reset();

  Digest digest;
  check_responses(r, samples, &digest);
  note("svc cache: %lld hits, %lld misses, %lld evictions",
       static_cast<long long>(cache.hits), static_cast<long long>(cache.misses),
       static_cast<long long>(cache.evictions));
  note("fail_frac %.6f; loop wall %.1f ms (probing excluded)",
       static_cast<double>(r.failed) / static_cast<double>(r.attempted), wall);
  note("digest svc_mixed %s (every response)", digest.hex().c_str());
  const std::vector<double> raw = latencies(samples);
  const std::vector<double> scaled = scaled_ms(raw, probe);
  for (const char* m : {"compile", "evaluate", "campaign", "stats", "list_designs"}) {
    const std::vector<double> lat = latencies(samples, m);
    note("  %-12s %5zu requests: p50 %.3f ms, p99 %.3f ms, total %.1f ms (raw)",
         m, lat.size(), percentile(lat, 0.5), percentile(lat, 0.99),
         mean(lat) * static_cast<double>(lat.size()));
  }
  if (args.trace) {
    trace_svc(r, cpu, requests, mean(raw));
  } else {
    // ops_per_s: requests per second of service time (the closed loop's
    // rate, leaving out the client's own request building).
    report_end_to_end(r, probe, setup_s, rss_mb, 1e3 / mean(scaled),
                      1e3 / mean(raw), scaled, raw, "request");
    note("svc.req_per_s %.3f 1/s; svc.p50_ms %.4f; svc.p99_ms %.4f",
         r.values["ops_per_s"], r.values["latency_p50_ms"],
         r.values["latency_tail_ms"]);
  }
  return r;
}

bool parse_args(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end) return false;
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end || !(a->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a->trace = val == "1";
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload dse_grid|fault_campaign|svc_mixed "
                 "--seed N --seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }
  try {
    note("perfbench %s seed %llu seconds %g trace %d", args.workload.c_str(),
         static_cast<unsigned long long>(args.seed), args.seconds,
         args.trace ? 1 : 0);
    Report r;
    if (args.workload == "dse_grid") {
      r = run_dse(args);
    } else if (args.workload == "fault_campaign") {
      r = run_fault(args);
    } else if (args.workload == "svc_mixed") {
      r = run_svc(args);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
    emit(r, args.trace);
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
