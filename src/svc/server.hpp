// svc::Server — the in-process synthesis service.
//
// A long-running front end over the canonical compile pipeline: requests
// arrive as line-delimited JSON (protocol.hpp), are admitted through a
// bounded par::TaskQueue, and are executed by worker threads that route all
// design work through tools::compile — via the content-hash DesignCache —
// and the existing evaluation/campaign/DSE machinery. Resilience is the
// design center, not a bolt-on:
//
//   * Admission control: the queue holds at most queue_capacity requests.
//     A submit against a full queue is *shed immediately* with a structured
//     `overloaded` response carrying a retry_after_ms hint — backlog can
//     never grow without bound, and shedding costs O(1).
//   * Deadlines: each request's wall budget (its "deadline_ms", else the
//     server default) starts at admission, so time spent queued counts.
//     The token is re-checked at dequeue and threaded into the pass
//     pipeline, every simulation engine, and between DSE points; expiry
//     anywhere surfaces as `deadline_exceeded`, never as a wedged worker.
//   * Crash isolation: any exception a handler throws — malformed params,
//     an unknown design, a throwing design builder, an internal bug —
//     becomes an `internal_error` (or more specific) response carrying the
//     request id. The daemon keeps serving; the poison-request test feeds
//     it a hundred hostile requests and then checks a clean compile still
//     answers bitwise-identically to a direct tools::compile call.
//   * Caching: compiles are memoized content-addressed (cache.hpp) with
//     byte/entry budgets and LRU eviction, so a hot design costs one
//     compile no matter how many clients ask.
//
// Metrics (when obs::enabled()): svc.requests / svc.ok / svc.error.<code> /
// svc.shed counters, the svc.request_ns latency histogram (served requests
// only; shed and unparseable ones are answered at admission) — plus labeled
// series keyed per method and per workload (svc.requests{method=…},
// svc.request_ns{method=…}, svc.requests{workload=…},
// svc.outcome{code=…}) — par.queue.depth and svc.cache.* via their owning
// layers.
//
// Tracing (always): every request — including malformed and shed ones —
// mints an obs::TraceContext at admission; the handling worker installs it,
// so the compile pipeline's spans, the pool's chunk spans, and every
// obs::EventLog event of that request share one trace_id. Responses carry
// the id as a top-level "trace_id" field, and the `trace` protocol method
// returns recent request summaries and per-trace events in-band.
//
// The server is in-process by design — tests and benches drive it through
// svc::Client; the hlshc_serve binary wires serve() to stdin/stdout for the
// actual daemon. Network transport stays out of scope (and out of the
// dependency set); the protocol is transport-agnostic lines either way.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/deadline.hpp"
#include "obs/trace.hpp"
#include "netlist/ir.hpp"
#include "par/queue.hpp"
#include "svc/cache.hpp"
#include "svc/protocol.hpp"
#include "tools/compile.hpp"
#include "workload/workload.hpp"

namespace hlshc::svc {

struct ServerOptions {
  int workers = 1;                  ///< request-executing threads
  int queue_capacity = 16;          ///< admission bound; beyond it: shed
  size_t max_request_bytes = 1u << 16;  ///< request-line byte limit
  int64_t default_deadline_ms = 0;  ///< applied when a request names none
  int retry_after_ms = 5;           ///< hint attached to overloaded responses
  /// Requests slower than this (admission → response) emit a kWarn
  /// "svc.slow_request" event when obs::enabled(); 0 disables the slow log.
  int64_t slow_request_ms = 1000;
  /// Per-request summaries held for the `trace` protocol method (always on:
  /// one small struct per request, bounded ring).
  size_t recent_requests = 64;
  CacheConfig cache;
  /// Base compile options for compile/evaluate/campaign requests; per-request
  /// params may override optimize/strength_reduce, and the per-request
  /// deadline token is always attached on top.
  tools::CompileOptions compile;
};

class Server {
 public:
  explicit Server(const ServerOptions& options = {});
  /// Cancels queued requests and joins the workers. Futures of cancelled
  /// requests report broken_promise; drain via serve()/handle() first for a
  /// graceful stop.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Adds (or replaces) a buildable design. The built-in set mirrors the
  /// workload registry — every fast builder as "<workload>.<builder>" plus
  /// the historical bare names for the paper's Verilog and Chisel families;
  /// tests register hostile builders (throwing, slow) through the same hook.
  void register_design(const std::string& name,
                       std::function<netlist::Design()> builder);
  std::vector<std::string> design_names() const;
  /// Builds the design named in params.design (kInvalidRequest when absent
  /// or unregistered). Request handlers call it on the worker, under the
  /// request's deadline.
  netlist::Design build_design(const obs::Json& params) const;

  /// Admits one request line. Never blocks: the returned future resolves to
  /// the response line — immediately for admission failures (malformed,
  /// oversized, overloaded), after execution otherwise.
  std::future<std::string> submit(const std::string& line);

  /// Synchronous convenience: submit(line).get().
  std::string handle(const std::string& line);

  /// The daemon loop: one request per input line, one response per output
  /// line, in request order (execution itself overlaps across workers). A
  /// "shutdown" request drains in-flight work and returns.
  void serve(std::istream& in, std::ostream& out);

  DesignCache::Stats cache_stats() const { return cache_.stats(); }
  int queue_depth() const { return queue_.depth(); }
  int64_t shed_count() const { return queue_.shed(); }
  const ServerOptions& options() const { return options_; }

  /// One completed (or shed) request, as served by the `trace` method.
  struct RequestRecord {
    uint64_t trace_id = 0;
    std::string method;
    std::string design;    ///< params.design when present
    std::string outcome;   ///< "ok" or the wire error code
    int64_t queue_ns = 0;  ///< admission → dequeue
    int64_t total_ns = 0;  ///< admission → response
  };
  std::vector<RequestRecord> recent_requests() const;  ///< newest first

 private:
  std::string process(const Request& req,
                      const std::shared_ptr<const Deadline>& deadline,
                      int64_t admitted_ns, const obs::TraceContext& trace);
  obs::Json dispatch(const Request& req,
                     const std::shared_ptr<const Deadline>& deadline);
  obs::Json handle_compile(const Request& req,
                           const std::shared_ptr<const Deadline>& deadline);
  obs::Json handle_evaluate(const Request& req,
                            const std::shared_ptr<const Deadline>& deadline);
  obs::Json handle_campaign(const Request& req,
                            const std::shared_ptr<const Deadline>& deadline);
  obs::Json handle_dse(const Request& req,
                       const std::shared_ptr<const Deadline>& deadline);
  obs::Json handle_stats() const;
  /// The `trace` method: recent request summaries, plus the correlated
  /// event-log entries when params.trace_id names a specific trace.
  obs::Json handle_trace(const Request& req) const;

  /// The workload spec a request measures against: an explicit
  /// params.workload wins (kInvalidRequest when unregistered); otherwise a
  /// "<workload>." design-name prefix is honoured when it names a registry
  /// entry; otherwise the paper's default, "idct".
  const workload::WorkloadSpec& resolve_workload(const obs::Json& params) const;
  tools::CompileOptions compile_options(
      const obs::Json& params,
      const std::shared_ptr<const Deadline>& deadline) const;
  /// Outcome accounting: labeled counters/histograms, the slow-request log,
  /// and the recent-requests ring. Runs for every request, shed included;
  /// only `served` requests (ones a worker processed) enter the latency
  /// histograms, so answers given at admission do not dilute them.
  void finish(const Request& req, const std::string& outcome,
              int64_t admitted_ns, int64_t queue_ns,
              const obs::TraceContext& trace, bool served);

  ServerOptions options_;
  DesignCache cache_;
  mutable std::mutex designs_mutex_;
  std::map<std::string, std::function<netlist::Design()>> designs_;
  mutable std::mutex recent_mutex_;
  std::deque<RequestRecord> recent_;  ///< newest at the back, bounded
  par::TaskQueue queue_;  ///< declared last: workers die before the rest
};

}  // namespace hlshc::svc
