// AnalyticsService: the long-lived attack-analytics engine (DESIGN.md §6f).
//
// Callers submit ServiceRequests (full scenarios) or SweepRequests
// (scenario + axis + values) and get std::futures for ServiceResponses; a
// runtime::ThreadPool drains the queue. Per request the service
//
//   1. canonicalises: splits the scenario into its family base (grid, plan
//      with secured bits cleared, strip_delta(spec)) and a ScenarioDelta
//      (the sweep axes + the plan's secured set as assumptions), and
//      fingerprints both;
//   2. consults the ResultMemo under the combined fingerprint — an exact
//      repeat answers without touching a solver;
//   3. screens it (LpScreen) — a provably infeasible relaxation answers
//      Unsat without a solver;
//   4. on a sweep point, checks what earlier points of the same sweep
//      answered: a SAT witness that meets this point's caps and secured
//      set, or a refutation of a point at most as constrained, settles it
//      (core/implication.h) — no session is leased;
//   5. otherwise leases a warm kBase session from the SolverSessionCache
//      and runs verify_delta (push, assert delta, solve under secured
//      assumptions, pop — learnt clauses survive), or, for
//      portfolio requests, races fresh clones via verify_portfolio;
//   6. records queue-wait / solve / total latency into histograms and
//      emits a "service_request" trace event.
//
// stats() aggregates cache hit rates and p50/p95/p99 latencies;
// emit_stats() writes them as one "service_stats" trace event.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/histogram.h"
#include "obs/trace.h"
#include "runtime/cancellation.h"
#include "runtime/thread_pool.h"
#include "service/request.h"
#include "service/result_memo.h"
#include "service/session_cache.h"

namespace psse::service {

struct ServiceOptions {
  /// Worker threads draining the request queue.
  std::size_t threads = 4;
  /// Idle warm sessions kept across requests (see SolverSessionCache).
  std::size_t max_sessions = 32;
  /// Result-memo capacity in entries; 0 disables memoisation.
  std::size_t memo_capacity = 4096;
  /// Applied to requests whose own time_limit_seconds is 0; 0 = unlimited.
  double default_time_limit_seconds = 0;
  /// LP-relaxation screening (screen::LpScreen, DESIGN.md §6h): before a
  /// request reaches a solver, a warm per-family LP over the exact
  /// rational simplex decides whether *any* unobservable injection can
  /// reach the request's goal. Infeasible relaxation => Unsat, no SMT
  /// call; anything else falls through to the normal dispatch, so
  /// verdicts are bit-identical with screening on or off.
  bool screen = true;
  /// Warm per-family screens kept alive (each holds one simplex tableau
  /// sized like the DC model); 0 disables screening outright.
  std::size_t max_screens = 32;
  /// Structured tracing for request/stats events; also handed to portfolio
  /// runs. The sink must outlive the service.
  obs::Config trace;
};

struct ServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  std::uint64_t sat = 0;
  std::uint64_t unsat = 0;
  std::uint64_t unknown = 0;
  /// Requests answered Unsat by the LP screen alone (no SMT dispatch).
  std::uint64_t screened = 0;
  /// Sweep points answered by an earlier point of the same sweep (no
  /// session leased; see ServiceResponse::implied).
  std::uint64_t implied = 0;
  SolverSessionCache::Stats sessions;
  ResultMemo::Stats memo;
  /// Microsecond latency percentiles (bucket upper bounds, see
  /// obs::LatencyHistogram).
  std::uint64_t queue_p50_us = 0, queue_p95_us = 0, queue_p99_us = 0;
  std::uint64_t solve_p50_us = 0, solve_p95_us = 0, solve_p99_us = 0;
  std::uint64_t total_p50_us = 0, total_p95_us = 0, total_p99_us = 0;
};

class AnalyticsService {
 public:
  explicit AnalyticsService(const ServiceOptions& options = {});
  AnalyticsService(const AnalyticsService&) = delete;
  AnalyticsService& operator=(const AnalyticsService&) = delete;
  /// Drains in-flight requests (pool shutdown), then tears down the caches.
  ~AnalyticsService();

  /// Enqueues one request. The future never throws for scenario/solve
  /// problems — failures come back as ServiceResponse::error — only for
  /// internal misuse (broken promise).
  [[nodiscard]] std::future<ServiceResponse> submit(ServiceRequest request);

  /// Expands the sweep (expand_sweep) and enqueues it as one task that
  /// walks the points in order, answering each before it starts the next.
  /// Points of one sweep share a family: the task leases one session at
  /// the first point that needs a solve and holds it to the end, so a
  /// sweep never scatters over several sessions. Before solving a point it
  /// checks what earlier points answered — SAT carries up to looser
  /// points, UNSAT down to tighter ones (core/implication.h) — and answers
  /// an implied point without a solve. The target axis, Unknown verdicts,
  /// in-band errors and memo hits never answer a later point, and a point
  /// picked up after cancel_all is never implied. A sweep occupies one
  /// worker for its length; parallelism runs across sweeps. Throws what
  /// expand_sweep throws on malformed axis values; once enqueued, per-point
  /// failures come back in-band.
  [[nodiscard]] std::vector<std::future<ServiceResponse>> submit_sweep(
      const SweepRequest& sweep);

  /// Requests cancellation of every request submitted so far — in-flight
  /// solves return Unknown promptly, queued ones observe the flag when a
  /// worker picks them up (they still produce responses). Requests
  /// submitted afterwards run normally on a fresh flag.
  void cancel_all();

  [[nodiscard]] ServiceStats stats() const;
  /// Emits stats() as one "service_stats" trace event (no-op untraced).
  void emit_stats();

  [[nodiscard]] std::size_t threads() const { return pool_->size(); }

 private:
  /// One per family: a warm screen::LpScreen plus a per-delta verdict memo
  /// (defined in the .cpp; shared_ptr keeps evicted entries alive for
  /// in-flight users).
  struct ScreenEntry;
  /// One sweep in flight: its held session and the answers its points may
  /// carry to later ones (defined in the .cpp).
  struct SweepChain;

  /// Answers one request; `chain` is null for standalone requests.
  [[nodiscard]] ServiceResponse process(const ServiceRequest& request,
                                        std::chrono::steady_clock::time_point
                                            enqueued,
                                        const runtime::CancellationToken&
                                            cancel,
                                        SweepChain* chain);
  /// Looks up (or builds) the warm screen for `family`; returns nullptr
  /// when the screen could not be constructed (screening then simply
  /// doesn't apply — never an error).
  [[nodiscard]] std::shared_ptr<ScreenEntry> screen_for(
      std::uint64_t family, const core::Scenario& base);
  /// Snapshot of the current cancellation flag (taken at submit time, so
  /// cancel_all covers everything already enqueued).
  [[nodiscard]] runtime::CancellationToken cancel_token();

  ServiceOptions options_;
  SolverSessionCache sessions_;
  ResultMemo memo_;
  std::mutex screens_mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<ScreenEntry>> screens_;
  std::mutex cancel_mu_;
  runtime::CancellationSource cancel_;
  obs::LatencyHistogram queue_hist_;
  obs::LatencyHistogram solve_hist_;
  obs::LatencyHistogram total_hist_;
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> sat_{0};
  std::atomic<std::uint64_t> unsat_{0};
  std::atomic<std::uint64_t> unknown_{0};
  std::atomic<std::uint64_t> screened_{0};
  std::atomic<std::uint64_t> implied_{0};
  /// Last member: workers must die before the state they touch.
  std::unique_ptr<runtime::ThreadPool> pool_;
};

}  // namespace psse::service
