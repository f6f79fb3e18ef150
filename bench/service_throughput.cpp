// service_throughput: warm delta-solve sweeps through the analytics
// service vs. cold per-point re-encoding.
//
// The workload is the IEEE 57-bus verification scenario's resource sweep
// (T_CZ = 4..28, the fig. 4(c) axis): the question a long-lived analytics
// deployment answers all day. "cold" rebuilds a full UfdiAttackModel per
// point, the pre-service workflow; "warm" routes one server-side sweep
// through AnalyticsService, which walks the points in order on one
// persistent kBase session that keeps its learnt clauses (and its phase
// saving) across queries, and answers a point outright when an earlier
// point's SAT witness fits under its cap or an earlier refutation covers
// it. Each warm point's `how` column says which: solved, implied,
// screened or memo (the memo is off, so never memo here).
//
// The warm sweep runs twice: at one worker, and at hardware_concurrency()
// workers, where it must still hold exactly one session. Verdicts must be
// identical down every column — a speedup that changes an answer is a
// bug — and the bench exits nonzero on any mismatch, or when the
// many-worker sweep encoded more than one session.
//
// --json emits one line per mode (run "pr6_service", modes cold/warm,
// one warm line per worker count) with total ms, qps, and for warm rows
// the worker count, the implied point count, the service's p50/p95/p99
// solve latencies and the speedup; BENCH_smt.json keeps the recorded
// runs.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/scenario.h"
#include "service/analytics_service.h"

using namespace psse;

namespace {

constexpr double kTimeLimitSeconds = 300;

const char* verdict_name(smt::SolveResult r) {
  switch (r) {
    case smt::SolveResult::Sat:
      return "SAT";
    case smt::SolveResult::Unsat:
      return "UNSAT";
    default:
      return "UNKNOWN";
  }
}

double now_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

const char* how(const service::ServiceResponse& r) {
  if (r.memo_hit) return "memo";
  if (r.screened) return "screened";
  if (r.implied) return "implied";
  return "solved";
}

struct WarmRun {
  std::size_t threads = 0;
  std::vector<service::ServiceResponse> points;
  service::ServiceStats stats;
  double total_ms = 0;
};

/// One server-side sweep on a fresh service with `threads` workers, memo
/// off.
WarmRun run_warm(const core::Scenario& sc, const std::vector<double>& caps,
                 std::size_t threads) {
  service::ServiceOptions options;
  options.threads = threads;
  options.default_time_limit_seconds = kTimeLimitSeconds;
  service::AnalyticsService svc(options);
  service::SweepRequest sweep;
  sweep.id = "tcz";
  sweep.scenario = sc;
  sweep.axis = service::SweepAxis::kMaxMeasurements;
  sweep.values = caps;
  sweep.use_memo = false;
  WarmRun run;
  run.threads = threads;
  const auto start = std::chrono::steady_clock::now();
  for (auto& f : svc.submit_sweep(sweep)) run.points.push_back(f.get());
  run.total_ms = now_ms(start);
  run.stats = svc.stats();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = bench::json_enabled(argc, argv);
  std::string dataDir = PSSE_DATA_DIR;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) != "--json") dataDir = argv[i];
  }
  core::Scenario sc;
  try {
    sc = core::Scenario::load(dataDir + "/ieee57_verification.scn");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::vector<double> caps;
  for (int cap = 4; cap <= 28; cap += 2) caps.push_back(cap);

  bench::header("Service throughput (ieee57 resource sweep)",
                "a warm kBase session answering T_CZ deltas beats "
                "per-point re-encoding by >=3x with identical verdicts");

  // Cold: the pre-service workflow — fresh full encode per point.
  std::vector<smt::SolveResult> coldVerdicts;
  std::vector<double> coldMs;
  const auto coldStart = std::chrono::steady_clock::now();
  for (double cap : caps) {
    core::AttackSpec spec = sc.spec;
    spec.max_altered_measurements = static_cast<int>(cap);
    const auto pointStart = std::chrono::steady_clock::now();
    const core::VerificationResult r =
        bench::verify_run(sc.grid, sc.plan, spec, kTimeLimitSeconds);
    coldMs.push_back(now_ms(pointStart));
    coldVerdicts.push_back(r.result);
  }
  const double coldTotalMs = now_ms(coldStart);

  // Warm: one server-side sweep, at one worker (sequential against
  // sequential: the speedup measures solver reuse and implication, not
  // parallelism) and at every core (the sweep must still be one chain on
  // one session).
  const std::size_t cores =
      std::max(1u, std::thread::hardware_concurrency());
  std::vector<WarmRun> runs;
  runs.push_back(run_warm(sc, caps, 1));
  runs.push_back(run_warm(sc, caps, cores));

  bool failed = false;
  for (const WarmRun& run : runs) {
    std::printf("\nwarm at %zu worker(s):\n", run.threads);
    std::printf("%-8s %10s %10s %8s %8s %9s %8s\n", "T_CZ", "cold_ms",
                "warm_ms", "cold", "warm", "how", "session");
    for (std::size_t k = 0; k < caps.size(); ++k) {
      const service::ServiceResponse& r = run.points[k];
      if (!r.ok()) {
        std::fprintf(stderr, "error: point %zu: %s\n", k, r.error.c_str());
        return 1;
      }
      if (r.verdict != coldVerdicts[k]) {
        std::fprintf(stderr, "error: T_CZ %.0f at %zu worker(s): warm %s, "
                     "cold %s\n", caps[k], run.threads,
                     verdict_name(r.verdict), verdict_name(coldVerdicts[k]));
        failed = true;
      }
      const bool solved = !r.memo_hit && !r.screened && !r.implied;
      std::printf("%-8.0f %10.1f %10.1f %8s %8s %9s %8s\n", caps[k],
                  coldMs[k], r.solve_seconds * 1000.0,
                  verdict_name(coldVerdicts[k]), verdict_name(r.verdict),
                  how(r), !solved ? "-" : r.session_hit ? "hit" : "miss");
    }
    const service::ServiceStats& st = run.stats;
    std::printf("total: cold %.1f ms, warm %.1f ms, speedup %.2fx\n",
                coldTotalMs, run.total_ms,
                run.total_ms > 0 ? coldTotalMs / run.total_ms : 0);
    std::printf("sessions encoded %llu, points implied %llu, solve "
                "p50/p95/p99 = %llu/%llu/%llu us\n",
                static_cast<unsigned long long>(st.sessions.misses),
                static_cast<unsigned long long>(st.implied),
                static_cast<unsigned long long>(st.solve_p50_us),
                static_cast<unsigned long long>(st.solve_p95_us),
                static_cast<unsigned long long>(st.solve_p99_us));
    if (st.sessions.misses != 1) {
      std::fprintf(stderr, "error: the sweep at %zu worker(s) encoded %llu "
                   "sessions, not 1\n", run.threads,
                   static_cast<unsigned long long>(st.sessions.misses));
      failed = true;
    }
  }
  if (failed) return 1;

  const double n = static_cast<double>(caps.size());
  bench::JsonLine(json, "service_throughput", "ieee57_resource_sweep")
      .field("run", "pr6_service")
      .field("mode", "cold")
      .field("points", static_cast<std::uint64_t>(caps.size()))
      .field("ms", coldTotalMs)
      .field("qps", 1000.0 * n / coldTotalMs)
      .emit();
  for (const WarmRun& run : runs) {
    bench::JsonLine(json, "service_throughput", "ieee57_resource_sweep")
        .field("run", "pr6_service")
        .field("mode", "warm")
        .field("threads", static_cast<std::uint64_t>(run.threads))
        .field("points", static_cast<std::uint64_t>(caps.size()))
        .field("implied", run.stats.implied)
        .field("ms", run.total_ms)
        .field("qps", 1000.0 * n / run.total_ms)
        .field("solve_p50_us", run.stats.solve_p50_us)
        .field("solve_p95_us", run.stats.solve_p95_us)
        .field("solve_p99_us", run.stats.solve_p99_us)
        .field("speedup", run.total_ms > 0 ? coldTotalMs / run.total_ms : 0)
        .emit();
  }
  return 0;
}
