#include "service/analytics_service.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <optional>
#include <utility>

#include "core/implication.h"
#include "runtime/portfolio.h"
#include "screen/lp_screen.h"

namespace psse::service {

/// Warm LP screen for one family, plus a memo of screen verdicts keyed by
/// the *cap-free* delta fingerprint: the relaxation drops the resource
/// caps and magnitude thresholds entirely, so every point of a T_CZ/T_CB/
/// topology/magnitude sweep shares one screen verdict. The entry mutex
/// serialises the underlying simplex (LpScreen is not thread-safe).
struct AnalyticsService::ScreenEntry {
  explicit ScreenEntry(const core::Scenario& base)
      : screen(base.grid, base.plan, base.spec) {}
  std::mutex mu;
  screen::LpScreen screen;
  std::unordered_map<std::uint64_t, screen::ScreenResult> verdicts;
};

/// One sweep in flight, touched only by the task walking it. expand_sweep
/// varies only delta axes, so every point of a sweep shares one family: the
/// first point that needs a solve leases a session and the rest reuse it,
/// and any point's answer is a candidate to settle another. `answers` holds
/// the points that were solved or screened Sat/Unsat, in sweep order — the
/// only answers allowed to settle a later point.
struct AnalyticsService::SweepChain {
  struct Answer {
    int index = -1;
    core::ScenarioDelta delta;
    std::optional<core::AttackVector> witness;  // present iff Sat
  };

  /// The earliest answer that settles `point`, or null.
  [[nodiscard]] const Answer* implying(
      const core::ScenarioDelta& point) const {
    for (const Answer& a : answers) {
      if (a.witness ? core::witness_implies(a.delta, *a.witness, point)
                    : core::refutation_implies(a.delta, point)) {
        return &a;
      }
    }
    return nullptr;
  }

  /// False on the target axis: its points differ in goal, so none can
  /// settle another.
  bool carries = true;
  std::optional<SolverSessionCache::Lease> lease;
  std::vector<Answer> answers;
};

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

std::uint64_t us_between(Clock::time_point from, Clock::time_point to) {
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count();
  return us > 0 ? static_cast<std::uint64_t>(us) : 0;
}

/// Fingerprints travel as fixed-width hex strings: JSON numbers above 2^53
/// lose precision in double-based consumers, and hex matches how the fps
/// read in trace greps.
std::string fp_hex(std::uint64_t fp) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, fp);
  return buf;
}

/// The part of a delta the LP screen can actually see: caps and magnitude
/// thresholds are dropped by the relaxation, so they are zeroed out of the
/// screen-memo key and sweep points along those axes hit one cached
/// verdict.
std::uint64_t screen_key(const core::ScenarioDelta& delta) {
  core::ScenarioDelta relaxed = delta;
  relaxed.max_altered_measurements = 0;
  relaxed.max_compromised_buses = 0;
  relaxed.max_topology_changes = 0;
  relaxed.min_target_shift = 0.0;
  relaxed.max_measurement_delta = 0.0;
  return core::delta_fingerprint(relaxed);
}

/// 1-based sorted measurement ids of a witness (the external id convention
/// of scenario files and batch_runner output).
std::vector<int> witness_measurements(const core::AttackVector& attack) {
  std::vector<int> ids;
  ids.reserve(attack.altered_measurements.size());
  for (grid::MeasId m : attack.altered_measurements) ids.push_back(m + 1);
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace

AnalyticsService::AnalyticsService(const ServiceOptions& options)
    : options_(options),
      sessions_(SolverSessionCache::Options{
          options.max_sessions == 0 ? 1 : options.max_sessions}),
      memo_(options.memo_capacity),
      pool_(std::make_unique<runtime::ThreadPool>(
          options.threads == 0 ? 1 : options.threads)) {}

AnalyticsService::~AnalyticsService() {
  // Drain workers before the caches they lease from go down.
  pool_.reset();
}

std::future<ServiceResponse> AnalyticsService::submit(
    ServiceRequest request) {
  const Clock::time_point enqueued = Clock::now();
  runtime::CancellationToken token = cancel_token();
  auto shared =
      std::make_shared<ServiceRequest>(std::move(request));
  return pool_->submit([this, shared, enqueued,
                        token]() -> ServiceResponse {
    return process(*shared, enqueued, token, nullptr);
  });
}

std::vector<std::future<ServiceResponse>> AnalyticsService::submit_sweep(
    const SweepRequest& sweep) {
  auto points =
      std::make_shared<std::vector<ServiceRequest>>(expand_sweep(sweep));
  auto promises = std::make_shared<std::vector<std::promise<ServiceResponse>>>(
      points->size());
  std::vector<std::future<ServiceResponse>> futures;
  futures.reserve(points->size());
  for (std::promise<ServiceResponse>& p : *promises) {
    futures.push_back(p.get_future());
  }
  const Clock::time_point enqueued = Clock::now();
  runtime::CancellationToken token = cancel_token();
  const bool carries = sweep.axis != SweepAxis::kTarget;
  (void)pool_->submit([this, points, promises, enqueued, token, carries] {
    SweepChain chain;
    chain.carries = carries;
    std::size_t k = 0;
    try {
      for (; k < points->size(); ++k) {
        ServiceResponse resp = process((*points)[k], enqueued, token, &chain);
        // Check the session back in before the last answer goes out, so a
        // client that has every answer finds it idle.
        if (k + 1 == points->size()) chain.lease.reset();
        (*promises)[k].set_value(std::move(resp));
      }
    } catch (...) {
      // Scenario and solve failures come back in-band; anything else
      // (allocation failure) reaches every point not yet answered.
      for (; k < points->size(); ++k) {
        (*promises)[k].set_exception(std::current_exception());
      }
    }
  });
  return futures;
}

void AnalyticsService::cancel_all() {
  std::lock_guard<std::mutex> lock(cancel_mu_);
  cancel_.cancel();
  // Fresh flag for later submissions; in-flight tokens keep the cancelled
  // one alive.
  cancel_ = runtime::CancellationSource();
}

ServiceResponse AnalyticsService::process(
    const ServiceRequest& request, Clock::time_point enqueued,
    const runtime::CancellationToken& cancel, SweepChain* chain) {
  const Clock::time_point started = Clock::now();
  ServiceResponse resp;
  resp.id = request.id;
  resp.sweep_index = request.sweep_index;
  resp.queue_seconds = seconds_between(enqueued, started);

  try {
    const core::Scenario& sc = request.scenario;

    // Canonical split: the family base is the scenario with every
    // ScenarioDelta axis removed — including the plan's secured bits, which
    // become assumption-applied delta.secured_measurements. Scenarios that
    // differ only in sweep axes thus share one warm session.
    core::ScenarioDelta delta = core::ScenarioDelta::of(sc.spec);
    core::Scenario base = sc;
    for (grid::MeasId m = 0; m < base.plan.num_potential(); ++m) {
      if (base.plan.secured(m)) {
        base.plan.set_secured(m, false);
        delta.secured_measurements.push_back(m);
      }
    }
    base.spec = core::strip_delta(sc.spec);

    resp.family = core::family_fingerprint(sc.grid, sc.plan, sc.spec);
    resp.fingerprint = core::combine_fingerprints(
        resp.family, core::delta_fingerprint(delta));

    if (request.use_memo && options_.memo_capacity > 0) {
      if (std::optional<MemoEntry> memo = memo_.lookup(resp.fingerprint)) {
        resp.memo_hit = true;
        resp.verdict = memo->verdict;
        resp.altered_measurements = memo->altered_measurements;
      }
    }

    if (!resp.memo_hit && options_.screen && options_.max_screens > 0 &&
        request.use_screen) {
      const Clock::time_point screen_start = Clock::now();
      if (std::shared_ptr<ScreenEntry> entry =
              screen_for(resp.family, base)) {
        const std::uint64_t key = screen_key(delta);
        std::lock_guard<std::mutex> lock(entry->mu);
        auto it = entry->verdicts.find(key);
        if (it == entry->verdicts.end()) {
          it = entry->verdicts.emplace(key, entry->screen.screen(delta))
                   .first;
        }
        if (it->second.verdict == screen::ScreenVerdict::kInfeasible) {
          // The relaxation has no nonzero unobservable injection reaching
          // the goal, so no SMT model exists either — answer Unsat
          // without dispatching. Sat can never be screened away, so the
          // verdict matches the unscreened run bit for bit.
          resp.screened = true;
          resp.verdict = smt::SolveResult::Unsat;
        }
      }
      resp.screen_seconds = seconds_between(screen_start, Clock::now());
    }

    // Only solved and screened answers settle later points; a memo hit
    // carries no witness to check, and after cancel_all the chain stops
    // answering from earlier points.
    const bool chained = chain != nullptr && chain->carries;
    auto record = [&](std::optional<core::AttackVector> witness) {
      if (!chained || resp.verdict == smt::SolveResult::Unknown) return;
      chain->answers.push_back({resp.sweep_index, delta, std::move(witness)});
    };
    if (resp.screened) record(std::nullopt);
    if (!resp.memo_hit && !resp.screened && chained && !cancel.cancelled()) {
      if (const SweepChain::Answer* a = chain->implying(delta)) {
        resp.implied = true;
        resp.implied_by = a->index;
        if (a->witness) {
          resp.verdict = smt::SolveResult::Sat;
          resp.altered_measurements = witness_measurements(*a->witness);
        } else {
          resp.verdict = smt::SolveResult::Unsat;
        }
      }
    }

    if (!resp.memo_hit && !resp.screened && !resp.implied) {
      smt::Budget budget;
      const double limit = request.time_limit_seconds > 0
                               ? request.time_limit_seconds
                               : options_.default_time_limit_seconds;
      if (limit > 0) {
        budget.max_time = std::chrono::milliseconds(
            static_cast<std::int64_t>(limit * 1000.0));
      }
      budget.stop = cancel.raw();

      if (request.portfolio > 0) {
        // Hard single queries trade warm reuse for a race on fresh clones.
        core::UfdiAttackModel model(sc.grid, sc.plan, sc.spec);
        runtime::PortfolioOptions popts;
        popts.num_threads = request.portfolio;
        popts.budget = budget;
        popts.trace = options_.trace;
        popts.mode = request.portfolio_cube
                         ? runtime::PortfolioMode::kCubeAndConquer
                         : runtime::PortfolioMode::kRace;
        runtime::PortfolioResult port =
            runtime::verify_portfolio(model, popts);
        resp.verdict = port.result();
        if (port.winner >= 0) {
          resp.winner =
              port.members[static_cast<std::size_t>(port.winner)].label;
        } else if (request.portfolio_cube &&
                   port.result() == smt::SolveResult::Unsat) {
          // Joint cube-tree refutation: no single member owns the proof.
          resp.winner = "cube-tree";
        }
        if (port.verification.attack) {
          resp.altered_measurements =
              witness_measurements(*port.verification.attack);
        }
        resp.decisions = port.verification.stats.sat.decisions;
        resp.conflicts = port.verification.stats.sat.conflicts;
        resp.pivots = port.verification.stats.pivots;
      } else {
        // A sweep holds its lease across points; a held session has
        // answered an earlier point, so it is warm.
        std::optional<SolverSessionCache::Lease> own;
        std::optional<SolverSessionCache::Lease>& lease =
            chain != nullptr ? chain->lease : own;
        if (lease) {
          resp.session_hit = true;
        } else {
          lease.emplace(sessions_.acquire(resp.family, base));
          resp.session_hit = lease->hit();
        }
        core::VerificationResult result =
            lease->model().verify_delta(delta, budget);
        resp.verdict = result.result;
        if (result.attack) {
          resp.altered_measurements = witness_measurements(*result.attack);
        }
        resp.decisions = result.stats.sat.decisions;
        resp.conflicts = result.stats.sat.conflicts;
        resp.pivots = result.stats.pivots;
        record(std::move(result.attack));
      }
    }

    // Screened and implied verdicts are memoised too: an exact repeat then
    // skips even the (cheap) screen lookup.
    if (!resp.memo_hit && request.use_memo && options_.memo_capacity > 0) {
      MemoEntry entry;
      entry.verdict = resp.verdict;
      entry.altered_measurements = resp.altered_measurements;
      entry.solve_seconds = seconds_between(started, Clock::now());
      memo_.insert(resp.fingerprint, entry);
    }
  } catch (const std::exception& e) {
    resp.error = e.what();
  }

  const Clock::time_point finished = Clock::now();
  resp.solve_seconds = seconds_between(started, finished);

  queue_hist_.record(us_between(enqueued, started));
  solve_hist_.record(us_between(started, finished));
  total_hist_.record(us_between(enqueued, finished));
  ++requests_;
  if (resp.screened) ++screened_;
  if (resp.implied) ++implied_;
  if (!resp.ok()) {
    ++errors_;
  } else if (resp.verdict == smt::SolveResult::Sat) {
    ++sat_;
  } else if (resp.verdict == smt::SolveResult::Unsat) {
    ++unsat_;
  } else {
    ++unknown_;
  }

  if (options_.trace.enabled()) {
    obs::Event ev("service_request");
    ev.field("id", resp.id)
        .field("verdict", smt::to_cstring(resp.verdict))
        .field("queue_us", us_between(enqueued, started))
        .field("solve_us", us_between(started, finished))
        .field("session_hit", resp.session_hit)
        .field("memo_hit", resp.memo_hit)
        .field("screened", resp.screened)
        .field("implied", resp.implied)
        .field("screen_us",
               static_cast<std::uint64_t>(resp.screen_seconds * 1e6))
        .field("portfolio", static_cast<std::uint64_t>(request.portfolio))
        .field("portfolio_mode", request.portfolio_cube ? "cube" : "race")
        .field("family", fp_hex(resp.family))
        .field("fp", fp_hex(resp.fingerprint));
    if (resp.sweep_index >= 0) ev.field("sweep_index", resp.sweep_index);
    if (resp.implied) ev.field("implied_by", resp.implied_by);
    if (!resp.winner.empty()) ev.field("winner", resp.winner);
    if (!resp.ok()) ev.field("error", resp.error);
    ev.emit(options_.trace);
  }
  return resp;
}

std::shared_ptr<AnalyticsService::ScreenEntry> AnalyticsService::screen_for(
    std::uint64_t family, const core::Scenario& base) {
  {
    std::lock_guard<std::mutex> lock(screens_mu_);
    auto it = screens_.find(family);
    if (it != screens_.end()) return it->second;
  }
  // Build outside the map lock — construction walks the whole measurement
  // model. A lost race just drops the duplicate.
  std::shared_ptr<ScreenEntry> built;
  try {
    built = std::make_shared<ScreenEntry>(base);
  } catch (const std::exception&) {
    // A scenario the screen cannot model is not an error — the request
    // simply takes the unscreened path.
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(screens_mu_);
  auto [it, inserted] = screens_.emplace(family, std::move(built));
  if (inserted && screens_.size() > options_.max_screens) {
    // Evict an arbitrary other family; shared_ptr keeps any in-flight
    // users of the evicted entry alive.
    for (auto victim = screens_.begin(); victim != screens_.end();
         ++victim) {
      if (victim->first != family) {
        screens_.erase(victim);
        break;
      }
    }
  }
  return it->second;
}

runtime::CancellationToken AnalyticsService::cancel_token() {
  std::lock_guard<std::mutex> lock(cancel_mu_);
  return cancel_.token();
}

ServiceStats AnalyticsService::stats() const {
  ServiceStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.sat = sat_.load(std::memory_order_relaxed);
  s.unsat = unsat_.load(std::memory_order_relaxed);
  s.unknown = unknown_.load(std::memory_order_relaxed);
  s.screened = screened_.load(std::memory_order_relaxed);
  s.implied = implied_.load(std::memory_order_relaxed);
  s.sessions = sessions_.stats();
  s.memo = memo_.stats();
  s.queue_p50_us = queue_hist_.quantile_us(0.50);
  s.queue_p95_us = queue_hist_.quantile_us(0.95);
  s.queue_p99_us = queue_hist_.quantile_us(0.99);
  s.solve_p50_us = solve_hist_.quantile_us(0.50);
  s.solve_p95_us = solve_hist_.quantile_us(0.95);
  s.solve_p99_us = solve_hist_.quantile_us(0.99);
  s.total_p50_us = total_hist_.quantile_us(0.50);
  s.total_p95_us = total_hist_.quantile_us(0.95);
  s.total_p99_us = total_hist_.quantile_us(0.99);
  return s;
}

void AnalyticsService::emit_stats() {
  if (!options_.trace.enabled()) return;
  const ServiceStats s = stats();
  obs::Event ev("service_stats");
  ev.field("requests", s.requests)
      .field("errors", s.errors)
      .field("sat", s.sat)
      .field("unsat", s.unsat)
      .field("unknown", s.unknown)
      .field("screened", s.screened)
      .field("implied", s.implied)
      .field("session_hits", s.sessions.hits)
      .field("session_misses", s.sessions.misses)
      .field("session_evictions", s.sessions.evictions)
      .field("families", static_cast<std::uint64_t>(s.sessions.families))
      .field("memo_hits", s.memo.hits)
      .field("memo_misses", s.memo.misses)
      .field("memo_size", static_cast<std::uint64_t>(s.memo.size))
      .field("queue_p50_us", s.queue_p50_us)
      .field("queue_p95_us", s.queue_p95_us)
      .field("queue_p99_us", s.queue_p99_us)
      .field("solve_p50_us", s.solve_p50_us)
      .field("solve_p95_us", s.solve_p95_us)
      .field("solve_p99_us", s.solve_p99_us)
      .field("total_p50_us", s.total_p50_us)
      .field("total_p95_us", s.total_p95_us)
      .field("total_p99_us", s.total_p99_us);
  ev.emit(options_.trace);
}

}  // namespace psse::service
