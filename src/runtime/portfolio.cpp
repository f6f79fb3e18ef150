#include "runtime/portfolio.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <thread>

#include "runtime/thread_pool.h"
#include "smt/common.h"

namespace psse::runtime {

std::vector<PortfolioMember> default_portfolio(std::size_t n) {
  using smt::SatOptions;
  std::vector<PortfolioMember> members;
  members.reserve(n);
  auto add = [&](const char* label, const SatOptions& o) {
    if (members.size() < n) members.push_back({label, o});
  };
  // Member 0 must stay the default configuration (serial-equivalence
  // anchor for tests and for the deterministic mode).
  add("baseline", {});
  {
    SatOptions o;
    o.var_decay = 0.90;
    o.restart_base = 50;
    add("fast-decay", o);
  }
  {
    SatOptions o;
    o.theory_check_period = 2;
    o.restart_base = 200;
    add("lazy", o);
  }
  {
    SatOptions o;
    o.default_phase = true;
    o.theory_check_period = 2;
    o.restart_base = 200;
    add("pos-lazy", o);
  }
  {
    SatOptions o;
    o.random_branch_permil = 50;
    o.seed = 0x2545f4914f6cdd1dull;
    add("random-5pct", o);
  }
  {
    SatOptions o;
    o.random_branch_permil = 50;
    o.default_phase = true;
    o.seed = 0x9e3779b97f4a7c15ull;
    add("pos-random-5pct", o);
  }
  // Beyond the ladder: random-branching overlays of baseline with distinct
  // seeds, alternating the initial phase.
  for (std::size_t k = members.size(); k < n; ++k) {
    SatOptions o;
    o.random_branch_permil = 30 + 8 * static_cast<std::uint32_t>(k % 8);
    o.default_phase = (k & 1) != 0;
    o.seed = 0x100000001b3ull * (k + 1) + 0xcbf29ce484222325ull;
    members.push_back({"random-seed-" + std::to_string(k), o});
  }
  return members;
}

namespace {

using Clock = std::chrono::steady_clock;

// The caller's max_time as one absolute deadline for a whole portfolio
// call, fixed on entry: every solve the call starts (burn-in, racing
// member, cube, race fallback) gets only the time that is left, so the
// call as a whole stays inside the caller's limit.
class Deadline {
 public:
  explicit Deadline(const smt::Budget& budget)
      : limited_(budget.max_time.count() > 0),
        at_(Clock::now() + budget.max_time) {}

  // Cuts `budget`'s max_time to the time left, rounded up to whole
  // milliseconds (a zero max_time would mean "unlimited"). Returns false,
  // leaving `budget` as it was, once the deadline has passed.
  [[nodiscard]] bool clip(smt::Budget& budget) const {
    if (!limited_) return true;
    const Clock::duration left = at_ - Clock::now();
    if (left <= Clock::duration::zero()) return false;
    budget.max_time = std::chrono::ceil<std::chrono::milliseconds>(left);
    return true;
  }

  [[nodiscard]] bool passed() const {
    return limited_ && Clock::now() >= at_;
  }

 private:
  bool limited_;
  Clock::time_point at_;
};

bool stop_requested(const smt::Budget& budget) {
  return budget.stop != nullptr &&
         budget.stop->load(std::memory_order_relaxed);
}

void emit_member_event(const obs::Config& trace, std::uint64_t index,
                       const PortfolioMemberOutcome& outcome,
                       const core::VerificationResult& v) {
  obs::Event("portfolio_member")
      .field("index", index)
      .field("label", outcome.label)
      .field("verdict", smt::to_cstring(v.result))
      .field("cancelled", outcome.cancelled)
      .field("seconds", v.seconds)
      .field("decisions", v.stats.sat.decisions)
      .field("conflicts", v.stats.sat.conflicts)
      .field("restarts", v.stats.sat.restarts)
      .field("pivots", v.stats.pivots)
      .emit(trace);
}

void emit_done_event(const obs::Config& trace, const PortfolioResult& out,
                     const PortfolioOptions& options, std::size_t members) {
  obs::Event("portfolio_done")
      .field("winner", out.winner)
      .field("winner_label",
             out.winner >= 0
                 ? out.members[static_cast<std::size_t>(out.winner)].label
                 : std::string())
      .field("verdict", smt::to_cstring(out.verification.result))
      .field("deterministic", options.deterministic)
      .field("members", static_cast<std::uint64_t>(members))
      .field("seconds", out.seconds)
      .field("mode", options.mode == PortfolioMode::kCubeAndConquer
                         ? "cube"
                         : "race")
      .field("cubes_generated", out.cubes_generated)
      .field("cubes_refuted", out.cubes_refuted)
      .emit(trace);
}

// Cross-cube effort aggregation for the joint UNSAT verdict: counters sum
// (total work the cube tree cost), gauges take the max (peak footprint of
// any conqueror).
void accumulate_stats(smt::SolverStats& acc, const smt::SolverStats& d) {
  acc.sat.decisions += d.sat.decisions;
  acc.sat.propagations += d.sat.propagations;
  acc.sat.conflicts += d.sat.conflicts;
  acc.sat.restarts += d.sat.restarts;
  acc.sat.learned_clauses += d.sat.learned_clauses;
  acc.sat.deleted_clauses += d.sat.deleted_clauses;
  acc.sat.theory_checks += d.sat.theory_checks;
  acc.sat.theory_conflicts += d.sat.theory_conflicts;
  acc.sat.theory_propagations += d.sat.theory_propagations;
  acc.sat.arena_gcs += d.sat.arena_gcs;
  acc.pivots += d.pivots;
  acc.bound_flips += d.bound_flips;
  acc.bland_fallbacks += d.bland_fallbacks;
  acc.bigint_promotions += d.bigint_promotions;
  acc.float_pivots += d.float_pivots;
  acc.exact_recomputes += d.exact_recomputes;
  acc.filter_disagreements += d.filter_disagreements;
  acc.filter_fallbacks += d.filter_fallbacks;
  acc.eta_updates += d.eta_updates;
  acc.refactorisations += d.refactorisations;
  acc.eta_file_len_max = std::max(acc.eta_file_len_max, d.eta_file_len_max);
  acc.num_terms = std::max(acc.num_terms, d.num_terms);
  acc.num_atoms = std::max(acc.num_atoms, d.num_atoms);
  acc.num_bool_vars = std::max(acc.num_bool_vars, d.num_bool_vars);
  acc.num_real_vars = std::max(acc.num_real_vars, d.num_real_vars);
  acc.footprint_bytes = std::max(acc.footprint_bytes, d.footprint_bytes);
  acc.arena_capacity_bytes =
      std::max(acc.arena_capacity_bytes, d.arena_capacity_bytes);
  acc.arena_live_bytes = std::max(acc.arena_live_bytes, d.arena_live_bytes);
}

PortfolioResult race_portfolio(const core::UfdiAttackModel& model,
                               const PortfolioOptions& options,
                               const Deadline& deadline) {
  const auto start = std::chrono::steady_clock::now();
  const std::vector<PortfolioMember> members =
      default_portfolio(options.num_threads);
  PSSE_CHECK(!members.empty(), "verify_portfolio: no portfolio members");
  const std::size_t n = members.size();

  PortfolioResult out;
  out.members.resize(n);
  for (std::size_t i = 0; i < n; ++i) out.members[i].label = members[i].label;

  // First-winner cancellation (racing mode only). A caller-supplied stop
  // token is layered on top by the wait loop below, which forwards it into
  // this internal flag so members need to poll only one; a token already
  // set on entry cancels every member before it starts.
  std::atomic<bool> raceStop{stop_requested(options.budget)};
  std::mutex mu;
  std::vector<core::VerificationResult> results(n);
  int firstDefinitive = -1;  // completion order, guarded by mu

  ThreadPool pool(n);
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(pool.submit([&, i] {
      // Clone inside the worker, so members pay for their copies
      // concurrently.
      auto clone = model.clone();
      clone->set_solver_options(members[i].options);
      smt::Budget budget = options.budget;
      budget.stop = &raceStop;
      core::VerificationResult v;
      if (deadline.clip(budget)) v = clone->verify(budget);
      // Whether the abort flag was up when this member finished decides
      // "cancelled" vs "own budget exhausted" for an Unknown verdict.
      const bool raceDecided = raceStop.load(std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(mu);
      PortfolioMemberOutcome& outcome = out.members[i];
      outcome.result = v.result;
      outcome.seconds = v.seconds;
      outcome.stats = v.stats;
      outcome.cancelled =
          v.result == smt::SolveResult::Unknown && raceDecided;
      if (options.trace.enabled()) {
        emit_member_event(options.trace, static_cast<std::uint64_t>(i),
                          outcome, v);
      }
      results[i] = std::move(v);
      if (results[i].result != smt::SolveResult::Unknown &&
          firstDefinitive < 0) {
        firstDefinitive = static_cast<int>(i);
        if (!options.deterministic) {
          raceStop.store(true, std::memory_order_relaxed);
        }
      }
    }));
  }

  // Wait for all members, forwarding an external stop token if given.
  for (std::future<void>& f : futures) {
    if (options.budget.stop == nullptr) {
      f.wait();
      continue;
    }
    while (f.wait_for(std::chrono::milliseconds(5)) !=
           std::future_status::ready) {
      if (options.budget.stop->load(std::memory_order_relaxed)) {
        raceStop.store(true, std::memory_order_relaxed);
      }
    }
  }

  if (options.deterministic) {
    // Reproducible winner: lowest index with a definitive answer,
    // regardless of completion order.
    for (std::size_t i = 0; i < n; ++i) {
      if (results[i].result != smt::SolveResult::Unknown) {
        out.winner = static_cast<int>(i);
        break;
      }
    }
  } else {
    out.winner = firstDefinitive;
  }
  if (out.winner >= 0) {
    out.verification = std::move(results[static_cast<std::size_t>(out.winner)]);
  }
  out.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  if (options.trace.enabled()) {
    emit_done_event(options.trace, out, options, n);
  }
  return out;
}

// Cube-and-conquer: split the instance into sign-combination cubes on
// topology-poisoning literals, then fan cubes across the pool.
//
// Warm fork: the split's burn-in solve runs on a prober — a clone of the
// caller's model, with the model's solver options — and every conquer
// worker starts as a copy of that prober, with the burn-in's learnt
// clauses, activities and saved phases.
//
// Scheduling: min(num_threads, cubes, hardware threads) workers, each
// cloning the prober ONCE and pulling cube indices from a shared counter —
// more cubes than workers keeps everyone busy while a clone's learnt
// database stays warm across the cubes it conquers.
//
// Budget: the caller's max_time is one deadline for the whole call, and
// it and the stop token reach the burn-in, every cube and the race
// fallback; max_conflicts bounds each cube.
//
// Workers inherit the burn-in's learnt clauses even though they solve
// different cubes: cube literals enter the solver as *assumptions*, never
// as clauses, so every clause the burn-in learnt is implied by the shared
// database alone.
//
// Verdicts (cube-tree accounting): the cubes partition the search space,
// so SAT from any cube is a genuine model and short-circuits the rest
// (deterministic mode runs every cube and takes the lowest SAT index);
// UNSAT requires *every* cube refuted; anything else — a budget-exhausted
// or cancelled cube — leaves the tree open and the verdict Unknown.
PortfolioResult conquer_portfolio(const core::UfdiAttackModel& model,
                                  const PortfolioOptions& options,
                                  const Deadline& deadline) {
  const auto start = Clock::now();
  PortfolioResult out;
  auto finish = [&](std::size_t members) {
    out.seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (out.winner < 0) out.verification.seconds = out.seconds;
    if (options.trace.enabled()) {
      emit_done_event(options.trace, out, options, members);
    }
  };

  CubeSet cubes;
  smt::Budget burnin = options.budget;
  if (deadline.clip(burnin)) {
    cubes = split_cubes(model, options.cube, burnin);
  }
  if (cubes.refuted) {
    // The burn-in or the lookahead closed the instance on its own.
    out.verification.result = smt::SolveResult::Unsat;
    out.verification.stats = cubes.burnin;
    finish(0);
    return out;
  }
  if (stop_requested(options.budget) || deadline.passed()) {
    finish(0);  // cancelled, or out of time, before any cube ran
    return out;
  }
  if (cubes.cubes.size() < 2) {
    // No usable split: racing is the better use of the threads.
    cubes.prober.reset();
    return race_portfolio(model, options, deadline);
  }

  const std::size_t numCubes = cubes.cubes.size();
  // Conquer workers are CPU-bound from the first instant (no member ever
  // idles waiting for a verdict the way a losing racer does), so running
  // more of them than hardware threads only adds clone cost and context
  // switching. num_threads stays the parallelism *budget*; the host core
  // count caps how much of it is spent.
  const std::size_t hw = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::thread::hardware_concurrency()));
  const std::size_t numWorkers = std::min(
      {options.num_threads > 0 ? options.num_threads : 1, numCubes, hw});
  const core::UfdiAttackModel& fork = *cubes.prober;

  out.cubes_generated = numCubes;
  out.members.resize(numCubes);
  for (std::size_t k = 0; k < numCubes; ++k) {
    out.members[k].label = "cube-" + std::to_string(k);
  }

  std::atomic<bool> raceStop{false};
  std::atomic<std::size_t> nextCube{0};
  std::mutex mu;
  std::vector<core::VerificationResult> results(numCubes);
  std::uint64_t refuted = 0;  // guarded by mu
  int satCube = -1;           // first SAT observed, guarded by mu

  ThreadPool pool(numWorkers);
  std::vector<std::future<void>> futures;
  futures.reserve(numWorkers);
  for (std::size_t w = 0; w < numWorkers; ++w) {
    futures.push_back(pool.submit([&] {
      auto clone = fork.clone();
      for (;;) {
        const std::size_t k =
            nextCube.fetch_add(1, std::memory_order_relaxed);
        if (k >= numCubes) break;
        if (!options.deterministic &&
            raceStop.load(std::memory_order_relaxed)) {
          // The tree is already decided (SAT short-circuit or external
          // stop): mark the unstarted cube cancelled and keep draining so
          // every cube gets an outcome.
          std::lock_guard<std::mutex> lock(mu);
          out.members[k].cancelled = true;
          continue;
        }
        smt::Budget budget = options.budget;
        budget.stop = &raceStop;
        core::VerificationResult v;
        if (deadline.clip(budget)) {
          v = clone->verify_with_assumptions(cubes.cubes[k], budget);
        }
        const bool raceDecided = raceStop.load(std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mu);
        PortfolioMemberOutcome& outcome = out.members[k];
        outcome.result = v.result;
        outcome.seconds = v.seconds;
        outcome.stats = v.stats;
        outcome.cancelled =
            v.result == smt::SolveResult::Unknown && raceDecided;
        if (options.trace.enabled()) {
          emit_member_event(options.trace, static_cast<std::uint64_t>(k),
                            outcome, v);
        }
        if (v.result == smt::SolveResult::Unsat) ++refuted;
        if (v.result == smt::SolveResult::Sat && satCube < 0) {
          satCube = static_cast<int>(k);
          if (!options.deterministic) {
            raceStop.store(true, std::memory_order_relaxed);
          }
        }
        results[k] = std::move(v);
      }
    }));
  }

  for (std::future<void>& f : futures) {
    if (options.budget.stop == nullptr) {
      f.wait();
      continue;
    }
    while (f.wait_for(std::chrono::milliseconds(5)) !=
           std::future_status::ready) {
      if (options.budget.stop->load(std::memory_order_relaxed)) {
        raceStop.store(true, std::memory_order_relaxed);
      }
    }
  }

  out.cubes_refuted = refuted;
  int winner = satCube;
  if (options.deterministic) {
    winner = -1;
    for (std::size_t k = 0; k < numCubes; ++k) {
      if (results[k].result == smt::SolveResult::Sat) {
        winner = static_cast<int>(k);
        break;
      }
    }
  }
  if (winner >= 0) {
    out.winner = winner;
    out.verification = std::move(results[static_cast<std::size_t>(winner)]);
  } else if (refuted == numCubes) {
    // Every branch of the cube tree is closed: joint UNSAT. The winner
    // stays -1 — no single cube owns the proof — and the reported stats
    // are the whole tree's effort, burn-in included.
    out.verification.result = smt::SolveResult::Unsat;
    out.verification.stats = cubes.burnin;
    for (std::size_t k = 0; k < numCubes; ++k) {
      accumulate_stats(out.verification.stats, results[k].stats);
    }
  }  // else: some cube Unknown/cancelled — verdict stays Unknown.
  finish(numCubes);
  return out;
}

}  // namespace

PortfolioResult verify_portfolio(const core::UfdiAttackModel& model,
                                 const PortfolioOptions& options) {
  const Deadline deadline(options.budget);
  return options.mode == PortfolioMode::kCubeAndConquer
             ? conquer_portfolio(model, options, deadline)
             : race_portfolio(model, options, deadline);
}

}  // namespace psse::runtime
