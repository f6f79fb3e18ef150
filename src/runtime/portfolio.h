// Portfolio verification: race diversified solver configurations on clones
// of one UFDI attack model; the first definitive SAT/UNSAT answer wins and
// cancels the rest.
//
// Soundness: every member runs a sound and complete solver over the *same*
// formula, so all definitive answers agree — racing changes which member
// answers (and which concrete attack vector a SAT answer carries), never
// the verdict. Members differ only in smt::SatOptions knobs: branching
// polarity, restart unit, VSIDS decay, random-branching rate and seed, and
// theory-check laziness. The CDCL search itself (EVSIDS, Luby restarts,
// full backjumps) is the same for all of them: on every data/*.scn some
// phase or seed variant beat every structural alternative (LRB branching,
// chronological backtracking, geometric and LBD-EMA restarts).
//
// Determinism mode trades latency for reproducibility: members are not
// cancelled on a sibling's success, and the winner is the lowest-indexed
// member with a definitive answer rather than the first to finish. With no
// wall-clock member budget this makes the reported result — winner index,
// verdict, and attack vector — independent of thread count and scheduling;
// racing mode only guarantees the verdict.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/attack_model.h"
#include "obs/trace.h"
#include "runtime/cube.h"
#include "smt/budget.h"
#include "smt/sat_solver.h"

namespace psse::runtime {

/// One racing member: a labelled CDCL configuration.
struct PortfolioMember {
  std::string label;
  smt::SatOptions options;
};

/// The standard diversification ladder: baseline, fast-decay, lazy,
/// pos-lazy, random-5pct, pos-random-5pct, then seeded random-branching
/// overlays of baseline. Member 0 is always the solver's default
/// configuration, so a 1-member portfolio reproduces the serial verify()
/// search exactly.
[[nodiscard]] std::vector<PortfolioMember> default_portfolio(std::size_t n);

/// How verify_portfolio spends its threads.
enum class PortfolioMode {
  /// Race full copies of the instance; first definitive answer wins.
  kRace,
  /// Cube-and-conquer: split the instance into sign-combination cubes on
  /// topology-poisoning literals (split_cubes), then fan the cubes across
  /// the pool, each worker a copy of the split's warm prober. UNSAT
  /// requires every cube refuted; SAT short-circuits. While the split runs
  /// its burn-in, ladder members 1..n-1 of default_portfolio(n) race the
  /// whole instance on the other threads (n = min(num_threads, hardware
  /// threads); not in deterministic mode): the first definitive verdict
  /// ends the phase and answers the call, and the split returning cancels
  /// the racers. A burn-in that finishes on its own answers too, with its
  /// witness for a Sat. Falls back to racing when no usable split exists.
  kCubeAndConquer,
};

struct PortfolioOptions {
  /// Racing members (the first num_threads of default_portfolio), or the
  /// cube-and-conquer worker budget.
  std::size_t num_threads = 4;
  /// Reproducible winner selection (see file comment).
  bool deterministic = false;
  /// Limits for the call. max_time is one deadline for the whole call,
  /// fixed on entry: every solve it starts (racing member, burn-in, cube,
  /// race fallback) gets only the time that is left. max_conflicts bounds
  /// each member's or each cube's solve (not the burn-in racers of
  /// kCubeAndConquer: the split ends them). A caller-supplied stop token
  /// is honoured (it cancels the whole portfolio); the internal
  /// first-winner cancellation is layered on top of it.
  smt::Budget budget;
  /// Structured tracing: one "portfolio_member" event per member as it
  /// completes (including cancelled losers) and a closing "portfolio_done"
  /// event with winner attribution. The sink must outlive the call.
  obs::Config trace;
  /// Racing (the default) or cube-and-conquer (see PortfolioMode).
  PortfolioMode mode = PortfolioMode::kRace;
  /// Splitting knobs for kCubeAndConquer; ignored under kRace.
  CubeOptions cube;
};

/// Every member's outcome — winners *and* losers. A cancelled loser still
/// reports how far it got (its per-solve stats), which is what explains
/// where portfolio time goes.
struct PortfolioMemberOutcome {
  std::string label;
  smt::SolveResult result = smt::SolveResult::Unknown;
  double seconds = 0.0;
  /// This member's solve effort on its own clone (per-call delta).
  smt::SolverStats stats;
  /// True when the member returned Unknown because the race was already
  /// decided (first-winner cancellation or an external stop token), as
  /// opposed to exhausting its own budget.
  bool cancelled = false;
};

struct PortfolioResult {
  /// The winning member's full verification result (attack vector, stats).
  core::VerificationResult verification;
  /// Index into members of the member that decided; -1 if none did. Under
  /// kCubeAndConquer a joint UNSAT of the cube tree and a verdict of the
  /// burn-in itself also leave it at -1: no member owns them.
  int winner = -1;
  /// Wall-clock of the whole portfolio call.
  double seconds = 0.0;
  /// Under kRace: one entry per racing member. Under kCubeAndConquer: the
  /// burn-in racers first, under their ladder labels (cancelled when the
  /// phase ended before they decided), then one entry per *cube*
  /// (labelled "cube-K"), including cubes cancelled by a sibling's SAT
  /// short-circuit. A cube's stats are its own solve; the burn-in's effort
  /// is counted once, in the joint UNSAT stats, and a racer's not at all.
  /// When no usable split exists, the race fallback's members replace
  /// these.
  std::vector<PortfolioMemberOutcome> members;
  /// Cube-and-conquer accounting (zero under kRace, and when the burn-in
  /// phase decided). An UNSAT verdict implies cubes_refuted ==
  /// cubes_generated — the cube tree is only closed when every branch is;
  /// the completeness test enforces this.
  std::uint64_t cubes_generated = 0;
  std::uint64_t cubes_refuted = 0;

  [[nodiscard]] smt::SolveResult result() const {
    return verification.result;
  }
  [[nodiscard]] bool feasible() const { return verification.feasible(); }
};

/// Races the portfolio (or conquers cubes) on clones of `model`. The model
/// itself is only read (to clone); its grid must outlive the call. Clones
/// are copies, so they start from `model`'s current state: pass a model
/// that has not solved yet for a cold search. Under kRace thread count
/// equals member count — each member runs on its own clone on its own pool
/// thread.
[[nodiscard]] PortfolioResult verify_portfolio(
    const core::UfdiAttackModel& model, const PortfolioOptions& options = {});

}  // namespace psse::runtime
