// Portfolio verification: race diversified solver configurations on clones
// of one UFDI attack model; the first definitive SAT/UNSAT answer wins and
// cancels the rest.
//
// Soundness: every member runs a sound and complete solver over the *same*
// formula, so all definitive answers agree — racing changes which member
// answers (and which concrete attack vector a SAT answer carries), never
// the verdict. Diversification varies branching polarity, restart
// schedule, VSIDS decay, random-branching rate/seed, and theory-propagation
// aggressiveness (see smt::SatOptions).
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

/// The standard diversification ladder. Member 0 is always the solver's
/// default configuration, so a 1-member portfolio reproduces the serial
/// verify() search exactly; the ladder interleaves the structural
/// engine_presets() with the historical seed/phase variants, and members
/// beyond it cycle through random-branching overlays of the presets with
/// distinct seeds.
[[nodiscard]] std::vector<PortfolioMember> default_portfolio(std::size_t n);

/// The named structural engine presets: configurations that differ in
/// *search shape* (branching heuristic, backtracking style, restart
/// schedule — smt::EngineConfig), not just in seed or polarity. Preset 0
/// is always "baseline", the default engine. These seed the default
/// portfolio mix, and tools expose them by name via --engine.
[[nodiscard]] std::vector<PortfolioMember> engine_presets();

/// Looks up an engine preset by label; returns false (and leaves `out`
/// untouched) when no preset has that name.
[[nodiscard]] bool engine_preset(const std::string& name,
                                 PortfolioMember& out);

/// How verify_portfolio spends its threads.
enum class PortfolioMode {
  /// Race full copies of the instance; first definitive answer wins.
  kRace,
  /// Cube-and-conquer: split the instance into sign-combination cubes on
  /// topology-poisoning literals (split_cubes), then fan the cubes across
  /// the pool, each worker a copy of the split's warm prober. UNSAT
  /// requires every cube refuted; SAT short-circuits. Falls back to racing
  /// when no usable split exists.
  kCubeAndConquer,
};

struct PortfolioOptions {
  /// Number of racing members (ignored when `members` is non-empty).
  std::size_t num_threads = 4;
  /// Reproducible winner selection (see file comment).
  bool deterministic = false;
  /// Limits for the call. max_time is one deadline for the whole call,
  /// fixed on entry: every solve it starts (racing member, burn-in, cube,
  /// race fallback) gets only the time that is left. max_conflicts bounds
  /// each member's or each cube's solve. A caller-supplied stop token is
  /// honoured (it cancels the whole portfolio); the internal first-winner
  /// cancellation is layered on top of it.
  smt::Budget budget;
  /// Explicit member list; empty selects default_portfolio(num_threads).
  /// Under kCubeAndConquer only members[0] is used: it configures the
  /// prober before its burn-in, and every worker inherits that engine.
  std::vector<PortfolioMember> members;
  /// Share learnt clauses between members through a ClauseChannel: each
  /// member exports its short/low-LBD lemmas and imports the siblings' at
  /// restart boundaries. Sound because members solve clones of one model
  /// with identical numbering (see smt/clause_exchange.h); off by default
  /// so each member's search is bit-identical to its serial counterpart.
  /// Overrides any `exchange` already set in a member's options.
  bool share_clauses = false;
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
  /// Index into members of the winner; -1 if no member was definitive.
  int winner = -1;
  /// Wall-clock of the whole portfolio call.
  double seconds = 0.0;
  /// Under kRace: one entry per racing member. Under kCubeAndConquer: one
  /// entry per *cube* (labelled "cube-K/engine"), including cubes
  /// cancelled by a sibling's SAT short-circuit. A cube's stats are its own
  /// solve; the burn-in's effort is counted once, in the joint UNSAT stats.
  std::vector<PortfolioMemberOutcome> members;
  /// Cube-and-conquer accounting (zero under kRace). An UNSAT verdict
  /// implies cubes_refuted == cubes_generated — the cube tree is only
  /// closed when every branch is; the completeness test enforces this.
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
