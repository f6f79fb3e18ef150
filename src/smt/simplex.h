// Linear real arithmetic theory solver: the "general simplex" of
// Dutertre & de Moura (CAV 2006), over exact delta-rationals — run
// float-first with exact certification (DESIGN.md §6g).
//
// Variables carry optional lower/upper bounds, each tagged with the SAT
// literal that asserted it; linear constraints are rows of a tableau whose
// basic variable is a slack. check() restores bound feasibility by pivoting
// and, on infeasibility, produces a conflict clause over the tagging
// literals. Pivot selection is heuristic by default (largest violation /
// largest coefficient magnitude) with a per-check fallback to strict
// Bland's rule, so termination stays guaranteed (see SimplexOptions).
// Violated basic variables are tracked incrementally in a candidate
// worklist, so a check() costs O(violated + pivots) rather than a scan of
// every row per pivot.
//
// Float filter: every bound, row coefficient, and assignment carries a
// double shadow (DoubleApprox: value + rigorous error bound). Basic-variable
// assignments are updated only in doubles during pivoting; the exact
// delta-rational assignment is recomputed from the (always exact) tableau
// row on demand — when a comparison lands inside the error budget, or
// before a conflict is emitted. Non-basic assignments and the tableau rows
// themselves stay exact at all times, so every certification is one sparse
// exact dot product. Verdicts are decided either by an exact comparison or
// by a float comparison whose error interval clears the other side, so they
// are identical to the exact-only configuration by construction; a
// per-check budget of float/exact disagreements drops the check back to the
// fully exact path (which itself still falls back to Bland's rule).
//
// Eta-factorised rows (SimplexOptions::eta_tableau, DESIGN.md §6i): a
// pivot appends the solved pivot row to an eta file instead of eagerly
// rewriting every dependent exact row; rows are brought up to date lazily
// where a verdict reads them, and a Markowitz-ordered refactorisation from
// the immutable creation identities replaces long backlogs wholesale. The
// float mirrors are composed (not rebuilt) during pivots in both modes, so
// every float-steered decision — and therefore every verdict, conflict and
// implied bound — is bit-identical with the factorisation on or off.
//
// Bound assertions are trailed; pop_to() retracts to an earlier trail mark
// in O(retracted). The tableau itself is never rolled back — any pivoted
// tableau is an equivalent presentation of the same linear system — and
// the eta file survives pops for the same reason.
//
// After a feasible check(), propagate_implied() derives bounds that the
// current bound set forces on row owners (and republishes freshly asserted
// bounds), each with the premise literals that imply it — the raw material
// for DPLL(T) theory propagation (see DESIGN.md §6d). Derivations are
// float-screened: a row whose implied bound provably cannot beat the
// owner's asserted bound is skipped without exact arithmetic, and a row
// side that failed on an unbounded column remembers that column, so it
// fails again in O(1) until the column gets the bound it lacks.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/phase.h"
#include "smt/budget.h"
#include "smt/linear_expr.h"
#include "smt/literal.h"
#include "smt/rational.h"

namespace psse::smt {

/// Pivot-selection and propagation configuration.
struct SimplexOptions {
  /// Heuristic pivot selection: leaving variable with the largest bound
  /// violation, entering variable with the largest coefficient magnitude
  /// among the suitable columns — both scored in floating point, because
  /// pivot choice never affects soundness and exact delta-rational
  /// comparisons would dominate the check on hairy-denominator instances.
  /// false = strict Bland's rule from the first pivot (the reference
  /// configuration the fuzz tests compare against).
  bool heuristic_pivoting = true;
  /// Pivot budget per check() for the heuristic rule; once spent, the
  /// check falls back to strict Bland's rule (smallest variable index),
  /// which cannot cycle — the heuristic alone has no termination
  /// guarantee. Counted by num_bland_fallbacks().
  std::uint64_t bland_fallback_after = 512;
  /// Record freshly asserted bounds and bound-relevant row updates so
  /// propagate_implied() can derive implied bounds. Off = no tracking
  /// cost for standalone simplex use.
  bool derive_bounds = true;
  /// Float-first mode: basic-variable assignments are maintained in
  /// doubles during pivoting and recomputed exactly only where a verdict
  /// depends on them; implied-bound derivations are float-screened.
  /// false = the fully exact path of PR 4 (the reference configuration the
  /// float-filter fuzz tests and ci.sh cross-check compare against).
  /// Toggling it between checks is safe: turning it off restores every
  /// shadowed assignment exactly first.
  bool float_filter = true;
  /// Per-check budget of float/exact disagreements (a certification whose
  /// exact outcome contradicts the float point estimate). Exceeding it
  /// abandons the filter for the remainder of the check: every shadowed
  /// assignment is restored exactly and the check continues on the exact
  /// path. Counted by num_filter_fallbacks().
  std::uint32_t filter_disagreement_budget = 16;
  /// Eta-factorised tableau (DESIGN.md §6i): a pivot appends the solved
  /// pivot row to an eta file instead of eagerly substituting the entering
  /// variable into every dependent row; exact rows are brought up to date
  /// lazily (ensure_fresh) only where a verdict or an emitted bound reads
  /// them, and a Markowitz-ordered from-scratch refactorisation replaces
  /// the whole backlog when the file grows long. false = the PR 7 eager
  /// substitution path, kept alive as the differential oracle — verdicts,
  /// conflicts and implied bounds are bit-identical on/off by construction
  /// (the float mirrors are composed identically in both modes).
  bool eta_tableau = true;
  /// Refactorisation triggers, evaluated after every pivot from state that
  /// is identical whether eta_tableau is on or off (pivot count since the
  /// last refactorisation, mirror fill, accumulated mirror error), so both
  /// modes resynchronise their float state at the same points.
  std::uint32_t eta_refactor_len = 64;
  /// Refactorise when the mirror nonzero count exceeds this multiple of the
  /// tight (post-refactorisation) count: composed mirrors keep structurally
  /// dead ~0 entries, and fill degrades column index and screen quality.
  double eta_refactor_fill = 4.0;
  /// Refactorise when any composed mirror entry's rigorous error bound
  /// exceeds this: wide shadows stop deciding comparisons and every verdict
  /// falls back to exact certification.
  double eta_error_budget = 1e-6;
};

class Simplex {
 public:
  /// A bound forced by the current bound assertions: `var <= bound` (or
  /// `>=` when !is_upper) holds in every solution where the `premises`
  /// literals hold. Produced by propagate_implied().
  struct ImpliedBound {
    TVar var = kNoTVar;
    bool is_upper = false;
    DeltaRational bound;
    std::vector<Lit> premises;
  };

  Simplex() = default;
  /// A deep copy of the tableau, bounds, trail and counters. The interrupt
  /// and phase-timer pointers are copied as they are: the owner rebinds
  /// them (see Solver's copy constructor).
  Simplex(const Simplex&) = default;
  Simplex& operator=(const Simplex&) = delete;

  /// Creates a theory variable (initially unbounded, value 0).
  TVar new_var(std::string name = {});
  [[nodiscard]] int num_vars() const { return static_cast<int>(vars_.size()); }

  /// Creates (or reuses) a slack variable constrained to equal `expr`,
  /// which must be non-constant with zero constant part.
  TVar slack_for(const LinExpr& expr);

  /// Asserts v <= bound (or v >= bound), tagged with the asserting literal.
  /// Returns false on an immediate bound conflict (then conflict_clause()
  /// is the explanation).
  bool assert_upper(TVar v, const DeltaRational& bound, Lit reason);
  bool assert_lower(TVar v, const DeltaRational& bound, Lit reason);

  /// Number of trailed bound assertions so far (monotone within a level).
  [[nodiscard]] std::size_t trail_size() const { return trail_.size(); }
  /// Retracts bound assertions down to an earlier trail_size().
  void pop_to(std::size_t mark);

  /// Restores feasibility. Returns false on theory conflict. When the
  /// attached interrupt triggers mid-pivot, returns true *without* having
  /// restored feasibility (and without clearing the internal dirty flag);
  /// the caller must treat the result as unusable and abort the solve —
  /// the SAT core does so by re-polling the same interrupt before acting.
  bool check();

  /// Attaches (or detaches, with nullptr) the abort state polled in the
  /// pivot loop. The pointee must outlive its attachment; the DPLL(T)
  /// facade wires the SAT core's per-solve Interrupt here so wall-clock
  /// budgets and stop tokens cut long pivot sequences short.
  void set_interrupt(const Interrupt* interrupt) { interrupt_ = interrupt; }

  /// After a failed assert/check: a clause (negated bound literals), all of
  /// which are currently false in the SAT core.
  [[nodiscard]] const std::vector<Lit>& conflict_clause() const {
    return conflict_;
  }

  /// After a successful check(): concrete rational value of a variable,
  /// with delta instantiated small enough to respect every strict bound.
  /// Asserts that the last check() was not cut short by an interrupt — an
  /// interrupted tableau has no feasible assignment to read.
  [[nodiscard]] Rational model_value(TVar v);

  /// Reconfigures pivot selection / propagation. Takes effect at the next
  /// check(); may be called at any point between checks. Turning the float
  /// filter off restores every float-shadowed assignment exactly, so the
  /// instance continues as a purely exact solver.
  void set_options(const SimplexOptions& options);
  [[nodiscard]] const SimplexOptions& options() const { return options_; }

  /// Marks a variable as worth deriving implied bounds for (the DPLL(T)
  /// facade flags variables that carry atoms); rows owned by uninteresting
  /// variables are skipped by propagate_implied().
  void set_interesting(TVar v, bool on);

  /// Appends the bounds implied by the bound assertions made since the
  /// previous call: freshly asserted bounds themselves (premise = their own
  /// tag literal) and bounds derived from rows all of whose column
  /// variables are bounded on the relevant side (premises = those bounds'
  /// tags). Only sound on a feasibility-checked state — a no-op while
  /// feasibility is unknown (pending or interrupted check) or when
  /// SimplexOptions::derive_bounds is off. Emitted bounds are always exact
  /// delta-rationals; the float screen only skips derivations that provably
  /// cannot tighten anything.
  void propagate_implied(std::vector<ImpliedBound>& out);

  /// Diagnostics / Table IV accounting. Lifetime counters: pivots performed
  /// by check(), bound flips (a bound assertion moving a non-basic
  /// variable onto its new bound, the cheap feasibility repair that avoids
  /// a pivot), and checks that exhausted the heuristic pivot budget and
  /// fell back to Bland's rule.
  [[nodiscard]] std::uint64_t num_pivots() const { return pivots_; }
  [[nodiscard]] std::uint64_t num_bound_flips() const { return bound_flips_; }
  [[nodiscard]] std::uint64_t num_bland_fallbacks() const {
    return bland_fallbacks_;
  }
  /// Float-filter accounting. float_pivots: pivots whose assignment
  /// updates ran in doubles only (<= num_pivots; the remainder ran on the
  /// exact path). exact_recomputes: assignments or implied-bound rows
  /// recomputed exactly because a verdict depended on them (certification
  /// points). filter_disagreements: certifications whose exact outcome
  /// contradicted the float point estimate. filter_fallbacks: checks that
  /// exceeded the per-check disagreement budget and finished on the exact
  /// path.
  [[nodiscard]] std::uint64_t num_float_pivots() const { return float_pivots_; }
  [[nodiscard]] std::uint64_t num_exact_recomputes() const {
    return exact_recomputes_;
  }
  [[nodiscard]] std::uint64_t num_filter_disagreements() const {
    return filter_disagreements_;
  }
  [[nodiscard]] std::uint64_t num_filter_fallbacks() const {
    return filter_fallbacks_;
  }
  /// Eta-tableau accounting. eta_updates: pivots recorded as eta-file
  /// entries instead of eager substitution (0 with eta_tableau off).
  /// refactorisations: trigger firings (both modes — the eager mode
  /// re-tightens its float mirrors at the same points). eta_file_len_max:
  /// high-water mark of the eta file between refactorisations.
  [[nodiscard]] std::uint64_t num_eta_updates() const { return eta_updates_; }
  [[nodiscard]] std::uint64_t num_refactorisations() const {
    return refactorisations_;
  }
  [[nodiscard]] std::uint64_t eta_file_len_max() const {
    return eta_file_len_max_;
  }
  [[nodiscard]] std::size_t footprint_bytes() const;

  /// Attaches (or detaches, with nullptr) wall-time accounting for the
  /// pivot loop (PhaseTimes::simplex_us). Off = one pointer test per
  /// check(); the pointee must outlive its attachment.
  void set_phase_times(obs::PhaseTimes* phases) { phases_ = phases; }
  [[nodiscard]] const std::string& name_of(TVar v) const {
    return vars_[static_cast<std::size_t>(v)].name;
  }

 private:
  struct Bound {
    DeltaRational value;
    /// Shadow of value.real() (the delta part is symbolic: lexicographic
    /// order means a float comparison can only decide when the real parts
    /// are strictly apart, and then the delta parts are irrelevant).
    DoubleApprox approx;
    /// Unique id of this assignment (global monotone counter; pop restores
    /// the old id with the old value, so equal revisions imply equal
    /// values). Fast path for the derivation caches' change detection.
    std::uint64_t revision = 0;
    Lit reason;
    bool active = false;
  };

  struct VarState {
    std::string name;
    Bound lower;
    Bound upper;
    DeltaRational beta;  // exact assignment; lags the shadow when stale
    DoubleApprox beta_f;  // shadow of beta.real()
    std::int32_t row = -1;  // row index if basic, -1 if non-basic
    /// True while beta (exact) lags behind beta_f: the variable is basic
    /// and its assignment has only been updated in doubles since the last
    /// exact recompute. Non-basic variables are never stale — they are
    /// only ever assigned exactly representable values (their bounds).
    bool stale = false;
  };

  struct TrailEntry {
    TVar var;
    bool is_upper;
    Bound previous;
  };

  // Memoized implied-bound derivation for one side of a row: the exact
  // implied value last computed plus, aligned term-for-term with the row's
  // expr, the input bound value each term contributed (invariant:
  // implied == sum(vals[i] * coeff[i])). A re-derivation patches only the
  // terms whose input bound *value* differs — one add_mul on the (usually
  // tiny) difference — and replays with no exact arithmetic when nothing
  // differs, the dominant case: rows are re-dirtied on any column bound
  // event, and both backtracking and re-assertion overwhelmingly restore
  // the exact value already cached (which is why change detection is by
  // value, not by assertion identity). The revision stamps make the
  // comparison cheap: equal stamps short-circuit as equal values, and a
  // stamp mismatch with an equal value (re-assertion) just refreshes the
  // stamp. Every exact tie (owner bound == implied bound, undecidable by
  // any float margin) is disposed of here after its first exact pass.
  // Invalidated whenever the terms change (pivot).
  struct DeriveCache {
    DeltaRational implied;
    std::vector<DeltaRational> vals;
    std::vector<std::uint64_t> revs;
    bool valid = false;
  };

  // Row: owner = expr (a zero-constant LinExpr; terms sorted by var id).
  //
  // `mirror` is the sparse float shadow, its own var-sorted vector rather
  // than an array aligned with expr: during pivots it is *composed* in
  // floating point (dependent mirror += b_f * pivot mirror) instead of
  // being rebuilt from the exact terms, so its pattern is the structural
  // union of every substitution since the last refactorisation — a superset
  // of the exact pattern (exact cancellations leave ~0 entries carrying
  // their rigorous error). Composition is identical whether eta_tableau is
  // on or off, which is what makes the lazy exact rows invisible to every
  // float-steered decision. cols_ tracks the mirror pattern.
  //
  // The row is current iff `pending` is empty (eager mode keeps every row
  // current). `pending` lists the eta-file indices whose substitution
  // still has to be folded into expr — recorded at pivot time off the
  // dependents walk (the rows whose mirror then carried the entering
  // variable, a superset of the rows whose exact terms did), so a replay
  // touches only the etas that can actually hit this row instead of
  // scanning the whole file. `orig` is the immutable creation-time
  // identity (orig_owner = orig), the ground truth the Markowitz
  // refactorisation re-derives the whole dictionary from.
  //
  // `blocker[s]` caches why side s (0 = lower, 1 = upper) last failed the
  // mirror prepass of derive_row_bound: a column whose mirror entry is
  // sign-certain and whose consumed bound (the upper one iff bit s of
  // `blocker_upper` is set) was inactive. While that bound stays inactive
  // the side cannot derive, and the prepass would stop at this column or an
  // earlier one without side effects, so derive_row_bound returns at once
  // (see blocked()). Inactivity survives pop_to, and the only event that
  // activates the bound — set_bound — walks this row at that moment. A
  // mirror change (refresh_mirror, float_substitute) clears both blockers.
  struct Row {
    TVar owner;
    LinExpr expr;
    std::vector<std::pair<TVar, DoubleApprox>> mirror;
    std::vector<std::uint32_t> pending;
    DeriveCache derive[2];  // [0] = lower, [1] = upper
    TVar blocker[2] = {kNoTVar, kNoTVar};
    TVar orig_owner = kNoTVar;
    std::uint8_t blocker_upper = 0;
    LinExpr orig;
  };

  // One eta-file entry: at pivot time the solved pivot row (entered =
  // def, over the variables non-basic at that moment) is snapshotted.
  // Replaying a row's pending entries in order reproduces, bit for bit,
  // the eager substitutions the eager path would have done.
  struct Eta {
    TVar entered;
    LinExpr def;
  };

  bool set_bound(TVar v, const DeltaRational& bound, Lit reason,
                 bool is_upper);
  // Enqueues a basic variable into the violated-candidate worklist unless
  // it is provably within bounds (exactly for fresh variables, by float
  // margin for stale ones) or already queued.
  void touch(TVar v);
  // Marks one side of a row for implied-bound (re)derivation.
  void mark_row_dirty(std::int32_t rowIdx, bool upper);
  // Queues a row for the next drain without marking a side: a column event
  // on a row blocked on both sides keeps the row's place in the drain order
  // (the order the CDCL core sees implied bounds in steers its search).
  void hold_row_place(std::int32_t rowIdx);
  // True while side `upper` of the row has a cached blocker whose consumed
  // bound is still inactive (see Row::blocker).
  [[nodiscard]] bool blocked(const Row& row, bool upper) const;
  // Derives the upper (or lower) bound a row forces on its owner, if every
  // column variable is bounded on the relevant side. Float-screened: rows
  // that provably cannot tighten the owner's bound are skipped.
  void derive_row_bound(std::int32_t rowIdx, bool upper,
                        std::vector<ImpliedBound>& out);
  // Moves a non-basic variable and propagates into dependent basics (in
  // doubles when the filter is live, exactly otherwise).
  void update(TVar v, const DeltaRational& newVal,
              const DoubleApprox& newApprox);
  // Pivots basic leaving var (by row) with entering non-basic var, setting
  // the leaving var's value to `target` (whose shadow is `targetApprox`).
  void pivot_and_update(std::int32_t rowIdx, TVar entering,
                        const DeltaRational& target,
                        const DoubleApprox& targetApprox);
  // Solves row `rowIdx` for `entering` and substitutes it into every
  // dependent row listed in dependents_ (filled by pivot_and_update, its
  // only caller).
  void pivot(std::int32_t rowIdx, TVar entering);
  // Rebuilds a row's double mirror tight from its exact terms (creation,
  // pivot row, refactorisation — the resynchronisation points shared by
  // both eta modes).
  void refresh_mirror(Row& row);
  // Folds the pending eta-file entries into a row's exact terms (FTRAN
  // analogue). No-op when the row is current — in particular always in
  // eager mode.
  void ensure_fresh(std::int32_t rowIdx);
  void make_all_fresh();
  // Composes the pivot row into a dependent row's float mirror (identical
  // in both eta modes) and patches the column index to the new pattern.
  // `b` is the row's mirror coefficient of `entering`.
  void float_substitute(std::int32_t r, TVar entering, const DoubleApprox& b,
                        const Row& pivotRow);
  // Refactorisation trigger (see SimplexOptions::eta_refactor_*), decided
  // from mode-identical state after every pivot.
  [[nodiscard]] bool should_refactor() const;
  // Discards the eta backlog: in eta mode re-derives every row from the
  // immutable creation identities by Markowitz-ordered elimination (BTRAN
  // analogue; cost independent of the backlog length), then — in both
  // modes — rebuilds tight mirrors and the column index and truncates the
  // eta file.
  void refactorize();
  void rebuild_rows_from_origs();
  [[nodiscard]] const Rational* row_coeff(const Row& row, TVar v) const;
  [[nodiscard]] const DoubleApprox* mirror_coeff(const Row& row,
                                                 TVar v) const;
  // Index of v's term in row.expr, or -1.
  [[nodiscard]] std::ptrdiff_t row_term_index(const Row& row, TVar v) const;
  void build_conflict_from_row(const Row& row, bool lowerViolated);
  [[nodiscard]] bool in_bounds(TVar v) const;
  // Certification point: recomputes a stale basic variable's exact
  // assignment from its row (one sparse exact dot product over the
  // always-exact non-basic assignments).
  void restore_beta(TVar v);
  // Restores every stale assignment; the instance is fully exact after.
  void restore_all_betas();
  // Whether assignment updates may run in doubles right now.
  [[nodiscard]] bool float_mode() const {
    return options_.float_filter && !check_exact_fallback_;
  }
  void compute_delta();

  std::vector<VarState> vars_;
  std::vector<Row> rows_;
  // var -> rows whose terms mention it (column index), kept as sorted
  // vectors: columns are small, so binary-search insert/erase beats the
  // hash set on both the pivot loop and memory.
  std::vector<std::vector<std::int32_t>> cols_;
  std::unordered_map<LinExpr, TVar> slack_cache_;
  std::vector<TrailEntry> trail_;
  std::vector<Lit> conflict_;
  std::optional<Rational> concrete_delta_;
  std::uint64_t pivots_ = 0;
  std::uint64_t bound_flips_ = 0;
  std::uint64_t bland_fallbacks_ = 0;
  std::uint64_t float_pivots_ = 0;
  std::uint64_t exact_recomputes_ = 0;
  std::uint64_t filter_disagreements_ = 0;
  std::uint64_t filter_fallbacks_ = 0;
  std::uint64_t eta_updates_ = 0;
  std::uint64_t refactorisations_ = 0;
  std::uint64_t eta_file_len_max_ = 0;
  const Interrupt* interrupt_ = nullptr;
  obs::PhaseTimes* phases_ = nullptr;
  SimplexOptions options_;
  // Violated-candidate worklist: a superset of the out-of-bounds basic
  // variables (entries may have been repaired or pivoted non-basic since
  // enqueue; check() filters). violated_flag_ dedupes, indexed by var.
  std::vector<TVar> violated_;
  std::vector<bool> violated_flag_;
  // Implied-bound tracking (derive_bounds): bounds asserted and rows
  // touched since the last propagate_implied() drain. row_dirty_ dedupes.
  std::vector<std::pair<TVar, bool>> fresh_bounds_;  // (var, is_upper)
  std::vector<std::int32_t> dirty_rows_;
  // Per-row bitmask of sides needing re-derivation: bit 0 = lower, bit 1 =
  // upper (a column bound event only perturbs the side that consumes it);
  // bit 2 = queued with no side marked (hold_row_place).
  std::vector<std::uint8_t> row_dirty_;
  std::vector<bool> interesting_;  // vars whose implied bounds have takers
  // Scratch for pivot's row elimination (recycles merge capacity).
  std::vector<std::pair<TVar, Rational>> merge_scratch_;
  // Scratch holding a row's pre-substitution var set so pivot can patch the
  // column index by set difference instead of erase-all/insert-all.
  std::vector<TVar> col_vars_scratch_;
  // Scratch for float_substitute's mirror merge (recycles capacity).
  std::vector<std::pair<TVar, DoubleApprox>> mirror_scratch_;
  // The current pivot's dependent rows and their mirror coefficients of the
  // entering variable, looked up once in pivot_and_update and consumed by
  // pivot (recycles capacity).
  std::vector<std::pair<std::int32_t, DoubleApprox>> dependents_;
  // Eta file: pivot updates some rows may still have pending. Survives
  // pop_to (the tableau never rolls back; bounds live on the trail) and is
  // truncated only by refactorize().
  std::vector<Eta> etas_;
  // Shared refactorisation-trigger state, identical across eta modes:
  // pivots since the last refactorisation (== etas_.size() in eta mode),
  // total mirror nonzeros vs the tight count at the last resync, and the
  // high-water error bound of composed mirror entries.
  std::uint64_t pivots_since_refactor_ = 0;
  std::size_t mirror_nnz_ = 0;
  std::size_t base_nnz_ = 0;
  double max_mirror_err_ = 0.0;
  // Total deferred substitutions across all rows' pending lists (eta mode
  // only). refactorize() compares it against the tableau size to choose
  // between draining the backlog (cheap when short) and the from-scratch
  // Markowitz rebuild (cost independent of backlog length).
  std::size_t pending_total_ = 0;
  // Number of stale assignments (restore_all_betas short-circuit).
  std::size_t stale_count_ = 0;
  // Bound-assignment revision counter (see Bound::revision).
  std::uint64_t bound_revision_ = 0;
  // Set when a check exceeds the disagreement budget: the rest of that
  // check (and any assert-time updates until the next check) runs exactly.
  bool check_exact_fallback_ = false;
  // False only when every variable is known to satisfy its bounds; lets
  // check() short-circuit at propagation fixpoints where no bound moved.
  bool maybe_infeasible_ = false;
  // True while the last check() was cut short by an interrupt: betas are
  // mid-repair and must not be consumed as a model.
  bool interrupted_dirty_ = false;
};

}  // namespace psse::smt
