// The public SMT solver facade: DPLL(T) over the CDCL core and the simplex
// LRA theory.
//
// Usage:
//   Solver s;
//   TermRef p = s.mk_bool("p");
//   TVar x = s.mk_real("x");
//   LinExpr e = LinExpr::var(x);
//   s.assert_term(s.terms().mk_implies(p, s.terms().mk_ge(e, 3)));
//   ...
//   if (s.solve() == SolveResult::Sat) { s.bool_value(p); s.real_value(x); }
//
// Cardinality constraints (sum of booleans <= k) go through add_at_most /
// add_at_least, which reach the CDCL core's native counting propagator.
//
// push()/pop() checkpoint the assertion database; solve() also accepts
// assumption literals, which is how the countermeasure-synthesis loop
// evaluates candidate architectures without re-encoding the attack model.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/phase.h"
#include "smt/sat_solver.h"
#include "smt/simplex.h"
#include "smt/term.h"

namespace psse::smt {

/// Aggregate statistics across the boolean and theory parts. The first
/// block (sat, pivots, bound_flips, bigint_promotions) are monotone
/// lifetime counters; the rest are gauges describing the current problem
/// size. since() subtracts the counters and keeps the gauges.
struct SolverStats {
  SatStats sat;
  std::uint64_t pivots = 0;
  std::uint64_t bound_flips = 0;
  /// check() calls that exhausted the heuristic pivot budget and fell back
  /// to Bland's rule (see SimplexOptions::bland_fallback_after).
  std::uint64_t bland_fallbacks = 0;
  /// Inline->limb BigInt promotions during this solver's solve() calls
  /// (genuine 64-bit overflows: departures from the allocation-free fast
  /// path). Work of other solvers on the same thread is not counted.
  std::uint64_t bigint_promotions = 0;
  /// Float-filter accounting (see Simplex): pivots whose assignment updates
  /// ran in doubles only, exact recomputations forced by a verdict-bearing
  /// comparison, certifications where float and exact disagreed, and checks
  /// that exceeded the disagreement budget and finished on the exact path.
  std::uint64_t float_pivots = 0;
  std::uint64_t exact_recomputes = 0;
  std::uint64_t filter_disagreements = 0;
  std::uint64_t filter_fallbacks = 0;
  /// Eta-tableau accounting (see Simplex): pivots recorded as eta-file
  /// entries instead of eager row substitution, refactorisation-trigger
  /// firings, and the eta file's high-water length. eta_file_len_max is a
  /// monotone high-water mark, not a delta — since() keeps the current
  /// value, like a gauge.
  std::uint64_t eta_updates = 0;
  std::uint64_t refactorisations = 0;
  std::uint64_t eta_file_len_max = 0;
  std::size_t num_terms = 0;
  std::size_t num_atoms = 0;
  std::size_t num_bool_vars = 0;
  std::size_t num_real_vars = 0;
  std::size_t footprint_bytes = 0;
  /// Clause-arena accounting (gauges): bytes the arena has reserved vs
  /// bytes occupied by live clauses. The gap is fragmentation the next
  /// compacting GC reclaims (see SatStats::arena_gcs).
  std::size_t arena_capacity_bytes = 0;
  std::size_t arena_live_bytes = 0;

  /// Per-call effort against an earlier stats() snapshot of the same
  /// solver: counters become deltas, gauges keep their current values.
  [[nodiscard]] SolverStats since(const SolverStats& earlier) const {
    SolverStats d = *this;
    d.sat = sat.since(earlier.sat);
    d.pivots = pivots - earlier.pivots;
    d.bound_flips = bound_flips - earlier.bound_flips;
    d.bland_fallbacks = bland_fallbacks - earlier.bland_fallbacks;
    d.bigint_promotions = bigint_promotions - earlier.bigint_promotions;
    d.float_pivots = float_pivots - earlier.float_pivots;
    d.exact_recomputes = exact_recomputes - earlier.exact_recomputes;
    d.filter_disagreements =
        filter_disagreements - earlier.filter_disagreements;
    d.filter_fallbacks = filter_fallbacks - earlier.filter_fallbacks;
    d.eta_updates = eta_updates - earlier.eta_updates;
    d.refactorisations = refactorisations - earlier.refactorisations;
    return d;
  }
};

class Solver final : private TheoryClient {
 public:
  Solver();
  /// A deep copy of the whole solver — terms, clause database, learnt
  /// clauses, activities, saved phases, tableau, counters — which searches
  /// exactly as the source would from here on. The copy is its own theory
  /// client and times into its own PhaseTimes (timing stays on if it was
  /// on). Copying only reads `other`, so many threads may copy one solver
  /// at once while none solves it.
  Solver(const Solver& other);
  Solver& operator=(const Solver&) = delete;

  /// Term builder (owned by the solver).
  [[nodiscard]] TermManager& terms() { return terms_; }
  [[nodiscard]] const TermManager& terms() const { return terms_; }

  /// Reconfigures the CDCL search heuristics (portfolio diversification).
  void set_sat_options(const SatOptions& options) {
    sat_.set_options(options);
  }
  [[nodiscard]] const SatOptions& sat_options() const {
    return sat_.options();
  }

  /// Reconfigures the theory solver's pivot rule / propagation tracking.
  void set_simplex_options(const SimplexOptions& options) {
    simplex_.set_options(options);
  }
  [[nodiscard]] const SimplexOptions& simplex_options() const {
    return simplex_.options();
  }

  /// Fresh boolean variable as a term.
  TermRef mk_bool(std::string name = {}) {
    return terms_.mk_bool(std::move(name));
  }
  /// Fresh real variable.
  TVar mk_real(std::string name = {}) { return terms_.mk_real(std::move(name)); }

  /// Asserts a term (must hold in every model).
  void assert_term(TermRef t);
  /// Asserts sum(b in bools true) <= k. Terms must be boolean-sorted.
  void add_at_most(const std::vector<TermRef>& bools, std::uint32_t k);
  /// Asserts sum(b in bools true) >= k.
  void add_at_least(const std::vector<TermRef>& bools, std::uint32_t k);

  /// Checkpoints the assertion database.
  void push();
  /// Restores the last checkpoint.
  void pop();

  /// Decides satisfiability of the asserted formulas, optionally under
  /// assumptions (terms that must hold for this call only).
  SolveResult solve(const std::vector<TermRef>& assumptions = {},
                    const Budget& budget = {});

  /// Bounded BCP-only lookahead on a boolean term, for cube splitting:
  /// returns the number of literals boolean propagation forces when `t` is
  /// asserted on top of the level-0 state, or -1 when it conflicts (then
  /// ~t is implied at level 0 by the clause database alone). The theory is
  /// never consulted. See SatSolver::probe_literal for the caveats —
  /// probing perturbs saved phases, so probe on a dedicated clone.
  [[nodiscard]] int probe_term(TermRef t);

  /// Branching activity of the SAT literal a boolean term encodes to (see
  /// SatSolver::var_activity): after a bounded burn-in solve, the ranking
  /// over candidate terms identifies where the search effort concentrates.
  [[nodiscard]] double term_activity(TermRef t);

  /// Model access after solve() returned Sat.
  [[nodiscard]] bool bool_value(TermRef t) const;
  [[nodiscard]] Rational real_value(TVar v) const;

  [[nodiscard]] SolverStats stats() const;
  /// stats() without the gauges (they stay 0). The gauges walk every term
  /// node, tableau row and watch list, and since() keeps the later
  /// snapshot's gauges, so this is the cheap before-snapshot of a per-call
  /// report: stats().since(counters()) == stats().since(stats()).
  [[nodiscard]] SolverStats counters() const;

  /// Per-call effort since an earlier stats() or counters() snapshot (see
  /// SolverStats::since). What a per-solve report should print for a
  /// reused or incremental solver.
  [[nodiscard]] SolverStats stats_since(const SolverStats& snapshot) const {
    return stats().since(snapshot);
  }

  /// Enables (or disables) per-phase wall-time accounting across the whole
  /// DPLL(T) stack: encode/propagate/simplex/theory (obs::PhaseTimes).
  /// Off by default; when off, the hot loops pay one pointer test per
  /// phase boundary and take no clock reads.
  void enable_phase_timing(bool on);
  [[nodiscard]] const obs::PhaseTimes& phase_times() const {
    return phase_times_;
  }
  void reset_phase_times() { phase_times_.reset(); }

 private:
  struct AtomInfo {
    TVar simplex_var = kNoTVar;
    bool is_lt = false;   // AtomLt vs AtomLe
    Rational bound;
  };

  struct SavePoint {
    std::size_t encoded_trail;
    std::size_t atom_trail;
  };

  // --- TheoryClient ---
  bool on_assert(Lit lit) override;
  bool check(bool final) override;
  std::vector<Lit> conflict_explanation() override;
  void propagate(std::vector<TheoryPropagation>& out) override;
  void pop_to_assertion_count(std::size_t n) override;
  bool is_theory_var(Var v) const override;
  void on_model() override;
  void set_interrupt(const Interrupt* interrupt) override {
    simplex_.set_interrupt(interrupt);
  }

  /// CNF encoding with structural caching: SAT literal equisatisfiable
  /// with term t.
  Lit encode(TermRef t);
  Lit encode_node(std::int32_t index);
  TVar simplex_var_for(const LinExpr& userExpr);

  TermManager terms_;
  SatSolver sat_;
  Simplex simplex_;

  // Term node index -> SAT literal for the positive node.
  std::unordered_map<std::int32_t, Lit> encoded_;
  std::vector<std::int32_t> encoded_trail_;  // insertion order, for pop()

  // SAT var -> atom mapping.
  std::vector<std::int32_t> sat_to_atom_;  // -1 when not a theory literal
  std::vector<AtomInfo> atoms_;
  std::vector<Var> atom_sat_vars_;  // insertion order, for pop()

  // Reverse mapping: simplex var -> atoms over it, so implied simplex
  // bounds translate back into SAT literals (theory propagation). Entries
  // are appended in atom order; pop() peels them with atoms_.
  std::vector<std::vector<std::int32_t>> var_atoms_;
  std::vector<Simplex::ImpliedBound> implied_;  // scratch for propagate()

  // User real var -> simplex var.
  std::vector<TVar> real_to_simplex_;

  // Simplex trail mark before each theory assertion (for retraction).
  std::vector<std::size_t> assert_marks_;

  std::vector<Rational> model_reals_;  // snapshot by simplex var id
  std::vector<SavePoint> save_points_;

  // Phase-time accounting (see enable_phase_timing). encode_depth_ guards
  // the encode timer against recursive re-entry (encode_node recurses
  // through children; only the outermost frame may account the span).
  obs::PhaseTimes phase_times_;
  bool phase_timing_ = false;
  int encode_depth_ = 0;

  // BigInt promotions summed over this solver's solve() calls (the
  // thread-local counter's delta across each call).
  std::uint64_t bigint_promotions_ = 0;
};

}  // namespace psse::smt
