// CDCL SAT solver with native cardinality constraints and a DPLL(T) theory
// hook.
//
// Features: two-watched-literal propagation over an arena-packed clause
// database, first-UIP conflict analysis with clause minimisation,
// exponential VSIDS activities, phase saving, Luby restarts, LBD-based
// learned-clause reduction with compacting garbage collection, solving
// under assumptions, push/pop of the constraint database with learnt-clause
// retention, and counter-based AtMost-K constraints with lazily
// reconstructed reasons (no exponential CNF encodings).
//
// The search policy itself is fixed: EVSIDS branching, Luby restarts and
// full non-chronological backjumps. SatOptions tunes it (initial phase,
// decay, restart unit, random branching and its seed, theory-check
// period), and the racing portfolio draws its members from those knobs
// alone (DESIGN.md §6j says why there are no structural alternatives).
//
// Clause storage (MiniSat/CaDiCaL-style arena): all clauses live in one
// contiguous uint32 buffer. A clause is identified by a 32-bit word offset
// (ClauseRef) and laid out as three header words — flags+size, LBD+push-
// depth, activity — followed by its literals inline, so propagation walks
// a flat array instead of chasing per-clause heap nodes. Watchers carry a
// blocker literal, so most watch-list visits never touch the clause at
// all. reduce_db() marks victims and, once a quarter of the arena is dead,
// compacts it in watch-list order, rewriting watcher and reason references
// through forwarding headers.
//
// The theory client (the simplex LRA solver) is attached via TheoryClient;
// the SAT core notifies it of assignments to theory-mapped literals and asks
// it for consistency at every propagation fixpoint and at full assignments.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "obs/phase.h"
#include "smt/budget.h"
#include "smt/literal.h"

namespace psse::smt {

/// Result of a solve call.
enum class SolveResult { Sat, Unsat, Unknown };

/// Lower-case verdict name for machine-readable reports and traces.
[[nodiscard]] constexpr const char* to_cstring(SolveResult r) {
  switch (r) {
    case SolveResult::Sat:
      return "sat";
    case SolveResult::Unsat:
      return "unsat";
    default:
      return "unknown";
  }
}

/// Word offset of a clause in the arena (see file comment).
using ClauseRef = std::uint32_t;
inline constexpr ClauseRef kClauseRefUndef = 0xFFFFFFFFu;

/// A literal the theory found implied by the current assignment: `lit`
/// holds whenever every literal in `premises` holds (all premises must be
/// currently true and assigned earlier than `lit` will be). The core
/// enqueues `lit` with a lazily reconstructed reason clause
/// (lit \/ ~premise_1 \/ ... \/ ~premise_n).
struct TheoryPropagation {
  Lit lit;
  std::vector<Lit> premises;
};

/// Interface the SAT core uses to drive an attached theory solver.
class TheoryClient {
 public:
  virtual ~TheoryClient() = default;

  /// A theory-mapped literal became true. Must not throw. Returns false if
  /// the theory detects an immediate bound conflict; the core will then call
  /// conflict_explanation().
  virtual bool on_assert(Lit lit) = 0;

  /// Called at each propagation fixpoint (and at a full assignment, with
  /// final==true). Returns true if the current set of asserted bounds is
  /// consistent.
  virtual bool check(bool final) = 0;

  /// After on_assert or check returned false: a conflict clause (the
  /// negations of the inconsistent bound literals). Every literal in the
  /// returned clause must currently be false.
  virtual std::vector<Lit> conflict_explanation() = 0;

  /// After a consistent non-final check(): literals the theory's current
  /// bound set forces, each with its premise literals. The default theory
  /// propagates nothing. Implied literals already true are skipped by the
  /// core; already-false ones become theory conflicts.
  virtual void propagate(std::vector<TheoryPropagation>& /*out*/) {}

  /// The boolean assignment is complete and the theory is consistent; the
  /// client may snapshot theory model values before the core backtracks.
  virtual void on_model() {}

  /// The trail shrank: retract every bound asserted after `n` theory
  /// assertions (the count of on_assert calls that are still valid).
  virtual void pop_to_assertion_count(std::size_t n) = 0;

  /// True if this boolean variable is mapped to a theory atom.
  virtual bool is_theory_var(Var v) const = 0;

  /// Shares the solve call's abort state with the theory, so deadline and
  /// stop-token polling reach long-running theory procedures (the simplex
  /// pivot loop). Called with a valid pointer at the start of each solve
  /// and with nullptr when the solve returns; the pointee lives exactly
  /// that long.
  virtual void set_interrupt(const Interrupt* /*interrupt*/) {}
};

/// Aggregate statistics, exposed for the evaluation harness. Every field
/// is a monotone lifetime counter; per-solve numbers come from snapshot/
/// delta via since() — see SatSolver::stats_since.
struct SatStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned_clauses = 0;
  std::uint64_t deleted_clauses = 0;
  std::uint64_t theory_checks = 0;
  std::uint64_t theory_conflicts = 0;
  std::uint64_t theory_propagations = 0;
  /// Compacting arena collections (see reduce_db).
  std::uint64_t arena_gcs = 0;
  /// Always 0: learned-clause sharing between solvers was removed. Kept
  /// only because the perfbench program still reads them.
  std::uint64_t clauses_exported = 0;
  std::uint64_t clauses_imported = 0;

  /// Field-wise difference against an earlier snapshot of the same solver:
  /// the cost of exactly the work done between the two reads.
  [[nodiscard]] SatStats since(const SatStats& earlier) const {
    SatStats d;
    d.decisions = decisions - earlier.decisions;
    d.propagations = propagations - earlier.propagations;
    d.conflicts = conflicts - earlier.conflicts;
    d.restarts = restarts - earlier.restarts;
    d.learned_clauses = learned_clauses - earlier.learned_clauses;
    d.deleted_clauses = deleted_clauses - earlier.deleted_clauses;
    d.theory_checks = theory_checks - earlier.theory_checks;
    d.theory_conflicts = theory_conflicts - earlier.theory_conflicts;
    d.theory_propagations = theory_propagations - earlier.theory_propagations;
    d.arena_gcs = arena_gcs - earlier.arena_gcs;
    return d;
  }
};

/// Search-heuristic configuration. The defaults reproduce the solver's
/// historical behaviour; portfolio solving diversifies these knobs so that
/// racing members explore the search space differently while every
/// configuration stays sound and complete (same SAT/UNSAT answer, possibly
/// different models and runtimes).
struct SatOptions {
  /// Initial saved phase for branching (false = branch negative first).
  bool default_phase = false;
  /// Luby restart unit: restart after base * luby(k) conflicts.
  std::uint32_t restart_base = 100;
  /// VSIDS activity decay factor in (0, 1).
  double var_decay = 0.95;
  /// Probability (in 1/1024 units) of branching on a random unassigned
  /// variable instead of the VSIDS top. 0 disables random branching.
  std::uint32_t random_branch_permil = 0;
  /// Seed for the deterministic branching RNG.
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
  /// Consult the theory at every k-th propagation fixpoint only (1 =
  /// eager, the default). Larger values trade earlier theory conflicts for
  /// less simplex work; soundness is unaffected because the full check at
  /// complete assignments always runs.
  std::uint32_t theory_check_period = 1;
  /// Ask the theory for implied literals after each consistent non-final
  /// check and enqueue them with theory reasons (turns would-be decisions
  /// into propagations). Off = the pre-propagation search behaviour, for
  /// differential testing and ablation.
  bool theory_propagation = true;
  /// Learned-DB reduction trigger: reduce once the live learnt count
  /// exceeds base + 2/3 of the live problem-clause count. Small values
  /// force frequent reduction + arena GC (stress testing); the default
  /// reproduces the historical threshold.
  std::uint32_t reduce_db_base = 8000;
};

class SatSolver {
 public:
  SatSolver() = default;
  /// A deep copy of the whole search state: clause arena, learnt clauses,
  /// activities, saved phases, counters. The theory client and the
  /// phase-timer pointer are copied as they are, so the copy's owner must
  /// rebind them (see Solver's copy constructor).
  SatSolver(const SatSolver&) = default;
  SatSolver& operator=(const SatSolver&) = delete;

  /// Creates a fresh boolean variable and returns its index.
  Var new_var();
  [[nodiscard]] int num_vars() const { return static_cast<int>(assigns_.size()); }

  /// Adds a clause (disjunction). An empty clause makes the instance
  /// trivially UNSAT. Must be called at decision level 0.
  void add_clause(std::vector<Lit> lits);

  /// Adds sum(lits true) <= bound. bound >= lits.size() is a no-op;
  /// bound == 0 forces all literals false.
  void add_at_most(std::vector<Lit> lits, std::uint32_t bound);
  /// Adds sum(lits true) >= bound (encoded as at-most on negations).
  void add_at_least(std::vector<Lit> lits, std::uint32_t bound);

  /// Attaches the theory client. Must be done before solving; the pointer
  /// is unowned and must outlive the solver's use.
  void set_theory(TheoryClient* theory) { theory_ = theory; }

  /// Reconfigures the search heuristics (portfolio diversification). May be
  /// called between solves; resets every unassigned variable's saved phase
  /// to the new default so the next descent starts from the configured
  /// polarity.
  void set_options(const SatOptions& options);
  [[nodiscard]] const SatOptions& options() const { return options_; }

  /// Saves the sizes of the constraint database.
  void push();
  /// Restores the previous save point: constraints and variables created
  /// since the matching push are discarded. Learnt clauses derived at
  /// surviving depths — whose derivations used only constraints that
  /// survive the pop — are retained, so incremental callers do not
  /// re-learn after every checkpoint.
  void pop();

  /// Decides satisfiability under the given assumption literals.
  SolveResult solve(const std::vector<Lit>& assumptions = {},
                    const Budget& budget = {});

  /// Bounded lookahead probe for cube splitting: asserts `l` at a fresh
  /// decision level on top of the level-0 state, runs boolean propagation
  /// only (no theory consultation), and backtracks. Returns the number of
  /// *additional* literals BCP forced (0 when `l` was already true), or -1
  /// when the probe conflicts — then ~l is implied by the clause database
  /// at level 0 and the caller may assert it. Must be called at decision
  /// level 0. Probing perturbs saved phases, so probe on a dedicated clone
  /// when the original solver's search trajectory must stay reproducible.
  [[nodiscard]] int probe_literal(Lit l);

  /// Current branching activity of a variable (its EVSIDS score).
  /// Comparable only within one solver instance — rescaling makes absolute
  /// magnitudes meaningless — but the *ranking* identifies the variables
  /// the search is actually fighting over, which is what cube splitting
  /// needs.
  [[nodiscard]] double var_activity(Var v) const {
    return activity_[static_cast<std::size_t>(v)];
  }

  /// Model value of a variable after solve() returned Sat.
  [[nodiscard]] bool model_value(Var v) const;

  /// Current (possibly partial) assignment of a literal mid-solve. Theory
  /// clients use this to skip propagating literals that are already
  /// assigned.
  [[nodiscard]] LBool value_of(Lit l) const { return value(l); }

  [[nodiscard]] const SatStats& stats() const { return stats_; }

  /// Per-call effort: what this solver spent since `snapshot` (a prior
  /// stats() copy). Reused and incremental solvers accumulate counters for
  /// their lifetime, so reporting stats() per solve inflates every call
  /// after the first — report stats_since(snapshot) instead.
  [[nodiscard]] SatStats stats_since(const SatStats& snapshot) const {
    return stats_.since(snapshot);
  }

  /// Attaches (or detaches, with nullptr) per-phase wall-time accounting
  /// for the propagate and theory-check phases. Off by default; when off
  /// the cost is one pointer test per phase boundary. The pointee must
  /// outlive its attachment.
  void set_phase_times(obs::PhaseTimes* phases) { phases_ = phases; }

  /// Approximate heap footprint of the clause/watch/card databases in
  /// bytes (Table IV accounting). Counts the arena's *capacity*.
  [[nodiscard]] std::size_t footprint_bytes() const;

  /// Arena accounting (Table IV / obs): bytes reserved by the clause arena
  /// vs bytes occupied by live (non-deleted) clauses. capacity >= used >=
  /// live; used - live is what the next GC reclaims.
  [[nodiscard]] std::size_t arena_capacity_bytes() const {
    return arena_.capacity() * sizeof(std::uint32_t);
  }
  [[nodiscard]] std::size_t arena_live_bytes() const {
    return (arena_.size() - wasted_words_) * sizeof(std::uint32_t);
  }

  /// Live learnt clauses currently attached (multi-literal ones; learnt
  /// level-0 units are not counted).
  [[nodiscard]] std::size_t num_learned_clauses() const {
    return learned_refs_.size();
  }

 private:
  // --- Arena clause layout -------------------------------------------------
  // word 0: flags (bit0 learned, bit1 deleted, bit2 relocated) | size << 3
  // word 1: lbd (low 16 bits) | push-depth at learning time (high 16 bits);
  //         holds the forwarding ClauseRef while bit2 of word 0 is set
  //         (only during garbage_collect()).
  // word 2: activity (IEEE-754 float bits)
  // word 3..3+size: literal codes
  static constexpr std::uint32_t kLearnedBit = 1u;
  static constexpr std::uint32_t kDeletedBit = 2u;
  static constexpr std::uint32_t kRelocBit = 4u;
  static constexpr std::uint32_t kSizeShift = 3u;
  static constexpr std::uint32_t kHeaderWords = 3u;

  struct Card {
    std::vector<Lit> lits;  // at most `bound` of these may be true
    std::uint32_t bound = 0;
    std::uint32_t num_true = 0;
    bool deleted = false;
  };

  // Why a variable was assigned. Clause reasons hold an arena ClauseRef
  // (rewritten by garbage_collect when the clause moves); card reasons
  // index cards_; theory reasons index the theory_reasons_ premise log.
  // Card and theory reason clauses are reconstructed lazily in
  // reason_clause.
  struct Reason {
    enum class Kind : std::uint8_t { None, Clause, Card, Theory } kind =
        Kind::None;
    std::uint32_t index = kClauseRefUndef;
    static Reason none() { return {}; }
    static Reason clause(ClauseRef ref) { return {Kind::Clause, ref}; }
    static Reason card(std::uint32_t id) { return {Kind::Card, id}; }
    static Reason theory(std::uint32_t id) { return {Kind::Theory, id}; }
  };

  struct VarInfo {
    Reason reason;
    std::int32_t level = 0;
    std::int32_t trail_pos = -1;
  };

  struct Watcher {
    ClauseRef cref;
    Lit blocker;
  };

  struct SavePoint {
    int num_vars;
    std::size_t num_pristine_clauses;
    std::size_t num_pristine_cards;
  };

  struct PristineCard {
    std::vector<Lit> lits;
    std::uint32_t bound;
  };

  [[nodiscard]] LBool value(Lit l) const {
    LBool v = assigns_[l.var()];
    return l.negated() ? negate(v) : v;
  }
  [[nodiscard]] LBool value(Var v) const { return assigns_[v]; }
  [[nodiscard]] int decision_level() const {
    return static_cast<int>(trail_lim_.size());
  }
  [[nodiscard]] std::uint32_t push_depth() const {
    return static_cast<std::uint32_t>(save_points_.size());
  }

  // Arena accessors. Refs stay valid across allocations (offsets into a
  // growing buffer); raw pointers into the arena do not survive alloc_.
  ClauseRef alloc_clause(const std::vector<Lit>& lits, bool learned,
                         std::uint32_t lbd, std::uint32_t depth);
  [[nodiscard]] std::uint32_t clause_size(ClauseRef r) const {
    return arena_[r] >> kSizeShift;
  }
  [[nodiscard]] bool clause_learned(ClauseRef r) const {
    return (arena_[r] & kLearnedBit) != 0;
  }
  [[nodiscard]] bool clause_deleted(ClauseRef r) const {
    return (arena_[r] & kDeletedBit) != 0;
  }
  [[nodiscard]] std::uint32_t clause_lbd(ClauseRef r) const {
    return arena_[r + 1] & 0xFFFFu;
  }
  [[nodiscard]] std::uint32_t clause_depth(ClauseRef r) const {
    return arena_[r + 1] >> 16;
  }
  [[nodiscard]] Lit clause_lit(ClauseRef r, std::uint32_t i) const {
    return Lit::from_code(
        static_cast<std::int32_t>(arena_[r + kHeaderWords + i]));
  }
  [[nodiscard]] float clause_activity(ClauseRef r) const;
  void set_clause_activity(ClauseRef r, float a);
  void delete_clause(ClauseRef r);

  void attach_clause(ClauseRef r);
  void attach_card(std::uint32_t id);
  bool enqueue(Lit l, Reason reason);
  // Returns conflicting clause ref, kExplicitConflictRef with
  // pending_conflict_ filled for card/theory conflicts, or kNoConflictRef
  // when propagation reached a fixpoint.
  ClauseRef propagate();
  void cancel_until(int level);
  void analyze(ClauseRef confl_clause, const std::vector<Lit>& confl_lits_in,
               std::vector<Lit>& out_learnt, int& out_btlevel);
  // The clause (implied lit first) justifying an assignment.
  std::vector<Lit> reason_clause(Var v);
  void var_bump(Var v);
  void var_decay();
  void clause_bump(ClauseRef r);
  Lit pick_branch();
  std::uint64_t next_rand();
  void reduce_db();
  ClauseRef relocate(ClauseRef r, std::vector<std::uint32_t>& to);
  void garbage_collect();
  void rebuild_order_heap();
  std::uint32_t compute_lbd(const std::vector<Lit>& lits);
  bool theory_check(bool final, std::vector<Lit>& confl);
  // Installs a clause implied by the current constraint database at
  // decision level 0, simplifying against the level-0 assignment. Used by
  // pop()'s learnt retention. Updates clause/unit bookkeeping but no stats
  // counters; a clause already satisfied at level 0, or a tautology, is
  // dropped.
  void install_implied_clause(const std::vector<Lit>& lits,
                              std::uint32_t lbd, std::uint32_t depth);

  // Heap-backed VSIDS order (simple binary heap keyed by activity).
  void heap_insert(Var v);
  Var heap_pop();
  void heap_up(int i);
  void heap_down(int i);
  [[nodiscard]] bool heap_empty() const { return heap_.empty(); }

  TheoryClient* theory_ = nullptr;

  // Clause arena (see layout above) and the words dead clauses occupy;
  // garbage_collect() compacts once a quarter of the arena is dead.
  std::vector<std::uint32_t> arena_;
  std::size_t wasted_words_ = 0;
  std::size_t num_problem_clauses_ = 0;  // live non-learnt clauses

  std::deque<Card> cards_;
  std::vector<std::vector<Watcher>> watches_;     // indexed by lit code
  std::vector<std::vector<std::uint32_t>> card_occs_;  // lit code -> card ids

  std::vector<LBool> assigns_;
  std::vector<VarInfo> var_info_;
  std::vector<bool> phase_;       // saved phases
  std::vector<double> activity_;
  std::vector<Lit> trail_;
  std::vector<std::int32_t> trail_lim_;
  std::size_t qhead_ = 0;
  std::size_t theory_qhead_ = 0;       // trail prefix already sent to theory
  std::size_t theory_assert_count_ = 0;

  std::vector<Var> heap_;
  std::vector<std::int32_t> heap_index_;

  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;
  SatOptions options_;
  std::uint64_t rng_state_ = 0x9e3779b97f4a7c15ull;
  // Abort state of the in-flight solve; null outside solve().
  const Interrupt* interrupt_ = nullptr;
  // Phase-time accumulator; null = accounting off (see set_phase_times).
  obs::PhaseTimes* phases_ = nullptr;

  bool ok_ = true;  // false once UNSAT at level 0
  std::vector<bool> model_;
  // Live learnt clauses (multi-literal), in learning order; purged
  // of deleted entries at the end of each reduce_db.
  std::vector<ClauseRef> learned_refs_;
  // Learnt level-0 unit facts with the push-depth they were derived at, so
  // pop() can replay the ones whose derivations survive.
  std::vector<std::pair<Lit, std::uint32_t>> learnt_units_;
  std::vector<SavePoint> save_points_;

  // Constraints exactly as the user gave them, so pop() can rebuild the
  // database without trusting level-0 simplifications that may have used
  // popped facts.
  std::vector<std::vector<Lit>> pristine_clauses_;
  std::vector<PristineCard> pristine_cards_;
  bool replaying_ = false;

  // Conflict state populated by propagate() for non-clause conflicts.
  std::vector<Lit> pending_conflict_;

  // Premise sets of theory-propagated literals, indexed by
  // Reason::Kind::Theory reasons. Entries are appended in enqueue (= trail)
  // order, so cancel_until can truncate at the lowest retracted index;
  // pop() clears the log with the trail.
  std::vector<std::vector<Lit>> theory_reasons_;
  std::vector<TheoryPropagation> theory_props_;  // scratch for theory_check

  // Temporaries for analyze().
  std::vector<bool> seen_;

  SatStats stats_;
};

}  // namespace psse::smt
