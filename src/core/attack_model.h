// The UFDI attack verification model (paper Section III).
//
// Encodes the feasibility of an undetected false-data-injection attack —
// including topology poisoning — as an SMT problem over booleans (which
// measurements/buses/lines are touched) and exact reals (state and
// measurement deltas). Solving answers the operator's question: *can an
// adversary with these attributes corrupt these states stealthily?* SAT
// yields the attack vector; UNSAT certifies immunity.
//
// Variable glossary (paper Table I -> here):
//   cx_j  state j corrupted          <-> delta theta_j != 0
//   cz_i  measurement i altered      <-> its delta != 0 (taken meas only)
//   cb_j  substation j compromised   (residence closure of cz)
//   el_i / il_i  exclusion/inclusion topology attack on line i
//   sb_j  bus j secured — *assumption* variables so the synthesis loop can
//         evaluate candidate architectures without re-encoding (Eq. (28))
//
// Encoding of the reconstructed flow semantics (DESIGN.md §4):
//   in-service, not excludable:  tot_i = ld_i (dth_from - dth_to)
//   in-service, excludable:      el_i  -> tot_i = te_i, te_i != 0
//                                ~el_i -> tot_i = ld_i (dth_from - dth_to)
//   open, includable:            il_i  -> tot_i = te_i, te_i != 0
//                                ~il_i -> tot_i = 0
//   injection delta at bus j:    dPB_j = sum(in) tot_i - sum(out) tot_i
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <vector>

#include "core/attack_spec.h"
#include "core/attack_vector.h"
#include "grid/grid.h"
#include "grid/measurement.h"
#include "obs/trace.h"
#include "smt/solver.h"

namespace psse::core {

struct VerificationResult {
  smt::SolveResult result = smt::SolveResult::Unknown;
  std::optional<AttackVector> attack;  // present iff Sat
  double seconds = 0.0;
  /// Effort of *this* verify call (snapshot/delta over the underlying
  /// solver): counters cover exactly this solve, gauges describe the
  /// current model size. Summing per-call counters over a session equals
  /// the solver's lifetime totals.
  smt::SolverStats stats;
  /// Per-phase wall time of this call; all-zero unless tracing (or
  /// phase timing) is enabled on the model.
  obs::PhaseTimes phase_times;

  [[nodiscard]] bool feasible() const {
    return result == smt::SolveResult::Sat;
  }
};

/// Exact rational for a double admittance or magnitude threshold, rounded
/// at 1e-6 — the grid data is decimal to begin with (Table II has two
/// decimals), so this is exact in practice and keeps simplex coefficients
/// small. Anything that compares a value against an encoded threshold must
/// round it the same way.
[[nodiscard]] smt::Rational to_rational(double v);

/// How much of the spec the constructor encodes.
enum class EncodeMode {
  /// Everything: structural constraints plus the spec's resource limits,
  /// attack goal, and magnitude constraints. One-shot models.
  kFull,
  /// Structure only (flow semantics, knowledge, accessibility, residence
  /// closure). The ScenarioDelta axes — resource caps, goal, magnitudes,
  /// dynamically secured sets — are supplied per verify_delta() call under
  /// a push frame, so one warm solver serves a whole scenario family.
  kBase,
};

class UfdiAttackModel {
 public:
  /// Builds the constraint system once; verify calls are incremental. In
  /// kBase mode the ScenarioDelta axes of `spec` are ignored (the base of
  /// `spec` is encoded — pass `strip_delta(spec)` to make that explicit)
  /// and queries go through verify_delta().
  UfdiAttackModel(const grid::Grid& grid, const grid::MeasurementPlan& plan,
                  AttackSpec spec, EncodeMode mode = EncodeMode::kFull);
  UfdiAttackModel& operator=(const UfdiAttackModel&) = delete;

  /// A copy of this model in its current state — no re-encode. The clone
  /// keeps the solver's learnt clauses, activities, saved phases, tableau,
  /// counters and SAT/simplex options, so it searches exactly as this model
  /// would from here on; a clone of a model that has not solved yet is
  /// indistinguishable from a fresh encode of the same (grid, plan, spec).
  /// Trace and phase timing are detached, and the clone's phase times
  /// start at zero. The clone aliases this model's grid reference, so the
  /// grid must outlive it. Cloning only reads this model: many threads may
  /// clone one model at once as long as none of them solves it meanwhile.
  /// Clones are what the parallel runtime hands to worker threads — solver
  /// instances are not thread-safe, but independent clones solving
  /// concurrently are.
  [[nodiscard]] std::unique_ptr<UfdiAttackModel> clone() const;

  /// Reconfigures the underlying CDCL heuristics (portfolio
  /// diversification). Affects subsequent verify calls only.
  void set_solver_options(const smt::SatOptions& options) {
    solver_.set_sat_options(options);
  }

  /// Attaches structured tracing: every subsequent verify call emits one
  /// "solve" event (verdict, per-call stats, phase times) to the sink and
  /// enables per-phase timing on the solver. A default-constructed Config
  /// detaches. The sink must outlive the model's traced calls.
  void set_trace(const obs::Config& trace) {
    trace_ = trace;
    solver_.enable_phase_timing(trace.enabled());
  }
  [[nodiscard]] const obs::Config& trace() const { return trace_; }

  /// Reconfigures the theory solver (pivot rule, float filter). Affects
  /// subsequent verify calls only — the ci.sh cross-check runs the same
  /// scenarios with the filter on and off through this knob.
  void set_simplex_options(const smt::SimplexOptions& options) {
    solver_.set_simplex_options(options);
  }
  [[nodiscard]] const smt::SimplexOptions& simplex_options() const {
    return solver_.simplex_options();
  }

  /// Enables per-phase wall-time accounting independently of tracing, so
  /// bench --json rows can report the encode/propagate/simplex/tprop split
  /// without a trace sink attached. set_trace also toggles this; call this
  /// after set_trace to keep timing on with tracing off.
  void enable_phase_timing(bool on) { solver_.enable_phase_timing(on); }

  /// Is the specified attack feasible with no extra countermeasures?
  [[nodiscard]] VerificationResult verify(const smt::Budget& budget = {});

  /// One query of a scenario family against a kBase-mode model: asserts
  /// the delta's resource caps, goal, and magnitude constraints under a
  /// push frame, solves with the secured sets as assumptions, and pops.
  /// The verdict (and witness feasibility) matches a fresh kFull encode of
  /// the combined spec, but a warm session skips re-encoding and keeps the
  /// learnt-clause database across pops, so running a family of related
  /// deltas on one model is far cheaper than one cold solve each (the
  /// analytics service's whole reason to exist — DESIGN.md §6f).
  [[nodiscard]] VerificationResult verify_delta(const ScenarioDelta& delta,
                                                const smt::Budget& budget = {});

  /// Is it feasible when additionally the given buses are secured (all
  /// their resident measurements integrity-protected, Eq. (28))? This is
  /// the inner query of Algorithm 1, answered via solver assumptions.
  [[nodiscard]] VerificationResult verify_with_secured_buses(
      const std::vector<grid::BusId>& securedBuses,
      const smt::Budget& budget = {});

  /// Measurement-granular variant (Section IV-A: "similar mechanism can be
  /// used for synthesizing security architecture with respect to
  /// measurements only"): is the attack feasible when the given individual
  /// measurements are additionally secured?
  [[nodiscard]] VerificationResult verify_with_secured_measurements(
      const std::vector<grid::MeasId>& securedMeasurements,
      const smt::Budget& budget = {});

  /// Measurements an adversary could conceivably need to alter (taken,
  /// accessible, not statically secured) — the candidate universe for
  /// measurement-level synthesis.
  [[nodiscard]] std::vector<grid::MeasId> attackable_measurements() const;

  /// Boolean terms worth splitting a hard instance on: the per-bus
  /// substation-compromise indicators cb_j, then the el/il topology-attack
  /// literals. These are the high-fanout structural decisions (a cb_j
  /// polarity decides a whole substation's worth of cz freedom via the
  /// residence closure), so cube-and-conquer cubes on them
  /// (runtime::split_cubes).
  [[nodiscard]] std::vector<smt::TermRef> cube_candidate_terms() const;

  /// BCP-only lookahead on a candidate term (smt::Solver::probe_term):
  /// forced-literal count, or -1 when asserting it conflicts at level 0.
  /// Perturbs the solver's saved phases — call on a dedicated clone.
  [[nodiscard]] int probe_term(smt::TermRef t) {
    return solver_.probe_term(t);
  }

  /// Branching activity of a candidate term's SAT variable (see
  /// smt::Solver::term_activity). After a bounded burn-in verify on a
  /// clone, ranking candidates by activity puts the split on the
  /// variables the refutation is actually fighting over instead of an
  /// arbitrary construction-order prefix.
  [[nodiscard]] double term_activity(smt::TermRef t) {
    return solver_.term_activity(t);
  }

  /// verify() under extra assumption terms (a cube from split_cubes): the
  /// statically-secured baseline assumptions plus `extra`, solved without
  /// touching the assertion database, so one clone conquers many cubes
  /// back to back while keeping its learnt clauses warm.
  [[nodiscard]] VerificationResult verify_with_assumptions(
      const std::vector<smt::TermRef>& extra, const smt::Budget& budget = {});

  [[nodiscard]] const grid::Grid& grid() const { return grid_; }
  [[nodiscard]] const grid::MeasurementPlan& plan() const { return plan_; }
  [[nodiscard]] const AttackSpec& spec() const { return spec_; }
  /// Statistics of the underlying SMT solver (Table IV accounting).
  [[nodiscard]] smt::SolverStats solver_stats() const {
    return solver_.stats();
  }
  /// The encoded term DAG (read-only).
  [[nodiscard]] const smt::TermManager& terms() const {
    return solver_.terms();
  }

 private:
  /// Member-wise copy behind clone(), which then detaches tracing.
  UfdiAttackModel(const UfdiAttackModel&) = default;

  void encode();
  /// Asserts a delta's resource/goal/magnitude constraints at the solver's
  /// current assertion level (level 0 for kFull construction, a push frame
  /// for verify_delta).
  void assert_delta(const ScenarioDelta& delta);
  /// Assumption literals for the dynamically secured sets (every sb_j and
  /// valid szv_m appears, positively iff listed).
  [[nodiscard]] std::vector<smt::TermRef> secured_assumptions(
      const std::vector<grid::BusId>& securedBuses,
      const std::vector<grid::MeasId>& securedMeasurements) const;
  [[nodiscard]] VerificationResult run(
      const std::vector<smt::TermRef>& assumptions, const smt::Budget& budget);
  [[nodiscard]] AttackVector extract_model() const;
  [[nodiscard]] smt::Rational line_total_delta(grid::LineId i) const;

  const grid::Grid& grid_;
  grid::MeasurementPlan plan_;
  AttackSpec spec_;
  EncodeMode mode_;
  smt::Solver solver_;
  obs::Config trace_;

  // Variable maps (invalid/unused entries are default-invalid).
  std::vector<smt::TermRef> cx_;                 // per bus
  std::vector<smt::TermRef> cz_;                 // per potential measurement
  std::vector<smt::TermRef> cb_;                 // per bus
  std::vector<smt::TermRef> sb_;                 // per bus (assumptions)
  std::vector<smt::TermRef> szv_;                // per meas (assumptions)
  std::vector<smt::TermRef> el_;                 // per line
  std::vector<smt::TermRef> il_;                 // per line
  std::vector<smt::TVar> dtheta_;                // per bus
  std::vector<smt::TVar> te_;                    // per line (kNoTVar if n/a)
  std::vector<smt::LinExpr> tot_;                // per line: total flow delta
  std::vector<smt::LinExpr> dpb_;                // per bus: injection delta
  std::vector<bool> tot_is_var_;                 // per line

  // Constraint-bearing variable lists retained for assert_delta: the valid
  // cz terms (T_CZ cardinality) and the el/il attack variables (topology
  // cap).
  std::vector<smt::TermRef> cz_valid_;
  std::vector<smt::TermRef> topology_vars_;
};

}  // namespace psse::core
