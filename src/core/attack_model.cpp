#include "core/attack_model.h"

#include <algorithm>
#include <cmath>

#include "smt/common.h"

namespace psse::core {

using grid::BusId;
using grid::LineId;
using grid::MeasId;
using smt::LinExpr;
using smt::Rational;
using smt::TermRef;

namespace {

/// Exact rational for a double admittance, rounded at 1e-6 — the grid data
/// is decimal to begin with (Table II has two decimals), so this is exact
/// in practice and keeps simplex coefficients small.
Rational to_rational(double v) {
  return Rational(static_cast<std::int64_t>(std::llround(v * 1e6)), 1000000);
}

}  // namespace

UfdiAttackModel::UfdiAttackModel(const grid::Grid& grid,
                                 const grid::MeasurementPlan& plan,
                                 AttackSpec spec, EncodeMode mode)
    : grid_(grid),
      plan_(plan),
      // A base-mode model ignores the delta axes by construction, so strip
      // them up front: spec() then names exactly what is encoded and the
      // session-cache key need not normalise the spec itself.
      spec_(mode == EncodeMode::kBase ? strip_delta(spec) : std::move(spec)),
      mode_(mode) {
  PSSE_CHECK(plan_.num_lines() == grid_.num_lines() &&
                 plan_.num_buses() == grid_.num_buses(),
             "UfdiAttackModel: plan does not match grid");
  PSSE_CHECK(spec_.reference_bus >= 0 &&
                 spec_.reference_bus < grid_.num_buses(),
             "UfdiAttackModel: reference bus out of range");
  PSSE_CHECK(spec_.admittance_known.empty() ||
                 static_cast<int>(spec_.admittance_known.size()) ==
                     grid_.num_lines(),
             "UfdiAttackModel: admittance_known size mismatch");
  for (BusId t : spec_.target_states) {
    PSSE_CHECK(t >= 0 && t < grid_.num_buses(),
               "UfdiAttackModel: target state out of range");
    PSSE_CHECK(t != spec_.reference_bus,
               "UfdiAttackModel: the reference state cannot be attacked");
  }
  encode();
}

std::unique_ptr<UfdiAttackModel> UfdiAttackModel::clone() const {
  std::unique_ptr<UfdiAttackModel> copy(new UfdiAttackModel(*this));
  copy->set_trace({});
  copy->solver_.reset_phase_times();
  return copy;
}

void UfdiAttackModel::encode() {
  auto& t = solver_.terms();
  const int b = grid_.num_buses();
  const int l = grid_.num_lines();

  // --- State variables and cx_j <-> (delta theta_j != 0)  (Eq. (5)) ---
  cx_.resize(static_cast<std::size_t>(b));
  cb_.resize(static_cast<std::size_t>(b));
  sb_.resize(static_cast<std::size_t>(b));
  dtheta_.resize(static_cast<std::size_t>(b));
  for (BusId j = 0; j < b; ++j) {
    dtheta_[static_cast<std::size_t>(j)] =
        solver_.mk_real("dth" + std::to_string(j + 1));
    cx_[static_cast<std::size_t>(j)] =
        solver_.mk_bool("cx" + std::to_string(j + 1));
    cb_[static_cast<std::size_t>(j)] =
        solver_.mk_bool("cb" + std::to_string(j + 1));
    sb_[static_cast<std::size_t>(j)] =
        solver_.mk_bool("sb" + std::to_string(j + 1));
    LinExpr dth = LinExpr::var(dtheta_[static_cast<std::size_t>(j)]);
    solver_.assert_term(t.mk_implies(cx_[static_cast<std::size_t>(j)],
                                     t.mk_ne(dth, Rational(0))));
    solver_.assert_term(t.mk_implies(~cx_[static_cast<std::size_t>(j)],
                                     t.mk_eq(dth, Rational(0))));
  }
  // Reference gauge: a uniform shift is unobservable, so pin it.
  {
    LinExpr ref =
        LinExpr::var(dtheta_[static_cast<std::size_t>(spec_.reference_bus)]);
    solver_.assert_term(t.mk_eq(ref, Rational(0)));
    solver_.assert_term(~cx_[static_cast<std::size_t>(spec_.reference_bus)]);
  }

  // --- Per-line flow deltas and topology-attack structure ---
  el_.resize(static_cast<std::size_t>(l));
  il_.resize(static_cast<std::size_t>(l));
  te_.assign(static_cast<std::size_t>(l), smt::kNoTVar);
  tot_.resize(static_cast<std::size_t>(l));
  tot_is_var_.assign(static_cast<std::size_t>(l), false);
  topology_vars_.clear();
  for (LineId i = 0; i < l; ++i) {
    const grid::Line& line = grid_.line(i);
    Rational y = to_rational(line.admittance);
    LinExpr stateExpr;
    stateExpr.add_term(dtheta_[static_cast<std::size_t>(line.from)], y);
    stateExpr.add_term(dtheta_[static_cast<std::size_t>(line.to)], -y);

    const bool excludable = spec_.allow_topology_attacks && line.in_service &&
                            !line.fixed && !line.status_secured;
    const bool includable = spec_.allow_topology_attacks &&
                            !line.in_service && !line.status_secured;
    if (line.in_service && !excludable) {
      tot_[static_cast<std::size_t>(i)] = stateExpr;
      continue;
    }
    if (!line.in_service && !includable) {
      tot_[static_cast<std::size_t>(i)] = LinExpr();  // constant zero
      continue;
    }
    // Attackable line: total delta becomes a guarded variable (Eqs.
    // (7)-(13) as reconstructed in DESIGN.md §4).
    smt::TVar tot = solver_.mk_real("tot" + std::to_string(i + 1));
    smt::TVar te = solver_.mk_real("te" + std::to_string(i + 1));
    te_[static_cast<std::size_t>(i)] = te;
    tot_[static_cast<std::size_t>(i)] = LinExpr::var(tot);
    tot_is_var_[static_cast<std::size_t>(i)] = true;
    LinExpr totE = LinExpr::var(tot);
    LinExpr teE = LinExpr::var(te);
    TermRef attackVar;
    if (excludable) {
      attackVar = solver_.mk_bool("el" + std::to_string(i + 1));
      el_[static_cast<std::size_t>(i)] = attackVar;
      // ~el: the line behaves normally.
      solver_.assert_term(
          t.mk_implies(~attackVar, t.mk_eq(totE - stateExpr, Rational(0))));
    } else {
      attackVar = solver_.mk_bool("il" + std::to_string(i + 1));
      il_[static_cast<std::size_t>(i)] = attackVar;
      // ~il: an open, unmapped line contributes nothing.
      solver_.assert_term(
          t.mk_implies(~attackVar, t.mk_eq(totE, Rational(0))));
    }
    topology_vars_.push_back(attackVar);
    // Under attack, the delta is the free topology term, forced nonzero
    // (exclusion must hide a real flow; inclusion must fake one).
    solver_.assert_term(
        t.mk_implies(attackVar, t.mk_eq(totE - teE, Rational(0))));
    solver_.assert_term(t.mk_implies(attackVar, t.mk_ne(teE, Rational(0))));
    solver_.assert_term(t.mk_implies(~attackVar, t.mk_eq(teE, Rational(0))));
  }

  // --- Injection deltas (Eq. (14)) ---
  dpb_.resize(static_cast<std::size_t>(b));
  for (BusId j = 0; j < b; ++j) {
    LinExpr sum;
    for (LineId i : grid_.lines_at(j)) {
      const grid::Line& line = grid_.line(i);
      if (line.to == j) {
        sum += tot_[static_cast<std::size_t>(i)];
      } else {
        sum -= tot_[static_cast<std::size_t>(i)];
      }
    }
    dpb_[static_cast<std::size_t>(j)] = sum;
  }

  // --- Measurement alteration: cz_m <-> (its delta != 0)  (Eqs. (15),(16))
  cz_.resize(static_cast<std::size_t>(plan_.num_potential()));
  auto bind_cz = [&](MeasId m, const LinExpr& delta, TermRef discardIf) {
    if (!plan_.taken(m)) return;  // nobody reads it; it constrains nothing
    TermRef cz = solver_.mk_bool("cz" + std::to_string(m + 1));
    cz_[static_cast<std::size_t>(m)] = cz;
    if (delta.is_constant()) {
      // Structurally zero delta: the measurement can never need altering.
      solver_.assert_term(~cz);
      return;
    }
    if (discardIf.valid()) {
      // Discard semantics: under the exclusion attack the estimator drops
      // this meter, so it needs no altering and imposes no constraint.
      solver_.assert_term(t.mk_implies(discardIf, ~cz));
      solver_.assert_term(t.mk_implies(cz, t.mk_ne(delta, Rational(0))));
      solver_.assert_term(t.mk_implies(t.mk_and({~discardIf, ~cz}),
                                       t.mk_eq(delta, Rational(0))));
      return;
    }
    solver_.assert_term(t.mk_implies(cz, t.mk_ne(delta, Rational(0))));
    solver_.assert_term(t.mk_implies(~cz, t.mk_eq(delta, Rational(0))));
  };
  for (LineId i = 0; i < l; ++i) {
    TermRef discardIf;  // invalid = zeroing semantics
    if (!spec_.excluded_meters_must_read_zero &&
        el_[static_cast<std::size_t>(i)].valid()) {
      discardIf = el_[static_cast<std::size_t>(i)];
    }
    bind_cz(plan_.forward_flow(i), tot_[static_cast<std::size_t>(i)],
            discardIf);
    // The backward meter's delta is the negation; != 0 is the same
    // condition, so bind it to the same expression.
    bind_cz(plan_.backward_flow(i), tot_[static_cast<std::size_t>(i)],
            discardIf);
  }
  for (BusId j = 0; j < b; ++j) {
    bind_cz(plan_.injection(j), dpb_[static_cast<std::size_t>(j)], TermRef());
  }

  // --- Accessibility / static security (Eqs. (19)-(21)) and the dynamic
  //     secured-bus / secured-measurement closures (Eq. (28)) ---
  cz_valid_.clear();
  szv_.resize(static_cast<std::size_t>(plan_.num_potential()));
  for (MeasId m = 0; m < plan_.num_potential(); ++m) {
    TermRef cz = cz_[static_cast<std::size_t>(m)];
    if (!cz.valid()) continue;
    cz_valid_.push_back(cz);
    if (!plan_.accessible(m) || plan_.secured(m)) {
      solver_.assert_term(~cz);
      continue;
    }
    BusId res = plan_.residence_bus(m, grid_);
    solver_.assert_term(
        t.mk_or({~sb_[static_cast<std::size_t>(res)], ~cz}));
    TermRef szv = solver_.mk_bool("szv" + std::to_string(m + 1));
    szv_[static_cast<std::size_t>(m)] = szv;
    solver_.assert_term(t.mk_or({~szv, ~cz}));
  }

  // --- Knowledge (Eq. (17)) ---
  for (LineId i = 0; i < l; ++i) {
    if (spec_.knows(i)) continue;
    for (MeasId m : {plan_.forward_flow(i), plan_.backward_flow(i)}) {
      TermRef cz = cz_[static_cast<std::size_t>(m)];
      if (!cz.valid()) continue;
      if (spec_.knowledge_gates_topology_lines) {
        solver_.assert_term(~cz);
      } else {
        // Alteration is allowed only as part of a topology attack.
        std::vector<TermRef> lits{~cz};
        if (el_[static_cast<std::size_t>(i)].valid()) {
          lits.push_back(el_[static_cast<std::size_t>(i)]);
        }
        if (il_[static_cast<std::size_t>(i)].valid()) {
          lits.push_back(il_[static_cast<std::size_t>(i)]);
        }
        solver_.assert_term(t.mk_or(std::move(lits)));
      }
    }
  }

  // --- Residence closure (Eq. (23)): altering a measurement compromises
  //     its substation. Structural — the T_CZ/T_CB caps themselves are
  //     delta axes asserted below (kFull) or per verify_delta (kBase). ---
  for (MeasId m = 0; m < plan_.num_potential(); ++m) {
    TermRef cz = cz_[static_cast<std::size_t>(m)];
    if (!cz.valid()) continue;
    BusId res = plan_.residence_bus(m, grid_);
    solver_.assert_term(t.mk_or({~cz, cb_[static_cast<std::size_t>(res)]}));
  }

  if (mode_ == EncodeMode::kFull) {
    assert_delta(ScenarioDelta::of(spec_));
  }
}

void UfdiAttackModel::assert_delta(const ScenarioDelta& delta) {
  auto& t = solver_.terms();
  const int b = grid_.num_buses();
  const int l = grid_.num_lines();

  // --- Resource limits (Eqs. (22)-(24)) ---
  if (delta.max_topology_changes > 0 && !topology_vars_.empty()) {
    solver_.add_at_most(
        topology_vars_,
        static_cast<std::uint32_t>(delta.max_topology_changes));
  }
  if (delta.max_altered_measurements > 0 && !cz_valid_.empty()) {
    solver_.add_at_most(
        cz_valid_,
        static_cast<std::uint32_t>(delta.max_altered_measurements));
  }
  if (delta.max_compromised_buses > 0) {
    solver_.add_at_most(
        cb_, static_cast<std::uint32_t>(delta.max_compromised_buses));
  }

  // --- Attack goal (Eqs. (25),(26)) ---
  for (BusId target : delta.target_states) {
    solver_.assert_term(cx_[static_cast<std::size_t>(target)]);
  }
  if (delta.attack_only_targets) {
    for (BusId j = 0; j < b; ++j) {
      if (std::find(delta.target_states.begin(), delta.target_states.end(),
                    j) == delta.target_states.end()) {
        solver_.assert_term(~cx_[static_cast<std::size_t>(j)]);
      }
    }
  }
  for (auto [a, bb] : delta.distinct_changes) {
    LinExpr diff = LinExpr::var(dtheta_[static_cast<std::size_t>(a)]) -
                   LinExpr::var(dtheta_[static_cast<std::size_t>(bb)]);
    solver_.assert_term(t.mk_ne(diff, Rational(0)));
  }
  if (delta.target_states.empty() && delta.require_any_state_attack) {
    solver_.add_at_least(cx_, 1);
  }

  // --- Magnitude constraints (extension; see attack_spec.h) ---
  if (delta.min_target_shift > 0.0) {
    Rational eps = to_rational(delta.min_target_shift);
    for (BusId target : delta.target_states) {
      LinExpr dth = LinExpr::var(dtheta_[static_cast<std::size_t>(target)]);
      solver_.assert_term(
          t.mk_or({t.mk_ge(dth, eps), t.mk_le(dth, -eps)}));
    }
  }
  if (delta.max_measurement_delta > 0.0) {
    Rational cap = to_rational(delta.max_measurement_delta);
    auto bound_delta = [&](MeasId m, const LinExpr& deltaExpr) {
      if (!plan_.taken(m) || deltaExpr.is_constant()) return;
      solver_.assert_term(t.mk_le(deltaExpr, cap));
      solver_.assert_term(t.mk_ge(deltaExpr, -cap));
    };
    for (LineId i = 0; i < l; ++i) {
      bound_delta(plan_.forward_flow(i), tot_[static_cast<std::size_t>(i)]);
      bound_delta(plan_.backward_flow(i), tot_[static_cast<std::size_t>(i)]);
    }
    for (BusId j = 0; j < b; ++j) {
      bound_delta(plan_.injection(j), dpb_[static_cast<std::size_t>(j)]);
    }
  }
}

VerificationResult UfdiAttackModel::run(
    const std::vector<TermRef>& assumptions, const smt::Budget& budget) {
  VerificationResult out;
  // Snapshot/delta: the solver is incremental and reused across calls, so
  // its counters are lifetime totals — report what *this* call cost.
  const smt::SolverStats before = solver_.stats();
  const obs::PhaseTimes phasesBefore = solver_.phase_times();
  auto start = std::chrono::steady_clock::now();
  out.result = solver_.solve(assumptions, budget);
  out.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  out.stats = solver_.stats().since(before);
  out.phase_times = solver_.phase_times().since(phasesBefore);
  if (out.result == smt::SolveResult::Sat) out.attack = extract_model();
  if (trace_.enabled()) {
    obs::Event("solve")
        .field("verdict", smt::to_cstring(out.result))
        .field("seconds", out.seconds)
        .field("assumptions", static_cast<std::uint64_t>(assumptions.size()))
        .field("decisions", out.stats.sat.decisions)
        .field("propagations", out.stats.sat.propagations)
        .field("conflicts", out.stats.sat.conflicts)
        .field("restarts", out.stats.sat.restarts)
        .field("theory_checks", out.stats.sat.theory_checks)
        .field("theory_conflicts", out.stats.sat.theory_conflicts)
        .field("theory_propagations", out.stats.sat.theory_propagations)
        .field("pivots", out.stats.pivots)
        .field("bound_flips", out.stats.bound_flips)
        .field("bland_fallbacks", out.stats.bland_fallbacks)
        .field("float_pivots", out.stats.float_pivots)
        .field("exact_recomputes", out.stats.exact_recomputes)
        .field("filter_disagreements", out.stats.filter_disagreements)
        .field("filter_fallbacks", out.stats.filter_fallbacks)
        .field("eta_updates", out.stats.eta_updates)
        .field("refactorisations", out.stats.refactorisations)
        .field("eta_file_len_max", out.stats.eta_file_len_max)
        .field("bigint_promotions", out.stats.bigint_promotions)
        .field("arena_gcs", out.stats.sat.arena_gcs)
        .field("arena_capacity_bytes",
               static_cast<std::uint64_t>(out.stats.arena_capacity_bytes))
        .field("arena_live_bytes",
               static_cast<std::uint64_t>(out.stats.arena_live_bytes))
        .field("chrono_backtracks", out.stats.sat.chrono_backtracks)
        .field("lrb_selections", out.stats.sat.lrb_selections)
        .field("encode_us", out.phase_times.encode_us)
        .field("propagate_us", out.phase_times.propagate_us)
        .field("simplex_us", out.phase_times.simplex_us)
        .field("tprop_us", out.phase_times.tprop_us)
        .field("theory_us", out.phase_times.theory_us)
        .field("ftran_us", out.phase_times.ftran_us)
        .field("btran_us", out.phase_times.btran_us)
        .emit(trace_);
  }
  return out;
}

std::vector<TermRef> UfdiAttackModel::secured_assumptions(
    const std::vector<BusId>& securedBuses,
    const std::vector<MeasId>& securedMeasurements) const {
  std::vector<bool> busOn(static_cast<std::size_t>(grid_.num_buses()), false);
  for (BusId j : securedBuses) {
    PSSE_CHECK(j >= 0 && j < grid_.num_buses(),
               "secured_assumptions: bus out of range");
    busOn[static_cast<std::size_t>(j)] = true;
  }
  std::vector<bool> measOn(static_cast<std::size_t>(plan_.num_potential()),
                           false);
  for (MeasId m : securedMeasurements) {
    PSSE_CHECK(m >= 0 && m < plan_.num_potential(),
               "secured_assumptions: measurement id out of range");
    // Untaken, inaccessible, or statically secured measurements have no
    // szv variable; they are already unalterable, so securing them is a
    // no-op rather than an error (scenario sweeps toggle freely).
    measOn[static_cast<std::size_t>(m)] = true;
  }
  std::vector<TermRef> assumptions;
  assumptions.reserve(sb_.size() + szv_.size());
  for (BusId j = 0; j < grid_.num_buses(); ++j) {
    assumptions.push_back(busOn[static_cast<std::size_t>(j)]
                              ? sb_[static_cast<std::size_t>(j)]
                              : ~sb_[static_cast<std::size_t>(j)]);
  }
  for (MeasId m = 0; m < plan_.num_potential(); ++m) {
    TermRef s = szv_[static_cast<std::size_t>(m)];
    if (!s.valid()) continue;
    assumptions.push_back(measOn[static_cast<std::size_t>(m)] ? s : ~s);
  }
  return assumptions;
}

VerificationResult UfdiAttackModel::verify(const smt::Budget& budget) {
  // No candidate countermeasures: all sb_j / szv_m assumed off.
  return run(secured_assumptions({}, {}), budget);
}

VerificationResult UfdiAttackModel::verify_with_assumptions(
    const std::vector<smt::TermRef>& extra, const smt::Budget& budget) {
  // The cube rides after the secured-set baseline: assumptions are decided
  // in order, so the secured literals pin the countermeasure state first
  // and the cube then carves the remaining search space.
  std::vector<TermRef> assumptions = secured_assumptions({}, {});
  assumptions.insert(assumptions.end(), extra.begin(), extra.end());
  return run(assumptions, budget);
}

std::vector<smt::TermRef> UfdiAttackModel::cube_candidate_terms() const {
  std::vector<TermRef> out;
  out.reserve(cb_.size() + topology_vars_.size());
  for (TermRef t : cb_) {
    if (t.valid()) out.push_back(t);
  }
  for (TermRef t : topology_vars_) out.push_back(t);
  return out;
}

VerificationResult UfdiAttackModel::verify_with_secured_measurements(
    const std::vector<MeasId>& securedMeasurements,
    const smt::Budget& budget) {
  for (MeasId m : securedMeasurements) {
    PSSE_CHECK(m >= 0 && m < plan_.num_potential(),
               "verify_with_secured_measurements: id out of range");
    PSSE_CHECK(szv_[static_cast<std::size_t>(m)].valid(),
               "verify_with_secured_measurements: measurement is untaken, "
               "inaccessible, or already statically secured");
  }
  return run(secured_assumptions({}, securedMeasurements), budget);
}

VerificationResult UfdiAttackModel::verify_delta(const ScenarioDelta& delta,
                                                 const smt::Budget& budget) {
  PSSE_CHECK(mode_ == EncodeMode::kBase,
             "verify_delta: model was not constructed in EncodeMode::kBase");
  for (BusId t : delta.target_states) {
    PSSE_CHECK(t >= 0 && t < grid_.num_buses(),
               "verify_delta: target state out of range");
    PSSE_CHECK(t != spec_.reference_bus,
               "verify_delta: the reference state cannot be attacked");
  }
  for (auto [a, bb] : delta.distinct_changes) {
    PSSE_CHECK(a >= 0 && a < grid_.num_buses() && bb >= 0 &&
                   bb < grid_.num_buses(),
               "verify_delta: distinct-change bus out of range");
  }
  // The delta lives in its own push frame: pop() retracts its constraints
  // but keeps the learnt-clause database (clauses tagged at or below the
  // base frame survive — DESIGN.md §6e), which is what makes the next
  // delta of the family start warm.
  solver_.push();
  VerificationResult out;
  try {
    assert_delta(delta);
    out = run(
        secured_assumptions(delta.secured_buses, delta.secured_measurements),
        budget);
  } catch (...) {
    solver_.pop();
    throw;
  }
  solver_.pop();
  return out;
}

std::vector<grid::MeasId> UfdiAttackModel::attackable_measurements() const {
  std::vector<MeasId> out;
  for (MeasId m = 0; m < plan_.num_potential(); ++m) {
    if (szv_[static_cast<std::size_t>(m)].valid()) out.push_back(m);
  }
  return out;
}

VerificationResult UfdiAttackModel::verify_with_secured_buses(
    const std::vector<BusId>& securedBuses, const smt::Budget& budget) {
  return run(secured_assumptions(securedBuses, {}), budget);
}

Rational UfdiAttackModel::line_total_delta(LineId i) const {
  const LinExpr& e = tot_[static_cast<std::size_t>(i)];
  Rational v = e.constant();
  for (const auto& [var, coeff] : e.terms()) {
    v += solver_.real_value(var) * coeff;
  }
  return v;
}

AttackVector UfdiAttackModel::extract_model() const {
  AttackVector out;
  const int b = grid_.num_buses();
  const int l = grid_.num_lines();
  out.delta_theta.resize(static_cast<std::size_t>(b));
  for (BusId j = 0; j < b; ++j) {
    out.delta_theta[static_cast<std::size_t>(j)] =
        solver_.real_value(dtheta_[static_cast<std::size_t>(j)]);
  }
  out.delta_z.assign(static_cast<std::size_t>(plan_.num_potential()),
                     Rational(0));
  std::vector<bool> busTouched(static_cast<std::size_t>(b), false);
  for (MeasId m = 0; m < plan_.num_potential(); ++m) {
    TermRef cz = cz_[static_cast<std::size_t>(m)];
    if (!cz.valid() || !solver_.bool_value(cz)) continue;
    out.altered_measurements.push_back(m);
    busTouched[static_cast<std::size_t>(plan_.residence_bus(m, grid_))] =
        true;
    grid::MeasInfo info = plan_.decode(m);
    switch (info.type) {
      case grid::MeasType::ForwardFlow:
        out.delta_z[static_cast<std::size_t>(m)] =
            line_total_delta(info.line);
        break;
      case grid::MeasType::BackwardFlow:
        out.delta_z[static_cast<std::size_t>(m)] =
            -line_total_delta(info.line);
        break;
      case grid::MeasType::Injection: {
        const LinExpr& e = dpb_[static_cast<std::size_t>(info.bus)];
        Rational v = e.constant();
        for (const auto& [var, coeff] : e.terms()) {
          v += solver_.real_value(var) * coeff;
        }
        out.delta_z[static_cast<std::size_t>(m)] = v;
        break;
      }
    }
  }
  for (BusId j = 0; j < b; ++j) {
    if (busTouched[static_cast<std::size_t>(j)]) {
      out.compromised_buses.push_back(j);
    }
  }
  for (LineId i = 0; i < l; ++i) {
    if (el_[static_cast<std::size_t>(i)].valid() &&
        solver_.bool_value(el_[static_cast<std::size_t>(i)])) {
      out.excluded_lines.push_back(i);
    }
    if (il_[static_cast<std::size_t>(i)].valid() &&
        solver_.bool_value(il_[static_cast<std::size_t>(i)])) {
      out.included_lines.push_back(i);
    }
  }
  return out;
}

}  // namespace psse::core
