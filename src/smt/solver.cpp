#include "smt/solver.h"

#include <algorithm>

#include "smt/bigint.h"
#include "smt/common.h"

namespace psse::smt {

namespace {

// Accounts an encode span to PhaseTimes::encode_us, but only for the
// outermost frame: encode() re-enters itself through Tseitin children and
// through assert_term's conjunct walk, and nested spans must not double
// count.
class EncodeSpan {
 public:
  EncodeSpan(bool enabled, int& depth, std::uint64_t& slot)
      : depth_(depth), slot_(slot), outermost_(enabled && depth == 0) {
    ++depth_;
    if (outermost_) start_ = obs::now_us();
  }
  EncodeSpan(const EncodeSpan&) = delete;
  EncodeSpan& operator=(const EncodeSpan&) = delete;
  ~EncodeSpan() {
    --depth_;
    if (outermost_) {
      slot_ += static_cast<std::uint64_t>(obs::now_us() - start_);
    }
  }

 private:
  int& depth_;
  std::uint64_t& slot_;
  bool outermost_;
  std::int64_t start_ = 0;
};

}  // namespace

Solver::Solver() { sat_.set_theory(this); }

Solver::Solver(const Solver& other)
    : TheoryClient(other),
      terms_(other.terms_),
      sat_(other.sat_),
      simplex_(other.simplex_),
      encoded_(other.encoded_),
      encoded_trail_(other.encoded_trail_),
      sat_to_atom_(other.sat_to_atom_),
      atoms_(other.atoms_),
      atom_sat_vars_(other.atom_sat_vars_),
      var_atoms_(other.var_atoms_),
      implied_(other.implied_),
      real_to_simplex_(other.real_to_simplex_),
      assert_marks_(other.assert_marks_),
      model_reals_(other.model_reals_),
      save_points_(other.save_points_),
      phase_times_(other.phase_times_),
      phase_timing_(other.phase_timing_),
      encode_depth_(other.encode_depth_),
      bigint_promotions_(other.bigint_promotions_) {
  // The copied cores still point at `other`: rebind them to this solver.
  sat_.set_theory(this);
  enable_phase_timing(phase_timing_);
}

void Solver::enable_phase_timing(bool on) {
  phase_timing_ = on;
  sat_.set_phase_times(on ? &phase_times_ : nullptr);
  simplex_.set_phase_times(on ? &phase_times_ : nullptr);
}

TVar Solver::simplex_var_for(const LinExpr& userExpr) {
  // Translate user-space real variables to simplex ids, creating on demand.
  auto ensure = [&](TVar user) {
    if (static_cast<std::size_t>(user) >= real_to_simplex_.size()) {
      real_to_simplex_.resize(static_cast<std::size_t>(user) + 1, kNoTVar);
    }
    TVar& sv = real_to_simplex_[static_cast<std::size_t>(user)];
    if (sv == kNoTVar) sv = simplex_.new_var(terms_.real_name(user));
    return sv;
  };
  if (userExpr.is_plain_var()) {
    return ensure(userExpr.terms()[0].first);
  }
  LinExpr translated;
  for (const auto& [v, c] : userExpr.terms()) {
    translated.add_term(ensure(v), c);
  }
  return simplex_.slack_for(translated);
}

Lit Solver::encode_node(std::int32_t index) {
  if (auto it = encoded_.find(index); it != encoded_.end()) return it->second;
  const TermNode& n = terms_.node(TermRef::node(index));
  Lit lit;
  switch (n.kind) {
    case TermKind::True: {
      Var v = sat_.new_var();
      sat_to_atom_.resize(static_cast<std::size_t>(sat_.num_vars()), -1);
      lit = Lit::pos(v);
      sat_.add_clause({lit});
      break;
    }
    case TermKind::BoolVar: {
      Var v = sat_.new_var();
      sat_to_atom_.resize(static_cast<std::size_t>(sat_.num_vars()), -1);
      lit = Lit::pos(v);
      break;
    }
    case TermKind::AtomLe:
    case TermKind::AtomLt: {
      Var v = sat_.new_var();
      sat_to_atom_.resize(static_cast<std::size_t>(sat_.num_vars()), -1);
      lit = Lit::pos(v);
      AtomInfo info;
      info.simplex_var = simplex_var_for(n.expr);
      info.is_lt = n.kind == TermKind::AtomLt;
      info.bound = n.bound;
      sat_to_atom_[static_cast<std::size_t>(v)] =
          static_cast<std::int32_t>(atoms_.size());
      TVar sv = info.simplex_var;
      if (static_cast<std::size_t>(sv) >= var_atoms_.size()) {
        var_atoms_.resize(static_cast<std::size_t>(sv) + 1);
      }
      var_atoms_[static_cast<std::size_t>(sv)].push_back(
          static_cast<std::int32_t>(atoms_.size()));
      simplex_.set_interesting(sv, true);
      atoms_.push_back(std::move(info));
      atom_sat_vars_.push_back(v);
      break;
    }
    case TermKind::And:
    case TermKind::Or: {
      // Tseitin with full equivalence (both polarities may occur).
      std::vector<Lit> childLits;
      childLits.reserve(n.children.size());
      for (TermRef c : n.children) childLits.push_back(encode(c));
      Var v = sat_.new_var();
      sat_to_atom_.resize(static_cast<std::size_t>(sat_.num_vars()), -1);
      lit = Lit::pos(v);
      if (n.kind == TermKind::And) {
        // v -> c_i ; (all c_i) -> v
        std::vector<Lit> big{lit};
        for (Lit c : childLits) {
          sat_.add_clause({~lit, c});
          big.push_back(~c);
        }
        sat_.add_clause(std::move(big));
      } else {
        // c_i -> v ; v -> (some c_i)
        std::vector<Lit> big{~lit};
        for (Lit c : childLits) {
          sat_.add_clause({~c, lit});
          big.push_back(c);
        }
        sat_.add_clause(std::move(big));
      }
      break;
    }
  }
  encoded_.emplace(index, lit);
  encoded_trail_.push_back(index);
  return lit;
}

Lit Solver::encode(TermRef t) {
  PSSE_CHECK(t.valid(), "encode: invalid term");
  EncodeSpan span(phase_timing_, encode_depth_, phase_times_.encode_us);
  Lit l = encode_node(t.index());
  return t.negated() ? ~l : l;
}

int Solver::probe_term(TermRef t) {
  PSSE_CHECK(t.valid(), "probe_term: invalid term");
  return sat_.probe_literal(encode(t));
}

double Solver::term_activity(TermRef t) {
  PSSE_CHECK(t.valid(), "term_activity: invalid term");
  return sat_.var_activity(encode(t).var());
}

void Solver::assert_term(TermRef t) {
  PSSE_CHECK(t.valid(), "assert_term: invalid term");
  if (t == terms_.mk_true()) return;
  if (t == terms_.mk_false()) {
    sat_.add_clause({});
    return;
  }
  const TermNode& n = terms_.node(t);
  if (!t.negated() && n.kind == TermKind::And) {
    // Top-level conjunctions are asserted child by child — keeps Tseitin
    // auxiliaries out of the common case of big constraint conjunctions.
    for (TermRef c : n.children) assert_term(c);
    return;
  }
  if (!t.negated() && n.kind == TermKind::Or) {
    // Top-level disjunction: one clause over child encodings.
    std::vector<Lit> clause;
    clause.reserve(n.children.size());
    for (TermRef c : n.children) clause.push_back(encode(c));
    sat_.add_clause(std::move(clause));
    return;
  }
  sat_.add_clause({encode(t)});
}

void Solver::add_at_most(const std::vector<TermRef>& bools, std::uint32_t k) {
  std::vector<Lit> lits;
  lits.reserve(bools.size());
  for (TermRef t : bools) lits.push_back(encode(t));
  sat_.add_at_most(std::move(lits), k);
}

void Solver::add_at_least(const std::vector<TermRef>& bools,
                          std::uint32_t k) {
  std::vector<Lit> lits;
  lits.reserve(bools.size());
  for (TermRef t : bools) lits.push_back(encode(t));
  sat_.add_at_least(std::move(lits), k);
}

void Solver::push() {
  sat_.push();
  save_points_.push_back({encoded_trail_.size(), atom_sat_vars_.size()});
}

void Solver::pop() {
  PSSE_CHECK(!save_points_.empty(), "Solver::pop without push");
  SavePoint sp = save_points_.back();
  save_points_.pop_back();
  sat_.pop();  // retracts all theory bounds via pop_to_assertion_count(0)
  // Drop encodings whose SAT variables no longer exist.
  while (encoded_trail_.size() > sp.encoded_trail) {
    encoded_.erase(encoded_trail_.back());
    encoded_trail_.pop_back();
  }
  while (atom_sat_vars_.size() > sp.atom_trail) {
    atom_sat_vars_.pop_back();
    TVar sv = atoms_.back().simplex_var;
    auto& va = var_atoms_[static_cast<std::size_t>(sv)];
    PSSE_ASSERT(!va.empty() && static_cast<std::size_t>(va.back()) ==
                                   atoms_.size() - 1);
    va.pop_back();
    if (va.empty()) simplex_.set_interesting(sv, false);
    atoms_.pop_back();
  }
  sat_to_atom_.resize(static_cast<std::size_t>(sat_.num_vars()), -1);
  // Simplex variables/rows created after the push stay allocated but are
  // unbounded and unreferenced — harmless, and slack sharing may revive
  // them after a re-push.
}

SolveResult Solver::solve(const std::vector<TermRef>& assumptions,
                          const Budget& budget) {
  std::vector<Lit> lits;
  lits.reserve(assumptions.size());
  for (TermRef t : assumptions) lits.push_back(encode(t));
  const std::uint64_t promotionsBefore = bigint_promotions();
  const SolveResult r = sat_.solve(lits, budget);
  bigint_promotions_ += bigint_promotions() - promotionsBefore;
  return r;
}

bool Solver::bool_value(TermRef t) const {
  PSSE_CHECK(t.valid(), "bool_value: invalid term");
  auto it = encoded_.find(t.index());
  if (it != encoded_.end()) {
    bool v = sat_.model_value(it->second.var()) != it->second.negated();
    return t.negated() ? !v : v;
  }
  // Structural evaluation for terms that were never encoded.
  const TermNode& n = terms_.node(t);
  bool v = false;
  switch (n.kind) {
    case TermKind::True:
      v = true;
      break;
    case TermKind::BoolVar:
      // Unconstrained boolean: any value works; report false.
      v = false;
      break;
    case TermKind::And: {
      v = true;
      for (TermRef c : n.children) v = v && bool_value(c);
      break;
    }
    case TermKind::Or: {
      v = false;
      for (TermRef c : n.children) v = v || bool_value(c);
      break;
    }
    case TermKind::AtomLe:
    case TermKind::AtomLt: {
      Rational lhs;
      for (const auto& [var, coeff] : n.expr.terms()) {
        lhs += real_value(var) * coeff;
      }
      v = n.kind == TermKind::AtomLe ? lhs <= n.bound : lhs < n.bound;
      break;
    }
  }
  return t.negated() ? !v : v;
}

Rational Solver::real_value(TVar v) const {
  PSSE_CHECK(v >= 0 && v < terms_.num_reals(), "real_value: unknown variable");
  if (static_cast<std::size_t>(v) >= real_to_simplex_.size() ||
      real_to_simplex_[static_cast<std::size_t>(v)] == kNoTVar) {
    return Rational(0);  // variable never constrained
  }
  TVar sv = real_to_simplex_[static_cast<std::size_t>(v)];
  if (static_cast<std::size_t>(sv) < model_reals_.size()) {
    return model_reals_[static_cast<std::size_t>(sv)];
  }
  return Rational(0);
}

SolverStats Solver::counters() const {
  SolverStats st;
  st.sat = sat_.stats();
  st.pivots = simplex_.num_pivots();
  st.bound_flips = simplex_.num_bound_flips();
  st.bland_fallbacks = simplex_.num_bland_fallbacks();
  st.float_pivots = simplex_.num_float_pivots();
  st.exact_recomputes = simplex_.num_exact_recomputes();
  st.filter_disagreements = simplex_.num_filter_disagreements();
  st.filter_fallbacks = simplex_.num_filter_fallbacks();
  st.eta_updates = simplex_.num_eta_updates();
  st.refactorisations = simplex_.num_refactorisations();
  st.eta_file_len_max = simplex_.eta_file_len_max();
  st.bigint_promotions = bigint_promotions_;
  return st;
}

SolverStats Solver::stats() const {
  SolverStats st = counters();
  st.num_terms = terms_.num_nodes();
  st.num_atoms = atoms_.size();
  st.num_bool_vars = static_cast<std::size_t>(sat_.num_vars());
  st.num_real_vars = static_cast<std::size_t>(simplex_.num_vars());
  st.footprint_bytes = sat_.footprint_bytes() + simplex_.footprint_bytes() +
                       terms_.footprint_bytes();
  st.arena_capacity_bytes = sat_.arena_capacity_bytes();
  st.arena_live_bytes = sat_.arena_live_bytes();
  return st;
}

// --- TheoryClient ---

bool Solver::is_theory_var(Var v) const {
  return static_cast<std::size_t>(v) < sat_to_atom_.size() &&
         sat_to_atom_[static_cast<std::size_t>(v)] >= 0;
}

bool Solver::on_assert(Lit lit) {
  const AtomInfo& atom =
      atoms_[static_cast<std::size_t>(
          sat_to_atom_[static_cast<std::size_t>(lit.var())])];
  assert_marks_.push_back(simplex_.trail_size());
  if (!lit.negated()) {
    // Atom holds: expr <= c (or < c).
    DeltaRational bound = atom.is_lt
                              ? DeltaRational::minus_delta(atom.bound)
                              : DeltaRational(atom.bound);
    return simplex_.assert_upper(atom.simplex_var, bound, lit);
  }
  // Atom fails: expr > c (or >= c).
  DeltaRational bound = atom.is_lt
                            ? DeltaRational(atom.bound)
                            : DeltaRational::plus_delta(atom.bound);
  return simplex_.assert_lower(atom.simplex_var, bound, lit);
}

bool Solver::check(bool /*final*/) { return simplex_.check(); }

std::vector<Lit> Solver::conflict_explanation() {
  return simplex_.conflict_clause();
}

void Solver::propagate(std::vector<TheoryPropagation>& out) {
  implied_.clear();
  simplex_.propagate_implied(implied_);
  for (const Simplex::ImpliedBound& ib : implied_) {
    // Translate the bound through every atom over the same simplex
    // variable. Atom truth means expr <= c (c - delta for strict atoms):
    // an implied upper bound B forces the atom true when B <= c, an
    // implied lower bound B forces it false when c < B.
    for (std::int32_t atomIdx : var_atoms_[static_cast<std::size_t>(ib.var)]) {
      const AtomInfo& atom = atoms_[static_cast<std::size_t>(atomIdx)];
      const Var sv = atom_sat_vars_[static_cast<std::size_t>(atomIdx)];
      const DeltaRational atomBound =
          atom.is_lt ? DeltaRational::minus_delta(atom.bound)
                     : DeltaRational(atom.bound);
      Lit forced;
      if (ib.is_upper) {
        if (!(ib.bound <= atomBound)) continue;
        forced = Lit::pos(sv);
      } else {
        if (!(atomBound < ib.bound)) continue;
        forced = Lit::neg(sv);
      }
      // Skip atoms the SAT core already assigned: the common case, and it
      // saves copying the premise set.
      if (sat_.value_of(forced) != LBool::Undef) continue;
      out.push_back({forced, ib.premises});
    }
  }
}

void Solver::pop_to_assertion_count(std::size_t n) {
  if (n >= assert_marks_.size()) return;
  simplex_.pop_to(assert_marks_[n]);
  assert_marks_.resize(n);
}

void Solver::on_model() {
  model_reals_.assign(static_cast<std::size_t>(simplex_.num_vars()),
                      Rational(0));
  for (TVar sv = 0; sv < simplex_.num_vars(); ++sv) {
    model_reals_[static_cast<std::size_t>(sv)] = simplex_.model_value(sv);
  }
}

}  // namespace psse::smt
