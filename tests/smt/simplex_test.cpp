// Tests for the LRA simplex: bound assertion, pivoting, conflicts with
// explanations, strict bounds via delta-rationals, and trail retraction.
#include "smt/simplex.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

namespace psse::smt {
namespace {

Lit tag(int i) { return Lit::pos(static_cast<Var>(i)); }

TEST(Simplex, UnconstrainedIsFeasible) {
  Simplex s;
  s.new_var();
  s.new_var();
  EXPECT_TRUE(s.check());
}

TEST(Simplex, SimpleBoundsSatisfied) {
  Simplex s;
  TVar x = s.new_var("x");
  EXPECT_TRUE(s.assert_lower(x, DeltaRational(Rational(2)), tag(0)));
  EXPECT_TRUE(s.assert_upper(x, DeltaRational(Rational(5)), tag(1)));
  ASSERT_TRUE(s.check());
  Rational v = s.model_value(x);
  EXPECT_GE(v, Rational(2));
  EXPECT_LE(v, Rational(5));
}

TEST(Simplex, ImmediateBoundConflict) {
  Simplex s;
  TVar x = s.new_var("x");
  EXPECT_TRUE(s.assert_lower(x, DeltaRational(Rational(5)), tag(0)));
  EXPECT_FALSE(s.assert_upper(x, DeltaRational(Rational(3)), tag(1)));
  // Conflict clause mentions both bound literals, negated.
  auto confl = s.conflict_clause();
  ASSERT_EQ(confl.size(), 2u);
  EXPECT_EQ(confl[0], ~tag(1));
  EXPECT_EQ(confl[1], ~tag(0));
}

TEST(Simplex, RowFeasibilityByPivoting) {
  // s = x + y; x >= 3, y >= 4  =>  s >= 7, so s <= 6 is infeasible.
  Simplex s;
  TVar x = s.new_var("x");
  TVar y = s.new_var("y");
  LinExpr e;
  e.add_term(x, Rational(1));
  e.add_term(y, Rational(1));
  TVar sum = s.slack_for(e);
  EXPECT_TRUE(s.assert_lower(x, DeltaRational(Rational(3)), tag(0)));
  EXPECT_TRUE(s.assert_lower(y, DeltaRational(Rational(4)), tag(1)));
  EXPECT_TRUE(s.assert_upper(sum, DeltaRational(Rational(6)), tag(2)));
  EXPECT_FALSE(s.check());
  auto confl = s.conflict_clause();
  // All three bounds participate.
  EXPECT_EQ(confl.size(), 3u);
}

TEST(Simplex, RowFeasibleCase) {
  Simplex s;
  TVar x = s.new_var("x");
  TVar y = s.new_var("y");
  LinExpr e;
  e.add_term(x, Rational(1));
  e.add_term(y, Rational(1));
  TVar sum = s.slack_for(e);
  EXPECT_TRUE(s.assert_lower(x, DeltaRational(Rational(3)), tag(0)));
  EXPECT_TRUE(s.assert_lower(y, DeltaRational(Rational(4)), tag(1)));
  EXPECT_TRUE(s.assert_upper(sum, DeltaRational(Rational(9)), tag(2)));
  ASSERT_TRUE(s.check());
  EXPECT_EQ(s.model_value(sum), s.model_value(x) + s.model_value(y));
  EXPECT_LE(s.model_value(sum), Rational(9));
}

TEST(Simplex, SharedSlackForProportionalExpressions) {
  Simplex s;
  TVar x = s.new_var("x");
  TVar y = s.new_var("y");
  LinExpr e;
  e.add_term(x, Rational(1));
  e.add_term(y, Rational(2));
  TVar s1 = s.slack_for(e);
  TVar s2 = s.slack_for(e);
  EXPECT_EQ(s1, s2);
}

TEST(Simplex, StrictBoundsSeparate) {
  // x > 0 and x < 1 has rational solutions; model must satisfy both
  // strictly.
  Simplex s;
  TVar x = s.new_var("x");
  EXPECT_TRUE(
      s.assert_lower(x, DeltaRational::plus_delta(Rational(0)), tag(0)));
  EXPECT_TRUE(
      s.assert_upper(x, DeltaRational::minus_delta(Rational(1)), tag(1)));
  ASSERT_TRUE(s.check());
  Rational v = s.model_value(x);
  EXPECT_GT(v, Rational(0));
  EXPECT_LT(v, Rational(1));
}

TEST(Simplex, StrictConflictAtEquality) {
  // x >= 1 and x < 1: infeasible only because of strictness.
  Simplex s;
  TVar x = s.new_var("x");
  EXPECT_TRUE(s.assert_lower(x, DeltaRational(Rational(1)), tag(0)));
  EXPECT_FALSE(
      s.assert_upper(x, DeltaRational::minus_delta(Rational(1)), tag(1)));
}

TEST(Simplex, EqualityChainPropagation) {
  // d = a(t1 - t2) with a = 169/10: the paper's line-flow equation shape.
  Simplex s;
  TVar t1 = s.new_var("t1");
  TVar t2 = s.new_var("t2");
  TVar d = s.new_var("d");
  Rational a(169, 10);
  LinExpr e;  // d - a*t1 + a*t2 == 0
  e.add_term(d, Rational(1));
  e.add_term(t1, -a);
  e.add_term(t2, a);
  TVar slack = s.slack_for(e);
  EXPECT_TRUE(s.assert_lower(slack, DeltaRational(Rational(0)), tag(0)));
  EXPECT_TRUE(s.assert_upper(slack, DeltaRational(Rational(0)), tag(1)));
  // Pin t1 = 1/2, t2 = 0.
  EXPECT_TRUE(s.assert_lower(t1, DeltaRational(Rational(1, 2)), tag(2)));
  EXPECT_TRUE(s.assert_upper(t1, DeltaRational(Rational(1, 2)), tag(3)));
  EXPECT_TRUE(s.assert_lower(t2, DeltaRational(Rational(0)), tag(4)));
  EXPECT_TRUE(s.assert_upper(t2, DeltaRational(Rational(0)), tag(5)));
  ASSERT_TRUE(s.check());
  EXPECT_EQ(s.model_value(d), Rational(169, 20));
}

TEST(Simplex, PopRestoresFeasibility) {
  Simplex s;
  TVar x = s.new_var("x");
  EXPECT_TRUE(s.assert_lower(x, DeltaRational(Rational(0)), tag(0)));
  std::size_t mark = s.trail_size();
  EXPECT_TRUE(s.assert_upper(x, DeltaRational(Rational(10)), tag(1)));
  EXPECT_FALSE(s.assert_upper(x, DeltaRational(Rational(-1)), tag(2)));
  s.pop_to(mark);
  ASSERT_TRUE(s.check());
  // Upper bound gone: x can exceed 10 again.
  EXPECT_TRUE(s.assert_lower(x, DeltaRational(Rational(100)), tag(3)));
  EXPECT_TRUE(s.check());
  EXPECT_GE(s.model_value(x), Rational(100));
}

TEST(Simplex, RedundantBoundsLeaveNoTrail) {
  Simplex s;
  TVar x = s.new_var("x");
  EXPECT_TRUE(s.assert_upper(x, DeltaRational(Rational(5)), tag(0)));
  std::size_t before = s.trail_size();
  EXPECT_TRUE(s.assert_upper(x, DeltaRational(Rational(7)), tag(1)));
  EXPECT_EQ(s.trail_size(), before);
}

// Property: random bounded systems A*x ⋈ b agree with a dense
// floating-point feasibility oracle based on exhaustive vertex search is
// overkill; instead verify internal consistency — whenever check() says
// feasible, the model satisfies every constraint exactly.
TEST(Simplex, PropertyModelSatisfiesAllConstraints) {
  std::mt19937_64 rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    Simplex s;
    int n = 3 + static_cast<int>(rng() % 4);
    std::vector<TVar> vars;
    for (int i = 0; i < n; ++i) vars.push_back(s.new_var());
    struct Constraint {
      LinExpr e;
      bool upper;
      Rational bound;
      TVar slack;
    };
    std::vector<Constraint> cs;
    bool feasible = true;
    int tagId = 0;
    int m = 2 + static_cast<int>(rng() % 8);
    for (int c = 0; c < m && feasible; ++c) {
      LinExpr e;
      for (int i = 0; i < n; ++i) {
        int coeff = static_cast<int>(rng() % 7) - 3;
        if (coeff != 0) e.add_term(vars[i], Rational(coeff));
      }
      if (e.is_constant()) continue;
      Rational b(static_cast<int>(rng() % 21) - 10);
      bool upper = (rng() & 1) != 0;
      TVar sv = s.slack_for(e);
      bool okA = upper ? s.assert_upper(sv, DeltaRational(b),
                                        tag(tagId++))
                       : s.assert_lower(sv, DeltaRational(b), tag(tagId++));
      if (!okA) {
        feasible = false;
        break;
      }
      cs.push_back({e, upper, b, sv});
      if (!s.check()) {
        feasible = false;
        break;
      }
    }
    if (!feasible) continue;
    for (const auto& c : cs) {
      Rational lhs;
      for (const auto& [v, coeff] : c.e.terms()) {
        lhs += s.model_value(v) * coeff;
      }
      if (c.upper) {
        EXPECT_LE(lhs, c.bound) << "iter=" << iter;
      } else {
        EXPECT_GE(lhs, c.bound) << "iter=" << iter;
      }
      EXPECT_EQ(lhs, s.model_value(c.slack));
    }
  }
}

TEST(Simplex, NonFiniteFloatScoresNeverChangeTheVerdict) {
  // A bound beyond double range (2 * 10^308) overflows the float mirror to
  // inf, so pivot scoring sees non-finite violation amounts. The guard
  // must count the poisoned score and fall back to the exact path — with
  // verdicts identical across both filter modes, and no fabricated
  // conflict from a skipped candidate.
  const Rational huge =
      Rational::from_string("2" + std::string(308, '0'));
  for (const bool filter : {true, false}) {
    Simplex s;
    SimplexOptions opt;
    opt.float_filter = filter;
    s.set_options(opt);
    TVar x = s.new_var("x");
    TVar y = s.new_var("y");
    LinExpr e;
    e.add_term(x, Rational(1));
    e.add_term(y, Rational(1));
    TVar sum = s.slack_for(e);
    EXPECT_TRUE(s.assert_lower(sum, DeltaRational(huge), tag(0)));
    // Unbounded x/y: x + y >= 2e308 is exactly feasible, inf scores or not.
    ASSERT_TRUE(s.check()) << "filter=" << filter;
    EXPECT_GE(s.model_value(x) + s.model_value(y), huge);
    // Capping both variables far below the bound flips it to a proof of
    // infeasibility, which must come from the exact tableau.
    EXPECT_TRUE(s.assert_upper(x, DeltaRational(Rational(100000)), tag(1)));
    EXPECT_FALSE(s.assert_upper(y, DeltaRational(Rational(100000)), tag(2)) &&
                 s.check())
        << "filter=" << filter;
    if (filter) {
      EXPECT_GE(s.num_filter_disagreements(), 1u)
          << "inf score was not counted";
    }
  }
}

// --- Blocking columns -------------------------------------------------------
// A row side that fails to derive on an unbounded column remembers that
// column and skips later attempts until the column gets the bound it lacks.
// Each test drives one way such a blocker goes stale and demands the bound
// an uncached derivation emits, in every float-filter x eta mode.

std::vector<SimplexOptions> all_modes() {
  std::vector<SimplexOptions> modes;
  for (const bool filter : {true, false}) {
    for (const bool eta : {true, false}) {
      SimplexOptions opt;
      opt.float_filter = filter;
      opt.eta_tableau = eta;
      modes.push_back(opt);
    }
  }
  return modes;
}

std::string mode_name(const SimplexOptions& opt) {
  return std::string(opt.float_filter ? "filter" : "exact") +
         (opt.eta_tableau ? "/eta" : "/eager");
}

LinExpr sum_of(TVar a, TVar b) {
  LinExpr e;
  e.add_term(a, Rational(1));
  e.add_term(b, Rational(1));
  return e;
}

// The implied bounds of one drain after a feasible check.
std::vector<Simplex::ImpliedBound> drain(Simplex& s) {
  EXPECT_TRUE(s.check());
  std::vector<Simplex::ImpliedBound> out;
  s.propagate_implied(out);
  return out;
}

// Index of the implied bound `v <= value` (`>=` when !upper) in `out`, or
// -1 when the drain did not emit it.
std::ptrdiff_t position(const std::vector<Simplex::ImpliedBound>& out, TVar v,
                        bool upper, std::int64_t value) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i].var == v && out[i].is_upper == upper &&
        out[i].bound == DeltaRational(Rational(value))) {
      return static_cast<std::ptrdiff_t>(i);
    }
  }
  return -1;
}

// The premises of that implied bound, or nullptr when it was not emitted.
const std::vector<Lit>* implied(const std::vector<Simplex::ImpliedBound>& out,
                                TVar v, bool upper, std::int64_t value) {
  const std::ptrdiff_t i = position(out, v, upper, value);
  return i < 0 ? nullptr : &out[static_cast<std::size_t>(i)].premises;
}

std::vector<Lit> sorted(std::vector<Lit> lits) {
  std::sort(lits.begin(), lits.end(),
            [](Lit a, Lit b) { return a.code() < b.code(); });
  return lits;
}

TEST(SimplexBlocker, BlockerColumnGettingItsBoundReopensTheRow) {
  for (const SimplexOptions& opt : all_modes()) {
    SCOPED_TRACE(mode_name(opt));
    Simplex s;
    s.set_options(opt);
    const TVar x = s.new_var("x");
    const TVar y = s.new_var("y");
    const TVar sum = s.slack_for(sum_of(x, y));
    s.set_interesting(sum, true);
    EXPECT_TRUE(drain(s).empty());  // both sides fail on x
    ASSERT_TRUE(s.assert_upper(x, DeltaRational(Rational(1)), tag(0)));
    EXPECT_TRUE(drain(s).empty());  // the upper side now fails on y
    // Blocked on both sides (upper on y, lower on x): y's lower bound feeds
    // the lower side, which still fails on x.
    ASSERT_TRUE(s.assert_lower(y, DeltaRational(Rational(-5)), tag(1)));
    EXPECT_TRUE(drain(s).empty());
    // y's upper bound is the one the upper side lacked.
    ASSERT_TRUE(s.assert_upper(y, DeltaRational(Rational(2)), tag(2)));
    const std::vector<Simplex::ImpliedBound> out = drain(s);
    const std::vector<Lit>* premises = implied(out, sum, true, 3);
    ASSERT_NE(premises, nullptr) << "sum <= 3 not derived";
    EXPECT_EQ(sorted(*premises), sorted({tag(0), tag(2)}));
  }
}

TEST(SimplexBlocker, PopThenReassertingTheBlockerBoundReopensTheRow) {
  for (const SimplexOptions& opt : all_modes()) {
    SCOPED_TRACE(mode_name(opt));
    Simplex s;
    s.set_options(opt);
    const TVar x = s.new_var("x");
    const TVar y = s.new_var("y");
    const TVar sum = s.slack_for(sum_of(x, y));
    s.set_interesting(sum, true);
    ASSERT_TRUE(s.assert_upper(x, DeltaRational(Rational(1)), tag(0)));
    EXPECT_TRUE(drain(s).empty());  // upper fails on y, lower on x
    const std::size_t mark = s.trail_size();
    ASSERT_TRUE(s.assert_upper(y, DeltaRational(Rational(2)), tag(1)));
    EXPECT_NE(implied(drain(s), sum, true, 3), nullptr);
    // Retracted, y's upper bound blocks the upper side again: an event on
    // the row derives nothing.
    s.pop_to(mark);
    ASSERT_TRUE(s.assert_lower(y, DeltaRational(Rational(-5)), tag(2)));
    EXPECT_TRUE(drain(s).empty());
    // The same bound asserted again must reopen the upper side.
    ASSERT_TRUE(s.assert_upper(y, DeltaRational(Rational(2)), tag(1)));
    const std::vector<Simplex::ImpliedBound> out = drain(s);
    const std::vector<Lit>* premises = implied(out, sum, true, 3);
    ASSERT_NE(premises, nullptr) << "sum <= 3 not derived after pop_to";
    EXPECT_EQ(sorted(*premises), sorted({tag(0), tag(1)}));
  }
}

TEST(SimplexBlocker, PivotRewritingTheRowDropsItsBlockers) {
  for (const SimplexOptions& opt : all_modes()) {
    SCOPED_TRACE(mode_name(opt));
    Simplex s;
    s.set_options(opt);
    const TVar x = s.new_var("x");
    const TVar y = s.new_var("y");
    const TVar z = s.new_var("z");
    const TVar a = s.slack_for(sum_of(x, y));  // pivot row
    const TVar b = s.slack_for(sum_of(x, z));  // dependent row
    s.set_interesting(a, true);
    s.set_interesting(b, true);
    s.set_interesting(x, true);
    drain(s);  // every side of both rows fails on x
    ASSERT_TRUE(s.assert_upper(y, DeltaRational(Rational(0)), tag(0)));
    ASSERT_TRUE(s.assert_lower(z, DeltaRational(Rational(1)), tag(1)));
    EXPECT_TRUE(drain(s).empty());
    // a >= 5 with y stuck at its upper bound 0: x enters on a's row, which
    // becomes x = a - y, and b's row becomes b = a - y + z. Neither new row
    // mentions x, so blockers on x would hide both derivations.
    ASSERT_TRUE(s.assert_lower(a, DeltaRational(Rational(5)), tag(2)));
    const std::vector<Simplex::ImpliedBound> out = drain(s);
    ASSERT_EQ(s.num_pivots(), 1u);
    const std::vector<Lit>* onX = implied(out, x, false, 5);
    ASSERT_NE(onX, nullptr) << "x >= 5 not derived from the pivot row";
    EXPECT_EQ(sorted(*onX), sorted({tag(0), tag(2)}));
    const std::vector<Lit>* onB = implied(out, b, false, 6);
    ASSERT_NE(onB, nullptr) << "b >= 6 not derived from the dependent row";
    EXPECT_EQ(sorted(*onB), sorted({tag(0), tag(1), tag(2)}));
  }
}

TEST(SimplexBlocker, RefactorisationKeepsBlockedRowsReachable) {
  // A refactorisation rebuilds every mirror and the column index. It keeps
  // each row's exact terms, so a blocked row stays blocked until its
  // blocker column gets the bound it lacks, and that assertion must still
  // find the row through the rebuilt index.
  for (SimplexOptions opt : all_modes()) {
    SCOPED_TRACE(mode_name(opt));
    opt.eta_refactor_len = 1;  // every pivot refactorises
    Simplex s;
    s.set_options(opt);
    const TVar x = s.new_var("x");
    const TVar y = s.new_var("y");
    const TVar u = s.new_var("u");
    const TVar v = s.new_var("v");
    const TVar a = s.slack_for(sum_of(x, y));
    const TVar c = s.slack_for(sum_of(u, v));
    s.set_interesting(c, true);
    EXPECT_TRUE(drain(s).empty());  // both sides of c's row fail on u
    ASSERT_TRUE(s.assert_upper(v, DeltaRational(Rational(2)), tag(0)));
    EXPECT_TRUE(drain(s).empty());
    ASSERT_TRUE(s.assert_upper(y, DeltaRational(Rational(0)), tag(1)));
    ASSERT_TRUE(s.assert_lower(a, DeltaRational(Rational(5)), tag(2)));
    EXPECT_TRUE(drain(s).empty());
    ASSERT_EQ(s.num_pivots(), 1u);
    ASSERT_EQ(s.num_refactorisations(), 1u);
    ASSERT_TRUE(s.assert_upper(u, DeltaRational(Rational(1)), tag(3)));
    const std::vector<Simplex::ImpliedBound> out = drain(s);
    const std::vector<Lit>* premises = implied(out, c, true, 3);
    ASSERT_NE(premises, nullptr) << "c <= 3 not derived after refactorising";
    EXPECT_EQ(sorted(*premises), sorted({tag(0), tag(3)}));
  }
}

TEST(SimplexBlocker, BlockedRowKeepsItsPlaceInTheDrainOrder) {
  // The CDCL core sees implied bounds in drain order, which steers its
  // search, so a row blocked at its first column event must still drain
  // before rows first touched after it.
  for (const SimplexOptions& opt : all_modes()) {
    SCOPED_TRACE(mode_name(opt));
    Simplex s;
    s.set_options(opt);
    const TVar x = s.new_var("x");
    const TVar y = s.new_var("y");
    const TVar p = s.new_var("p");
    const TVar q = s.new_var("q");
    const TVar first = s.slack_for(sum_of(x, y));
    const TVar second = s.slack_for(sum_of(p, q));
    s.set_interesting(first, true);
    s.set_interesting(second, true);
    EXPECT_TRUE(drain(s).empty());  // both rows blocked on both sides
    ASSERT_TRUE(s.assert_upper(y, DeltaRational(Rational(2)), tag(0)));
    ASSERT_TRUE(s.assert_upper(p, DeltaRational(Rational(1)), tag(1)));
    ASSERT_TRUE(s.assert_upper(q, DeltaRational(Rational(1)), tag(2)));
    ASSERT_TRUE(s.assert_upper(x, DeltaRational(Rational(1)), tag(3)));
    const std::vector<Simplex::ImpliedBound> out = drain(s);
    const std::ptrdiff_t onFirst = position(out, first, true, 3);
    const std::ptrdiff_t onSecond = position(out, second, true, 2);
    ASSERT_GE(onFirst, 0);
    ASSERT_GE(onSecond, 0);
    EXPECT_LT(onFirst, onSecond);
  }
}

TEST(SimplexBlocker, MirrorArithmeticNeverProvesAnEntryZero) {
  // set_bound queues a row blocked on both sides without reading the
  // entry's sign. That keeps the drain order only if no mirror entry is
  // provably zero (value and error both 0), because such an entry does not
  // queue its row. Conversions and every operation carry an error floor.
  const DoubleApprox one = Rational(1).approx();
  const DoubleApprox minusOne = Rational(-1).approx();
  EXPECT_GT(Rational(0).approx().error, 0.0);
  EXPECT_GT((one + minusOne).error, 0.0);
  EXPECT_GT((one - one).error, 0.0);
  EXPECT_GT((DoubleApprox::exact(0.0) * one).error, 0.0);
  DoubleApprox cancelled = one;
  cancelled.add_mul(one, minusOne);
  EXPECT_EQ(cancelled.value, 0.0);
  EXPECT_GT(cancelled.error, 0.0);
}

}  // namespace
}  // namespace psse::smt
