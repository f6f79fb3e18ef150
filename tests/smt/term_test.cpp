// Unit tests for the term DAG (hash-consing, simplification, atoms) and
// the linear-expression algebra.
#include "smt/term.h"

#include <gtest/gtest.h>

#include "smt/common.h"

namespace psse::smt {
namespace {

TEST(LinExpr, TermAlgebra) {
  LinExpr a;
  a.add_term(0, Rational(2));
  a.add_term(2, Rational(3));
  LinExpr b;
  b.add_term(1, Rational(5));
  b.add_term(2, Rational(-3));
  LinExpr sum = a + b;
  ASSERT_EQ(sum.terms().size(), 2u);  // var 2 cancelled
  EXPECT_EQ(sum.terms()[0].first, 0);
  EXPECT_EQ(sum.terms()[0].second, Rational(2));
  EXPECT_EQ(sum.terms()[1].first, 1);
  LinExpr zero = a - a;
  EXPECT_TRUE(zero.is_constant());
  LinExpr scaled = a * Rational(1, 2);
  EXPECT_EQ(scaled.terms()[0].second, Rational(1));
  EXPECT_TRUE((a * Rational(0)).is_constant());
}

TEST(LinExpr, AddTermMergesAndCancels) {
  LinExpr e;
  e.add_term(3, Rational(1));
  e.add_term(1, Rational(2));
  e.add_term(3, Rational(-1));  // cancels
  ASSERT_EQ(e.terms().size(), 1u);
  EXPECT_EQ(e.terms()[0].first, 1);
  e.add_constant(Rational(4));
  EXPECT_EQ(e.constant(), Rational(4));
  EXPECT_FALSE(e.is_plain_var());
}

TEST(LinExpr, NormalizedFactorsOutLeadingCoefficient) {
  LinExpr e;
  e.add_term(0, Rational(-2));
  e.add_term(1, Rational(4));
  e.add_constant(Rational(6));
  LinExprNormalized n = e.normalized();
  EXPECT_EQ(n.scale, Rational(-2));
  EXPECT_EQ(n.offset, Rational(6));
  EXPECT_EQ(n.expr.terms()[0].second, Rational(1));
  EXPECT_EQ(n.expr.terms()[1].second, Rational(-2));
  EXPECT_TRUE(n.expr.constant().is_zero());
  EXPECT_THROW(LinExpr(Rational(3)).normalized(), SmtError);
}

TEST(TermManager, ConstantsAndNegation) {
  TermManager t;
  EXPECT_EQ(t.mk_false(), ~t.mk_true());
  EXPECT_EQ(~~t.mk_true(), t.mk_true());
  TermRef b = t.mk_bool("b");
  EXPECT_EQ(~~b, b);
  EXPECT_NE(~b, b);
}

TEST(TermManager, AndOrSimplification) {
  TermManager t;
  TermRef a = t.mk_bool("a");
  TermRef b = t.mk_bool("b");
  EXPECT_EQ(t.mk_and({}), t.mk_true());
  EXPECT_EQ(t.mk_or({}), t.mk_false());
  EXPECT_EQ(t.mk_and({a}), a);
  EXPECT_EQ(t.mk_and({a, t.mk_true()}), a);
  EXPECT_EQ(t.mk_and({a, t.mk_false()}), t.mk_false());
  EXPECT_EQ(t.mk_or({a, t.mk_true()}), t.mk_true());
  EXPECT_EQ(t.mk_and({a, ~a}), t.mk_false());
  EXPECT_EQ(t.mk_or({a, ~a}), t.mk_true());
  EXPECT_EQ(t.mk_and({a, a, b}), t.mk_and({b, a}));  // dedupe + commute
  // Flattening: and(a, and(a, b)) == and(a, b).
  EXPECT_EQ(t.mk_and({a, t.mk_and({a, b})}), t.mk_and({a, b}));
}

TEST(TermManager, HashConsingSharesStructure) {
  TermManager t;
  TermRef a = t.mk_bool("a");
  TermRef b = t.mk_bool("b");
  std::size_t before = t.num_nodes();
  TermRef x = t.mk_or({a, b});
  TermRef y = t.mk_or({b, a});
  EXPECT_EQ(x, y);
  EXPECT_EQ(t.num_nodes(), before + 1);
  // Distinct mk_bool calls are distinct variables even with equal names.
  EXPECT_NE(t.mk_bool("a"), a);
}

TEST(TermManager, DerivedConnectives) {
  TermManager t;
  TermRef a = t.mk_bool("a");
  TermRef b = t.mk_bool("b");
  EXPECT_EQ(t.mk_implies(a, b), t.mk_or({~a, b}));
  EXPECT_EQ(t.mk_iff(a, a), t.mk_true());
  EXPECT_EQ(t.mk_ite(t.mk_true(), a, b), a);
  EXPECT_EQ(t.mk_ite(t.mk_false(), a, b), b);
}

TEST(TermManager, AtomNormalisationSharesSlacks) {
  TermManager t;
  TVar x = t.mk_real("x");
  TVar y = t.mk_real("y");
  LinExpr e;  // 2x - 2y
  e.add_term(x, Rational(2));
  e.add_term(y, Rational(-2));
  LinExpr half;  // x - y
  half.add_term(x, Rational(1));
  half.add_term(y, Rational(-1));
  // 2x - 2y <= 4 and x - y <= 2 are the same atom after normalisation.
  EXPECT_EQ(t.mk_le(e, Rational(4)), t.mk_le(half, Rational(2)));
  // Negative leading coefficient flips into a negated atom.
  LinExpr neg = e * Rational(-1);
  TermRef ge = t.mk_le(neg, Rational(-4));  // -(2x-2y) <= -4  <=>  x-y >= 2
  EXPECT_EQ(ge, t.mk_ge(half, Rational(2)));
}

TEST(TermManager, AtomsHashByValueNotByConstruction) {
  // Atom interning hashes the expression and bound by value: the same
  // atom built from unreduced fractions, in another term order, or with a
  // limb-sized coefficient is one node.
  TermManager t;
  TVar x = t.mk_real("x");
  TVar y = t.mk_real("y");
  const Rational big = Rational::from_string("36893488147419103232");  // 2^65
  LinExpr e;  // x + 2^65/3 y
  e.add_term(x, Rational(1));
  e.add_term(y, big / Rational(3));
  LinExpr f;  // same, built the other way round
  f.add_term(y, (big * Rational(2)) / Rational(6));
  f.add_term(x, Rational(4, 4));
  EXPECT_EQ(e, f);
  EXPECT_EQ(e.hash(), f.hash());
  const std::size_t before = t.num_nodes();
  const TermRef a = t.mk_le(e, Rational(1, 2));
  EXPECT_EQ(t.mk_le(f, Rational(3, 6)), a);
  EXPECT_EQ(t.num_nodes(), before + 1);
}

TEST(TermManager, ConstantAtomsFold) {
  TermManager t;
  LinExpr c(Rational(3));
  EXPECT_EQ(t.mk_le(c, Rational(5)), t.mk_true());
  EXPECT_EQ(t.mk_le(c, Rational(2)), t.mk_false());
  EXPECT_EQ(t.mk_lt(c, Rational(3)), t.mk_false());
  EXPECT_EQ(t.mk_ge(c, Rational(3)), t.mk_true());
  EXPECT_EQ(t.mk_eq(c, Rational(3)), t.mk_true());
  EXPECT_EQ(t.mk_ne(c, Rational(3)), t.mk_false());
}

TEST(TermManager, EqAndNeExpand) {
  TermManager t;
  TVar x = t.mk_real("x");
  LinExpr e = LinExpr::var(x);
  TermRef eq = t.mk_eq(e, Rational(1));
  const TermNode& n = t.node(eq);
  EXPECT_EQ(n.kind, TermKind::And);
  TermRef ne = t.mk_ne(e, Rational(1));
  EXPECT_EQ(t.node(ne).kind, TermKind::Or);
  EXPECT_EQ(~eq, t.mk_not(eq));
}

TEST(TermManager, PrinterIsReadable) {
  TermManager t;
  TVar x = t.mk_real("x");
  TermRef p = t.mk_bool("p");
  TermRef f = t.mk_and({p, t.mk_le(LinExpr::var(x), Rational(3))});
  std::string s = t.to_string(f);
  EXPECT_NE(s.find("and"), std::string::npos);
  EXPECT_NE(s.find("p"), std::string::npos);
  EXPECT_NE(s.find("<="), std::string::npos);
}

}  // namespace
}  // namespace psse::smt
