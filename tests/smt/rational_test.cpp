// Unit and property tests for exact rationals and delta-rationals.
#include "smt/rational.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "smt/common.h"

namespace psse::smt {
namespace {

TEST(Rational, CanonicalForm) {
  Rational r(6, 4);
  EXPECT_EQ(r.num().to_int64(), 3);
  EXPECT_EQ(r.den().to_int64(), 2);
  Rational neg(3, -6);
  EXPECT_EQ(neg.num().to_int64(), -1);
  EXPECT_EQ(neg.den().to_int64(), 2);
  Rational zero(0, 7);
  EXPECT_TRUE(zero.is_zero());
  EXPECT_EQ(zero.den().to_int64(), 1);
}

TEST(Rational, ZeroDenominatorThrows) {
  EXPECT_THROW(Rational(1, 0), SmtError);
  EXPECT_THROW(Rational(1) / Rational(0), SmtError);
  EXPECT_THROW(Rational(0).inverse(), SmtError);
}

TEST(Rational, DecimalParsingIsExact) {
  // 16.90 == 169/10 — the paper's Table II admittances parse exactly.
  Rational r = Rational::from_decimal("16.90");
  EXPECT_EQ(r.num().to_int64(), 169);
  EXPECT_EQ(r.den().to_int64(), 10);
  EXPECT_EQ(Rational::from_decimal("-0.0125"), Rational(-1, 80));
  EXPECT_EQ(Rational::from_string("3/4"), Rational(3, 4));
  EXPECT_EQ(Rational::from_string("-7"), Rational(-7));
  EXPECT_EQ(Rational::from_string("0.5"), Rational(1, 2));
}

TEST(Rational, ParseErrors) {
  EXPECT_THROW(Rational::from_string(""), SmtError);
  EXPECT_THROW(Rational::from_string("1."), SmtError);
  EXPECT_THROW(Rational::from_string("a/b"), SmtError);
}

TEST(Rational, Arithmetic) {
  EXPECT_EQ(Rational(1, 2) + Rational(1, 3), Rational(5, 6));
  EXPECT_EQ(Rational(1, 2) - Rational(1, 3), Rational(1, 6));
  EXPECT_EQ(Rational(2, 3) * Rational(9, 4), Rational(3, 2));
  EXPECT_EQ(Rational(2, 3) / Rational(4, 9), Rational(3, 2));
  EXPECT_EQ(-Rational(2, 3), Rational(-2, 3));
  EXPECT_EQ(Rational(-2, 3).abs(), Rational(2, 3));
  EXPECT_EQ(Rational(2, 3).inverse(), Rational(3, 2));
}

TEST(Rational, Ordering) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LT(Rational(-1, 2), Rational(-1, 3));
  EXPECT_GT(Rational(7, 2), Rational(10, 3));
  EXPECT_EQ(Rational(2, 4), Rational(1, 2));
}

TEST(Rational, ToString) {
  EXPECT_EQ(Rational(3, 2).to_string(), "3/2");
  EXPECT_EQ(Rational(4, 2).to_string(), "2");
  EXPECT_EQ(Rational(-1, 3).to_string(), "-1/3");
}

TEST(Rational, ToDouble) {
  EXPECT_DOUBLE_EQ(Rational(1, 2).to_double(), 0.5);
  EXPECT_DOUBLE_EQ(Rational(-169, 10).to_double(), -16.9);
}

// Property: field axioms hold on random small rationals.
TEST(Rational, PropertyFieldAxioms) {
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<std::int64_t> dist(-1000, 1000);
  auto rnd = [&]() {
    std::int64_t d = 0;
    while (d == 0) d = dist(rng);
    return Rational(dist(rng), d);
  };
  for (int i = 0; i < 500; ++i) {
    Rational a = rnd(), b = rnd(), c = rnd();
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a + (-a), Rational(0));
    if (!a.is_zero()) {
      EXPECT_EQ(a * a.inverse(), Rational(1));
    }
    EXPECT_EQ((a - b) + b, a);
  }
}

TEST(Rational, Int64EdgeConstructors) {
  // Machine-integer constructor edge cases around INT64_MIN and negative
  // denominators (den is negated during canonicalisation).
  Rational a(INT64_MIN, -1);
  EXPECT_FALSE(a.is_negative());
  EXPECT_EQ(a.to_string(), "9223372036854775808");
  EXPECT_TRUE(a.is_integer());

  Rational b(INT64_MIN, 1);
  EXPECT_EQ(b.to_string(), "-9223372036854775808");
  EXPECT_EQ(b, Rational(INT64_MIN));

  Rational c(INT64_MIN, INT64_MIN);
  EXPECT_EQ(c, Rational(1));
  Rational d(INT64_MIN, 2);
  EXPECT_EQ(d.to_string(), "-4611686018427387904");
  Rational e(1, INT64_MIN);
  EXPECT_EQ(e.to_string(), "-1/9223372036854775808");
  EXPECT_FALSE(e.den().is_negative());
  Rational f(INT64_MAX, -INT64_MAX);
  EXPECT_EQ(f, Rational(-1));
}

TEST(Rational, FusedAddMulSubMul) {
  Rational a(1, 3);
  a.add_mul(Rational(2, 5), Rational(3, 7));  // 1/3 + 6/35 = 53/105
  EXPECT_EQ(a, Rational(53, 105));
  a.sub_mul(Rational(2, 5), Rational(3, 7));
  EXPECT_EQ(a, Rational(1, 3));
  // Aliased arguments: x.add_mul(x, k) == x*(1+k).
  Rational x(3, 4);
  x.add_mul(x, Rational(2));
  EXPECT_EQ(x, Rational(9, 4));
  Rational y(3, 4);
  y.sub_mul(y, y);
  EXPECT_EQ(y, Rational(3, 16));
  // Fused into zero stays canonical.
  Rational z(1, 2);
  z.sub_mul(Rational(1, 4), Rational(2));
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.den(), BigInt(1));
}

TEST(Rational, FootprintCountsNoPhantomLimbs) {
  // Inline-backed rationals own zero heap bytes; only genuinely promoted
  // values are charged (Table IV accounting).
  EXPECT_EQ(Rational(0).footprint_bytes(), 0u);
  EXPECT_EQ(Rational(355, 113).footprint_bytes(), 0u);
  EXPECT_EQ(Rational(INT64_MIN, 3).footprint_bytes(), 0u);
  Rational big(BigInt::from_string("170141183460469231731687303715884105728"),
               BigInt(3));
  EXPECT_GT(big.footprint_bytes(), 0u);
}

TEST(Rational, EqualValuesHashEqualHoweverBuilt) {
  // Fractions are canonicalised on construction, so unreduced inputs,
  // parsed decimals and arithmetic results hash like the reduced value —
  // with inline and limb-sized numerators and denominators alike.
  const BigInt two70 = BigInt::from_string("1180591620717411303424");
  const std::vector<std::vector<Rational>> groups = {
      {Rational(1, 2), Rational(2, 4), Rational(-3, -6),
       Rational::from_string("0.5"), Rational(1, 3) + Rational(1, 6)},
      {Rational(2, 3), Rational(-6, -9), Rational(BigInt(4) * two70,
                                                 BigInt(6) * two70)},
      {Rational(-7), Rational(14, -2), Rational::from_string("-7")},
      {Rational(two70), Rational(two70 * BigInt(3), BigInt(3)),
       Rational::from_string("1180591620717411303424")},
      {Rational(BigInt(1), two70), Rational(BigInt(5), two70 * BigInt(5))},
  };
  for (const auto& group : groups) {
    for (const Rational& v : group) {
      EXPECT_EQ(v, group.front()) << v.to_string();
      EXPECT_EQ(v.hash(), group.front().hash()) << v.to_string();
    }
  }
  EXPECT_NE(Rational(1, 2).hash(), Rational(2, 1).hash());
  EXPECT_NE(Rational(1, 2).hash(), Rational(-1, 2).hash());
}

TEST(Rational, EqualValuesApproximateEquallyHoweverBuilt) {
  // The float filter's error term must depend on the value alone. A value
  // demoted from limb form, a copy of it, and a product whose limb buffer
  // was sized for a longer result must get the same approx() as the same
  // value parsed from text. (Compared in place: a copy would not show how
  // the original's buffers were built.)
  auto expectSameApprox = [](const Rational& a, const Rational& b) {
    EXPECT_EQ(a, b) << a << " vs " << b;
    EXPECT_EQ(a.approx().value, b.approx().value) << a;
    EXPECT_EQ(a.approx().error, b.approx().error) << a;
  };
  BigInt demoted(INT64_MAX);
  demoted += BigInt(1);
  demoted -= BigInt(1);
  const Rational r(std::move(demoted));
  const Rational c = r;
  expectSameApprox(r, c);
  expectSameApprox(r, Rational::from_string("9223372036854775807"));

  const BigInt two70 = BigInt::from_string("1180591620717411303424");
  BigInt product = two70 * BigInt(3);  // buffer sized for 3 limbs, holds 2
  const Rational p(std::move(product));
  expectSameApprox(p, Rational::from_string("3541774862152233910272"));
  expectSameApprox(p, Rational(p));
}

TEST(DeltaRational, FusedAddMulSubMul) {
  DeltaRational acc(Rational(1), Rational(2));
  DeltaRational x(Rational(3, 2), Rational(-1));
  acc.add_mul(x, Rational(2, 3));
  EXPECT_EQ(acc,
            DeltaRational(Rational(1), Rational(2)) + x * Rational(2, 3));
  DeltaRational acc2(Rational(1), Rational(2));
  acc2.sub_mul(x, Rational(2, 3));
  EXPECT_EQ(acc2, DeltaRational(Rational(1), Rational(2)) - x * Rational(2, 3));
}

TEST(DeltaRational, StrictBoundSemantics) {
  // c - delta < c < c + delta for every rational c.
  Rational c(5, 3);
  EXPECT_LT(DeltaRational::minus_delta(c), DeltaRational(c));
  EXPECT_LT(DeltaRational(c), DeltaRational::plus_delta(c));
  // Real part dominates: 1 + 100*delta < 2 - 100*delta.
  EXPECT_LT(DeltaRational(Rational(1), Rational(100)),
            DeltaRational(Rational(2), Rational(-100)));
}

TEST(DeltaRational, VectorSpaceOps) {
  DeltaRational a(Rational(1), Rational(2));
  DeltaRational b(Rational(3), Rational(-1));
  EXPECT_EQ((a + b).real(), Rational(4));
  EXPECT_EQ((a + b).delta(), Rational(1));
  EXPECT_EQ((a - b).real(), Rational(-2));
  EXPECT_EQ((a * Rational(3)).delta(), Rational(6));
  EXPECT_EQ(-a, DeltaRational(Rational(-1), Rational(-2)));
}

TEST(DeltaRational, ToString) {
  EXPECT_EQ(DeltaRational(Rational(2)).to_string(), "2");
  EXPECT_EQ(DeltaRational::plus_delta(Rational(2)).to_string(), "2+1d");
  EXPECT_EQ(DeltaRational::minus_delta(Rational(2)).to_string(), "2-1d");
}

}  // namespace
}  // namespace psse::smt
