// Unit and property tests for the arbitrary-precision integer.
#include "smt/bigint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <type_traits>
#include <vector>

#include "smt/common.h"
#include "smt/rational.h"

namespace psse::smt {
namespace {

TEST(BigInt, DefaultIsZero) {
  BigInt z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.sign(), 0);
  EXPECT_EQ(z.to_string(), "0");
  EXPECT_EQ(z.to_int64(), 0);
}

TEST(BigInt, Int64RoundTrip) {
  for (std::int64_t v : {0L, 1L, -1L, 42L, -9999999L,
                         std::int64_t{INT64_MAX}, std::int64_t{INT64_MIN}}) {
    BigInt b(v);
    EXPECT_TRUE(b.fits_int64()) << v;
    EXPECT_EQ(b.to_int64(), v);
    EXPECT_EQ(b.to_string(), std::to_string(v));
  }
}

TEST(BigInt, FromStringRoundTrip) {
  const char* cases[] = {"0",
                         "1",
                         "-1",
                         "123456789",
                         "-987654321012345678901234567890",
                         "340282366920938463463374607431768211456"};
  for (const char* s : cases) {
    EXPECT_EQ(BigInt::from_string(s).to_string(), s);
  }
}

TEST(BigInt, FromStringRejectsGarbage) {
  EXPECT_THROW(BigInt::from_string(""), SmtError);
  EXPECT_THROW(BigInt::from_string("-"), SmtError);
  EXPECT_THROW(BigInt::from_string("12a3"), SmtError);
  EXPECT_THROW(BigInt::from_string("0x10"), SmtError);
}

TEST(BigInt, AdditionCarriesAcrossLimbs) {
  BigInt a = BigInt::from_string("18446744073709551615");  // 2^64 - 1
  BigInt one(1);
  EXPECT_EQ((a + one).to_string(), "18446744073709551616");
  EXPECT_EQ((a + a).to_string(), "36893488147419103230");
}

TEST(BigInt, SubtractionBorrowsAcrossLimbs) {
  BigInt a = BigInt::from_string("18446744073709551616");  // 2^64
  EXPECT_EQ((a - BigInt(1)).to_string(), "18446744073709551615");
  EXPECT_EQ((BigInt(1) - a).to_string(), "-18446744073709551615");
  EXPECT_TRUE((a - a).is_zero());
}

TEST(BigInt, MixedSignAddition) {
  EXPECT_EQ((BigInt(5) + BigInt(-3)).to_int64(), 2);
  EXPECT_EQ((BigInt(-5) + BigInt(3)).to_int64(), -2);
  EXPECT_EQ((BigInt(-5) + BigInt(-3)).to_int64(), -8);
  EXPECT_TRUE((BigInt(7) + BigInt(-7)).is_zero());
}

TEST(BigInt, MultiplicationSchoolbook) {
  BigInt a = BigInt::from_string("123456789123456789");
  BigInt b = BigInt::from_string("987654321987654321");
  EXPECT_EQ((a * b).to_string(), "121932631356500531347203169112635269");
  EXPECT_EQ((a * BigInt(0)).to_string(), "0");
  EXPECT_EQ((a * BigInt(-1)).to_string(), "-123456789123456789");
}

TEST(BigInt, DivisionTruncatesTowardZero) {
  EXPECT_EQ((BigInt(7) / BigInt(2)).to_int64(), 3);
  EXPECT_EQ((BigInt(-7) / BigInt(2)).to_int64(), -3);
  EXPECT_EQ((BigInt(7) / BigInt(-2)).to_int64(), -3);
  EXPECT_EQ((BigInt(-7) / BigInt(-2)).to_int64(), 3);
  EXPECT_EQ((BigInt(7) % BigInt(2)).to_int64(), 1);
  EXPECT_EQ((BigInt(-7) % BigInt(2)).to_int64(), -1);
  EXPECT_EQ((BigInt(7) % BigInt(-2)).to_int64(), 1);
  EXPECT_EQ((BigInt(-7) % BigInt(-2)).to_int64(), -1);
}

TEST(BigInt, DivisionByZeroThrows) {
  EXPECT_THROW(BigInt(1) / BigInt(0), SmtError);
  EXPECT_THROW(BigInt(1) % BigInt(0), SmtError);
}

TEST(BigInt, LongDivisionMultiLimb) {
  BigInt n = BigInt::from_string("340282366920938463463374607431768211457");
  BigInt d = BigInt::from_string("18446744073709551616");
  BigInt q, r;
  BigInt::div_mod(n, d, q, r);
  EXPECT_EQ(q.to_string(), "18446744073709551616");
  EXPECT_EQ(r.to_string(), "1");
  EXPECT_EQ(q * d + r, n);
}

TEST(BigInt, Comparisons) {
  EXPECT_LT(BigInt(-2), BigInt(-1));
  EXPECT_LT(BigInt(-1), BigInt(0));
  EXPECT_LT(BigInt(0), BigInt(1));
  EXPECT_LT(BigInt::from_string("99999999999999999999"),
            BigInt::from_string("100000000000000000000"));
  EXPECT_GT(BigInt::from_string("-99999999999999999999"),
            BigInt::from_string("-100000000000000000000"));
}

TEST(BigInt, Gcd) {
  EXPECT_EQ(BigInt::gcd(BigInt(12), BigInt(18)).to_int64(), 6);
  EXPECT_EQ(BigInt::gcd(BigInt(-12), BigInt(18)).to_int64(), 6);
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(5)).to_int64(), 5);
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(0)).to_int64(), 0);
  EXPECT_EQ(BigInt::gcd(BigInt::from_string("123456789123456789123456789"),
                        BigInt::from_string("123456789"))
                .to_string(),
            "123456789");
}

TEST(BigInt, Pow10) {
  EXPECT_EQ(BigInt::pow10(0).to_int64(), 1);
  EXPECT_EQ(BigInt::pow10(3).to_int64(), 1000);
  EXPECT_EQ(BigInt::pow10(25).to_string(), "10000000000000000000000000");
}

TEST(BigInt, ToDouble) {
  EXPECT_DOUBLE_EQ(BigInt(12345).to_double(), 12345.0);
  EXPECT_DOUBLE_EQ(BigInt(-12345).to_double(), -12345.0);
  EXPECT_NEAR(BigInt::from_string("18446744073709551616").to_double(),
              18446744073709551616.0, 1.0);
}

// Property: arithmetic agrees with native __int128 on random 64-bit inputs.
TEST(BigInt, PropertyAgainstInt128) {
  std::mt19937_64 rng(20140623);  // DSN'14 vibes
  std::uniform_int_distribution<std::int64_t> dist(INT64_MIN / 2,
                                                   INT64_MAX / 2);
  for (int iter = 0; iter < 2000; ++iter) {
    std::int64_t x = dist(rng), y = dist(rng);
    BigInt bx(x), by(y);
    EXPECT_EQ((bx + by).to_int64(), x + y);
    EXPECT_EQ((bx - by).to_int64(), x - y);
    __int128 prod = static_cast<__int128>(x) * y;
    BigInt bprod = bx * by;
    // Compare via string to cover > 64-bit products.
    __int128 p = prod;
    bool negP = p < 0;
    if (negP) p = -p;
    std::string s;
    if (p == 0) s = "0";
    while (p > 0) {
      s.insert(s.begin(), static_cast<char>('0' + static_cast<int>(p % 10)));
      p /= 10;
    }
    if (negP && s != "0") s.insert(s.begin(), '-');
    EXPECT_EQ(bprod.to_string(), s);
    if (y != 0) {
      EXPECT_EQ((bx / by).to_int64(), x / y);
      EXPECT_EQ((bx % by).to_int64(), x % y);
    }
  }
}

// --- Tagged-representation boundaries -------------------------------------
// The inline<->limb promotion/demotion edges of the small-value fast path.

TEST(BigIntRepr, Int64EdgesStayInline) {
  BigInt mx(INT64_MAX), mn(INT64_MIN);
  EXPECT_TRUE(mx.is_inline());
  EXPECT_TRUE(mn.is_inline());
  EXPECT_EQ(mx.limb_count(), 0u);
  EXPECT_EQ(mn.limb_count(), 0u);
  EXPECT_EQ(mx.to_int64(), INT64_MAX);
  EXPECT_EQ(mn.to_int64(), INT64_MIN);
  EXPECT_EQ(BigInt::from_string("9223372036854775807"), mx);
  EXPECT_EQ(BigInt::from_string("-9223372036854775808"), mn);
}

TEST(BigIntRepr, EqualValuesHashEqualOnBothSidesOfTheInlineBoundary) {
  // Each group holds one value built along different paths: literal,
  // parsed, and through limb form and back (demotion frees the limb block,
  // and nothing of it may leak into the hash).
  const BigInt two64 = BigInt::from_string("18446744073709551616");
  BigInt demotedMax(INT64_MAX);
  demotedMax += BigInt(1);
  demotedMax -= BigInt(1);
  BigInt demotedMin(INT64_MIN);
  demotedMin -= BigInt(1);
  demotedMin += BigInt(1);
  BigInt shrunk = two64 * BigInt(64);  // 2^70, limb form
  shrunk /= BigInt(1024);              // 2^60, inline again
  BigInt promotedMax(INT64_MAX);
  promotedMax += BigInt(1);
  const BigInt bigProduct = two64 * two64 + BigInt(5);
  const std::vector<std::vector<BigInt>> groups = {
      {BigInt(0), BigInt(7) - BigInt(7), BigInt::from_string("-0")},
      {BigInt(INT64_MAX), BigInt::from_string("9223372036854775807"),
       demotedMax},
      {BigInt(INT64_MIN), BigInt::from_string("-9223372036854775808"),
       demotedMin},
      {BigInt(std::int64_t{1} << 60), shrunk},
      {promotedMax, BigInt::from_string("9223372036854775808"),
       -BigInt(INT64_MIN)},
      {bigProduct,
       BigInt::from_string("340282366920938463463374607431768211461")},
      {-bigProduct,
       BigInt::from_string("-340282366920938463463374607431768211461")},
  };
  for (const auto& group : groups) {
    for (const BigInt& v : group) {
      EXPECT_EQ(v, group.front()) << v.to_string();
      EXPECT_EQ(v.hash(), group.front().hash()) << v.to_string();
    }
  }
  EXPECT_TRUE(shrunk.is_inline());
  EXPECT_FALSE(promotedMax.is_inline());
  // Distinct values in either form land on distinct hashes here.
  EXPECT_NE(BigInt(1).hash(), BigInt(2).hash());
  EXPECT_NE(bigProduct.hash(), (-bigProduct).hash());
  EXPECT_NE(promotedMax.hash(), (promotedMax + BigInt(1)).hash());
}

TEST(BigIntRepr, AddOverflowPromotesAtExactEdge) {
  // INT64_MAX + 1 is the first value that cannot stay inline.
  BigInt v(INT64_MAX);
  v += BigInt(1);
  EXPECT_FALSE(v.is_inline());
  EXPECT_FALSE(v.fits_int64());
  EXPECT_EQ(v.limb_count(), 1u);
  EXPECT_EQ(v.to_string(), "9223372036854775808");
  // ...and subtracting 1 demotes straight back.
  v -= BigInt(1);
  EXPECT_TRUE(v.is_inline());
  EXPECT_EQ(v.to_int64(), INT64_MAX);

  BigInt w(INT64_MIN);
  w -= BigInt(1);
  EXPECT_FALSE(w.is_inline());
  EXPECT_EQ(w.to_string(), "-9223372036854775809");
  w += BigInt(1);
  EXPECT_TRUE(w.is_inline());
  EXPECT_EQ(w.to_int64(), INT64_MIN);
}

TEST(BigIntRepr, NegateInt64MinPromotes) {
  BigInt v(INT64_MIN);
  BigInt neg = -v;
  EXPECT_FALSE(neg.is_inline());
  EXPECT_EQ(neg.to_string(), "9223372036854775808");
  EXPECT_EQ(v.abs(), neg);
  // Negating back demotes to the inline INT64_MIN.
  BigInt back = -neg;
  EXPECT_TRUE(back.is_inline());
  EXPECT_EQ(back.to_int64(), INT64_MIN);
}

TEST(BigIntRepr, MulOverflowAtExactEdge) {
  // 2^31 * 2^32 == 2^63 overflows int64; 2^31 * (2^32 - 1) < 2^63 does not.
  BigInt a(std::int64_t{1} << 31);
  BigInt fits = a * BigInt((std::int64_t{1} << 32) - 1);
  EXPECT_TRUE(fits.is_inline());
  BigInt over = a * BigInt(std::int64_t{1} << 32);
  EXPECT_FALSE(over.is_inline());
  EXPECT_EQ(over.to_string(), "9223372036854775808");
  EXPECT_EQ(BigInt(INT64_MIN) * BigInt(-1), over);
}

TEST(BigIntRepr, DivModInt64MinByMinusOne) {
  BigInt q = BigInt(INT64_MIN) / BigInt(-1);
  EXPECT_FALSE(q.is_inline());
  EXPECT_EQ(q.to_string(), "9223372036854775808");
  BigInt r = BigInt(INT64_MIN) % BigInt(-1);
  EXPECT_TRUE(r.is_zero());
  BigInt q2, r2;
  BigInt::div_mod(BigInt(INT64_MIN), BigInt(-1), q2, r2);
  EXPECT_EQ(q2, q);
  EXPECT_TRUE(r2.is_zero());
}

TEST(BigIntRepr, GcdDemotesAndHandlesEdges) {
  // gcd of two huge values with a small gcd comes back inline.
  BigInt big = BigInt::from_string("36893488147419103232");  // 2^65
  BigInt g = BigInt::gcd(big, BigInt(48));
  EXPECT_TRUE(g.is_inline());
  EXPECT_EQ(g.to_int64(), 16);
  // gcd(INT64_MIN, 0) = 2^63 does not fit inline.
  BigInt g2 = BigInt::gcd(BigInt(INT64_MIN), BigInt(0));
  EXPECT_FALSE(g2.is_inline());
  EXPECT_EQ(g2.to_string(), "9223372036854775808");
  EXPECT_FALSE(g2.is_negative());
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(0)), BigInt(0));
  EXPECT_EQ(BigInt::gcd(BigInt(INT64_MIN), BigInt(INT64_MIN)).to_string(),
            "9223372036854775808");
}

TEST(BigIntRepr, SubtractionDemotesMultiLimb) {
  BigInt big = BigInt::from_string("18446744073709551617");  // 2^64 + 1
  BigInt small = big - BigInt::from_string("18446744073709551610");
  EXPECT_TRUE(small.is_inline());
  EXPECT_EQ(small.to_int64(), 7);
  EXPECT_EQ(small.limb_count(), 0u);
}

TEST(BigIntRepr, CanonicalZeroAfterCancellation) {
  BigInt big = BigInt::from_string("340282366920938463463374607431768211456");
  BigInt z = big - big;
  EXPECT_TRUE(z.is_zero());
  EXPECT_TRUE(z.is_inline());
  EXPECT_FALSE(z.is_negative());
  EXPECT_EQ(z, BigInt(0));  // structural equality with the canonical zero
}

TEST(BigIntRepr, MixedRepresentationComparison) {
  BigInt big = BigInt::from_string("9223372036854775808");  // 2^63
  EXPECT_GT(big, BigInt(INT64_MAX));
  // -2^63 is exactly INT64_MIN: negation demotes back to inline and the two
  // representations compare equal structurally.
  EXPECT_EQ(-big, BigInt(INT64_MIN));
  EXPECT_TRUE((-big).is_inline());
  EXPECT_LT(-(big + BigInt(1)), BigInt(INT64_MIN));
  EXPECT_LT(BigInt(INT64_MIN), big);
  EXPECT_NE(big, BigInt(INT64_MAX));
}

TEST(BigIntRepr, SelfAliasedOps) {
  BigInt a(INT64_MAX);
  a += a;  // overflows inline, both operands are the same object
  EXPECT_EQ(a.to_string(), "18446744073709551614");
  a *= a;
  EXPECT_EQ(a, BigInt::from_string("18446744073709551614") *
                   BigInt::from_string("18446744073709551614"));
  a -= a;
  EXPECT_TRUE(a.is_zero());
  BigInt b = BigInt::from_string("36893488147419103232");
  b /= b;
  EXPECT_EQ(b, BigInt(1));
}

TEST(BigIntRepr, HeapBytesAccounting) {
  BigInt small(123);
  EXPECT_EQ(small.heap_bytes(), 0u);  // never promoted: no heap at all
  BigInt big = BigInt::from_string("18446744073709551617");
  EXPECT_GE(big.heap_bytes(), 2 * sizeof(std::uint64_t));
  EXPECT_EQ(big.limb_count(), 2u);
  big -= BigInt::from_string("18446744073709551610");
  EXPECT_EQ(big, BigInt(7));
  EXPECT_EQ(big.heap_bytes(), 0u);  // demotion frees the limb block
}

TEST(BigIntRepr, TwoWordLayout) {
  // An inline word plus a pointer to the limb block: every exact value the
  // simplex stores costs two words, and a Rational four.
  EXPECT_EQ(sizeof(BigInt), 16u);
  EXPECT_EQ(sizeof(Rational), 32u);
  EXPECT_EQ(sizeof(DeltaRational), 64u);
  // A throwing move would make std::vector copy its elements on growth.
  EXPECT_TRUE(std::is_nothrow_move_constructible_v<BigInt>);
  EXPECT_TRUE(std::is_nothrow_move_assignable_v<BigInt>);
  EXPECT_TRUE(std::is_nothrow_move_constructible_v<Rational>);
  EXPECT_TRUE(std::is_nothrow_move_assignable_v<Rational>);
  EXPECT_TRUE(std::is_nothrow_move_constructible_v<DeltaRational>);
  EXPECT_TRUE(std::is_nothrow_move_assignable_v<DeltaRational>);
}

// Property: div_mod inverts multiplication for random multi-limb values.
TEST(BigInt, PropertyDivModInvariant) {
  std::mt19937_64 rng(42);
  auto randomBig = [&](int limbs) {
    BigInt out;
    for (int i = 0; i < limbs; ++i) {
      out = out * BigInt::from_string("18446744073709551616") +
            BigInt(static_cast<std::int64_t>(rng() >> 1));
    }
    if (rng() & 1) out = -out;
    return out;
  };
  for (int iter = 0; iter < 300; ++iter) {
    BigInt n = randomBig(1 + static_cast<int>(rng() % 4));
    BigInt d = randomBig(1 + static_cast<int>(rng() % 3));
    if (d.is_zero()) continue;
    BigInt q, r;
    BigInt::div_mod(n, d, q, r);
    EXPECT_EQ(q * d + r, n);
    EXPECT_LT(r.abs(), d.abs());
    // Remainder sign matches dividend (or zero).
    if (!r.is_zero()) {
      EXPECT_EQ(r.is_negative(), n.is_negative());
    }
  }
}

}  // namespace
}  // namespace psse::smt
