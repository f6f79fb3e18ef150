// Differential fuzzing of the tagged small-value fast path.
//
// Every BigInt operator carries two implementations: the native
// overflow-checked inline path and the limb-vector path (schoolbook
// magnitude routines). The reference_* entry points force the limb
// algorithms regardless of operand size; here a few thousand random
// operand pairs — biased toward the representation boundaries — must
// produce identical canonical results through both.
#include "smt/bigint.h"
#include "smt/rational.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>

namespace psse::smt {
namespace {

// Random operand generator mixing magnitudes: mostly small (inline),
// some straddling the int64 boundary, some multi-limb.
class OperandGen {
 public:
  explicit OperandGen(std::uint64_t seed) : rng_(seed) {}

  BigInt next() {
    switch (rng_() % 8) {
      case 0:
        return BigInt(static_cast<std::int64_t>(rng_() % 7) - 3);  // tiny
      case 1:
        return BigInt(small());  // full int64 range
      case 2: {  // right at the inline/limb edge
        static const std::int64_t edges[] = {INT64_MAX, INT64_MIN,
                                             INT64_MAX - 1, INT64_MIN + 1};
        BigInt v(edges[rng_() % 4]);
        if (rng_() & 1) v += BigInt(static_cast<std::int64_t>(rng_() % 3) - 1);
        return v;
      }
      default: {  // 1-4 limbs
        BigInt out;
        const BigInt base = BigInt::from_string("18446744073709551616");
        const std::uint64_t limbs = 1 + rng_() % 4;
        for (std::uint64_t i = 0; i < limbs; ++i) {
          out = out * base + BigInt(static_cast<std::int64_t>(rng_() >> 1));
        }
        if (rng_() & 1) out.negate();
        return out;
      }
    }
  }

  std::int64_t small() { return static_cast<std::int64_t>(rng_()); }
  std::mt19937_64& rng() { return rng_; }

 private:
  std::mt19937_64 rng_;
};

TEST(BigIntFuzz, AddSubMulAgreeWithLimbReference) {
  OperandGen gen(0xD5414);
  for (int iter = 0; iter < 4000; ++iter) {
    BigInt a = gen.next(), b = gen.next();
    EXPECT_EQ(a + b, BigInt::reference_add(a, b)) << a << " + " << b;
    EXPECT_EQ(a - b, BigInt::reference_add(a, -b)) << a << " - " << b;
    EXPECT_EQ(a * b, BigInt::reference_mul(a, b)) << a << " * " << b;
  }
}

TEST(BigIntFuzz, DivModAgreesWithLimbReference) {
  OperandGen gen(0xBEEF);
  for (int iter = 0; iter < 4000; ++iter) {
    BigInt a = gen.next(), b = gen.next();
    if (b.is_zero()) continue;
    BigInt rq, rr;
    BigInt::reference_div_mod(a, b, rq, rr);
    EXPECT_EQ(a / b, rq) << a << " / " << b;
    EXPECT_EQ(a % b, rr) << a << " % " << b;
    BigInt q, r;
    BigInt::div_mod(a, b, q, r);
    EXPECT_EQ(q, rq);
    EXPECT_EQ(r, rr);
    // Truncated-division identity through the fast path.
    EXPECT_EQ(q * b + r, a);
  }
}

TEST(BigIntFuzz, GcdAndCompareAgreeWithLimbReference) {
  OperandGen gen(0x6CD);
  for (int iter = 0; iter < 4000; ++iter) {
    BigInt a = gen.next(), b = gen.next();
    EXPECT_EQ(BigInt::gcd(a, b), BigInt::reference_gcd(a, b))
        << "gcd(" << a << ", " << b << ")";
    const auto ord = a <=> b;
    const int ref = BigInt::reference_cmp(a, b);
    EXPECT_EQ(ord < 0, ref < 0) << a << " <=> " << b;
    EXPECT_EQ(ord > 0, ref > 0) << a << " <=> " << b;
    EXPECT_EQ(ord == 0, ref == 0) << a << " <=> " << b;
  }
}

// Ownership across the int64 boundary. A big value owns its limb block, so
// a copy must be deep, a move must hand the block over and leave a usable
// source, and assignment must work onto inline and big targets, onto
// itself, and with an operand that aliases the target. Every result is
// checked against the reference_* limb algorithms run on independent
// copies rebuilt from text.
TEST(BigIntFuzz, OwnershipSequencesAgreeWithLimbReference) {
  OperandGen gen(0x0A11A5);
  const BigInt bigTarget =
      BigInt::from_string("-340282366920938463463374607431768211457");
  auto rebuilt = [](const BigInt& v) {
    return BigInt::from_string(v.to_string());
  };
  for (int iter = 0; iter < 3000; ++iter) {
    const BigInt a = gen.next(), b = gen.next();
    const BigInt aRef = rebuilt(a), bRef = rebuilt(b);

    BigInt copy(a);
    copy += b;  // must not write through to a's block
    EXPECT_EQ(copy, BigInt::reference_add(aRef, bRef));
    EXPECT_EQ(a, aRef);
    for (const BigInt& start : {BigInt(7), bigTarget}) {
      BigInt copied = start;
      copied = a;
      EXPECT_EQ(copied, aRef);
      copied *= b;
      EXPECT_EQ(copied, BigInt::reference_mul(aRef, bRef));
      EXPECT_EQ(a, aRef);

      BigInt source = a;
      BigInt moved = start;
      moved = std::move(source);
      EXPECT_EQ(moved, aRef);
      EXPECT_TRUE(source.is_inline());  // NOLINT(bugprone-use-after-move)
      source = b;                       // a moved-from value is reusable
      EXPECT_EQ(source, bRef);
    }
    BigInt source = a;
    const BigInt movedInto(std::move(source));
    EXPECT_EQ(movedInto, aRef);
    EXPECT_TRUE(source.is_inline());  // NOLINT(bugprone-use-after-move)

    BigInt self = a;
    BigInt& alias = self;
    self = alias;
    EXPECT_EQ(self, aRef);
    self = std::move(alias);
    EXPECT_EQ(self, aRef);

    BigInt x = a;
    x *= x;
    EXPECT_EQ(x, BigInt::reference_mul(aRef, aRef));
    x = a;
    x += x;
    EXPECT_EQ(x, BigInt::reference_add(aRef, aRef));
    x -= x;
    EXPECT_TRUE(x.is_zero());
    EXPECT_TRUE(x.is_inline());
    if (!b.is_zero()) {
      BigInt q = a, r = b;
      BigInt::div_mod(q, r, q, r);
      BigInt rq, rr;
      BigInt::reference_div_mod(aRef, bRef, rq, rr);
      EXPECT_EQ(q, rq) << a << " / " << b;
      EXPECT_EQ(r, rr) << a << " % " << b;
    }
  }
}

TEST(BigIntFuzz, RationalFusedOpsMatchComposedOps) {
  OperandGen gen(0xF05ED);
  auto rational = [&]() {
    BigInt den = gen.next();
    if (den.is_zero()) den = BigInt(1);
    return Rational(gen.next(), den);
  };
  for (int iter = 0; iter < 2000; ++iter) {
    Rational a = rational(), b = rational(), c = rational();
    Rational fusedAdd = a;
    fusedAdd.add_mul(b, c);
    EXPECT_EQ(fusedAdd, a + b * c);
    Rational fusedSub = a;
    fusedSub.sub_mul(b, c);
    EXPECT_EQ(fusedSub, a - b * c);
  }
}

}  // namespace
}  // namespace psse::smt
