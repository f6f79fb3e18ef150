// Arbitrary-precision signed integers with a tagged small-value fast path.
//
// The simplex theory solver pivots exact rational tableaus; coefficient
// growth during pivoting routinely overflows 64-bit (and even 128-bit)
// integers, so rationals are backed by this BigInt. Most values never get
// there, though: admittances are small decimals and gcd-normalised
// coefficients stay short, so the representation is two words:
//
//   - inline:  `big_ == nullptr` and the value is `small_`. No heap.
//   - limbs:   `big_` owns one heap block holding the sign and the
//              little-endian magnitude in 64-bit limbs, used only when the
//              value does not fit in int64_t (`small_` is then 0).
//
// sizeof(BigInt) is 16, so a Rational is 32 bytes and a DeltaRational 64:
// every tableau row, bound, cache entry and term atom pays two words per
// exact value that fits int64_t.
//
// Canonical-form invariants (maintained by every operation, so equality is
// structural and representation is unique per value):
//   - a value is inline if and only if it fits in int64_t (INT64_MIN and
//     INT64_MAX inclusive); zero is always inline (small_ == 0);
//   - in limb form the magnitude has no trailing zero limbs and the block's
//     `negative` carries the sign (a limb-form value is never zero).
// Operations promote to limb form only on native overflow (detected with
// __builtin_*_overflow) and demote back on trim, which frees the block, so
// the hot small×small add/sub/mul/divmod/gcd paths are pure register
// arithmetic with zero allocations. A copy of a big value allocates its own
// block; moves steal the block and never throw, so containers of
// Rationals relocate by move. The schoolbook limb routines remain the
// big-value backend and are exposed as reference_* entry points for
// differential testing.
#pragma once

#include <bit>
#include <compare>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace psse::smt {

/// Lifetime count of inline -> limb promotions performed by this thread's
/// BigInt arithmetic. A promotion marks a genuine 64-bit overflow — the
/// moment a solve leaves the allocation-free fast path — so the trace layer
/// reports the per-solve delta as "big-path promotions". Thread-local
/// because parallel solver clones each run on their own thread; a solver's
/// counters must not see a sibling's arithmetic.
[[nodiscard]] std::uint64_t bigint_promotions() noexcept;

class BigInt {
 public:
  /// Zero.
  BigInt() = default;
  /// From a native signed integer (inline, no allocation).
  BigInt(std::int64_t v) : small_(v) {}  // NOLINT(google-explicit-constructor): numeric literal interop is intended.
  /// Copies allocate a block only for a big value.
  BigInt(const BigInt& o)
      : small_(o.small_),
        big_(o.big_ == nullptr ? nullptr : std::make_unique<Limbs>(*o.big_)) {}
  BigInt& operator=(const BigInt& o) {
    if (o.big_ == nullptr) {
      big_.reset();
      small_ = o.small_;
    } else if (big_ == nullptr) {
      big_ = std::make_unique<Limbs>(*o.big_);
      small_ = 0;
    } else {
      *big_ = *o.big_;  // reuses this block; safe on self-assignment
    }
    return *this;
  }
  /// Moves take the block and never throw; a big source is left inline 0
  /// (its small_ is 0). Self-move keeps the value.
  BigInt(BigInt&&) noexcept = default;
  BigInt& operator=(BigInt&&) noexcept = default;

  /// Parses an optionally signed decimal string. Throws SmtError on
  /// malformed input (empty, non-digits).
  static BigInt from_string(std::string_view s);

  /// True iff the value is stored inline (fits int64_t; canonical form
  /// guarantees the converse too).
  [[nodiscard]] bool is_inline() const { return big_ == nullptr; }
  /// Unchecked inline value; requires is_inline().
  [[nodiscard]] std::int64_t inline_value() const { return small_; }

  /// True iff the value is zero.
  [[nodiscard]] bool is_zero() const { return big_ == nullptr && small_ == 0; }
  /// True iff the value is strictly negative.
  [[nodiscard]] bool is_negative() const {
    return big_ == nullptr ? small_ < 0 : big_->negative;
  }
  /// True iff the value is one.
  [[nodiscard]] bool is_one() const { return big_ == nullptr && small_ == 1; }
  /// Sign as -1, 0, or +1.
  [[nodiscard]] int sign() const {
    if (big_ == nullptr) return small_ == 0 ? 0 : (small_ < 0 ? -1 : 1);
    return big_->negative ? -1 : 1;
  }

  /// True iff the value fits in int64_t (equivalent to is_inline() in
  /// canonical form).
  [[nodiscard]] bool fits_int64() const { return big_ == nullptr; }
  /// Value as int64_t; requires fits_int64().
  [[nodiscard]] std::int64_t to_int64() const;
  /// Closest double (may lose precision; infinities on overflow).
  [[nodiscard]] double to_double() const;
  /// Decimal string representation.
  [[nodiscard]] std::string to_string() const;
  /// Hash of the canonical representation — the inline value, or the sign
  /// plus the limbs — so equal values hash equal (the form is unique).
  [[nodiscard]] std::size_t hash() const {
    return big_ == nullptr ? mix_hash(static_cast<std::uint64_t>(small_))
                           : limb_hash();
  }

  /// Number of 64-bit limbs in the magnitude (0 when the value is stored
  /// inline). A property of the value alone: equal values have equal
  /// counts however they were built.
  [[nodiscard]] std::size_t limb_count() const {
    return big_ == nullptr ? 0 : big_->mag.size();
  }
  /// Heap bytes owned by this value: the block and its limb buffer's
  /// capacity, 0 while inline. The honest Table IV quantity.
  [[nodiscard]] std::size_t heap_bytes() const {
    return big_ == nullptr
               ? 0
               : sizeof(Limbs) + big_->mag.capacity() * sizeof(std::uint64_t);
  }

  /// In-place negation (no allocation except at the INT64_MIN edge).
  void negate();
  [[nodiscard]] BigInt operator-() const {
    BigInt out = *this;
    out.negate();
    return out;
  }
  [[nodiscard]] BigInt abs() const {
    BigInt out = *this;
    if (out.is_negative()) out.negate();
    return out;
  }

  BigInt& operator+=(const BigInt& rhs) {
    if (big_ == nullptr && rhs.big_ == nullptr) {
      std::int64_t r;
      if (!__builtin_add_overflow(small_, rhs.small_, &r)) {
        small_ = r;
        return *this;
      }
    }
    return add_slow(rhs);
  }
  BigInt& operator-=(const BigInt& rhs) {
    if (big_ == nullptr && rhs.big_ == nullptr) {
      std::int64_t r;
      if (!__builtin_sub_overflow(small_, rhs.small_, &r)) {
        small_ = r;
        return *this;
      }
    }
    return sub_slow(rhs);
  }
  BigInt& operator*=(const BigInt& rhs) {
    if (big_ == nullptr && rhs.big_ == nullptr) {
      std::int64_t r;
      if (!__builtin_mul_overflow(small_, rhs.small_, &r)) {
        small_ = r;
        return *this;
      }
    }
    return mul_slow(rhs);
  }
  /// Truncated division (C++ semantics: quotient rounds toward zero).
  /// Throws SmtError on division by zero.
  BigInt& operator/=(const BigInt& rhs) {
    if (big_ == nullptr && rhs.big_ == nullptr && rhs.small_ != 0 &&
        !(small_ == std::numeric_limits<std::int64_t>::min() &&
          rhs.small_ == -1)) {
      small_ /= rhs.small_;
      return *this;
    }
    return div_slow(rhs);
  }
  /// Remainder matching truncated division: (a/b)*b + a%b == a.
  BigInt& operator%=(const BigInt& rhs) {
    if (big_ == nullptr && rhs.big_ == nullptr && rhs.small_ != 0 &&
        !(small_ == std::numeric_limits<std::int64_t>::min() &&
          rhs.small_ == -1)) {
      small_ %= rhs.small_;
      return *this;
    }
    return mod_slow(rhs);
  }

  friend BigInt operator+(BigInt a, const BigInt& b) { return a += b; }
  friend BigInt operator-(BigInt a, const BigInt& b) { return a -= b; }
  friend BigInt operator*(BigInt a, const BigInt& b) { return a *= b; }
  friend BigInt operator/(BigInt a, const BigInt& b) { return a /= b; }
  friend BigInt operator%(BigInt a, const BigInt& b) { return a %= b; }

  friend bool operator==(const BigInt& a, const BigInt& b) {
    if (a.big_ == nullptr || b.big_ == nullptr) {
      // Canonical form is unique: an inline value never equals a big one.
      return a.big_ == b.big_ && a.small_ == b.small_;
    }
    return a.big_->negative == b.big_->negative && a.big_->mag == b.big_->mag;
  }
  friend std::strong_ordering operator<=>(const BigInt& a, const BigInt& b) {
    if (a.big_ == nullptr && b.big_ == nullptr) return a.small_ <=> b.small_;
    return cmp_slow(a, b);
  }

  /// Greatest common divisor; result is non-negative. gcd(0,0) == 0.
  /// Binary (Stein) algorithm on both paths: shift/subtract beats the
  /// division-based Euclid chain even at u64 width, and gcd dominates
  /// Rational::normalize on the pivot hot path.
  static BigInt gcd(const BigInt& a, const BigInt& b) {
    if (a.big_ == nullptr && b.big_ == nullptr) {
      std::uint64_t x = mag64(a.small_);
      std::uint64_t y = mag64(b.small_);
      if (x == 0) return from_u64_mag(y);
      if (y == 0) return from_u64_mag(x);
      const int shift = std::countr_zero(x | y);
      x >>= std::countr_zero(x);
      while (y != 0) {
        y >>= std::countr_zero(y);
        if (x > y) std::swap(x, y);
        y -= x;
      }
      return from_u64_mag(x << shift);
    }
    return gcd_slow(a, b);
  }
  /// Quotient and remainder in one division (truncated semantics).
  static void div_mod(const BigInt& num, const BigInt& den, BigInt& quot,
                      BigInt& rem);
  /// 10^exp for small non-negative exponents (decimal scaling).
  static BigInt pow10(unsigned exp);

  // Reference implementations that always run the limb-vector algorithms,
  // regardless of operand size. Differential tests check the tagged fast
  // paths against these; production code should use the operators.
  static BigInt reference_add(const BigInt& a, const BigInt& b);
  static BigInt reference_mul(const BigInt& a, const BigInt& b);
  static void reference_div_mod(const BigInt& num, const BigInt& den,
                                BigInt& quot, BigInt& rem);
  static BigInt reference_gcd(const BigInt& a, const BigInt& b);
  /// -1, 0, +1 as the limb comparator would order a and b.
  static int reference_cmp(const BigInt& a, const BigInt& b);

  friend std::ostream& operator<<(std::ostream& os, const BigInt& v);

 private:
  // The heap block of a big value: sign and little-endian magnitude.
  struct Limbs {
    bool negative = false;
    std::vector<std::uint64_t> mag;
  };
  struct MagView;  // sign-magnitude view of either representation

  // Magnitude of a signed 64-bit value without UB at INT64_MIN.
  static std::uint64_t mag64(std::int64_t v) {
    return v < 0 ? ~static_cast<std::uint64_t>(v) + 1
                 : static_cast<std::uint64_t>(v);
  }
  // Non-negative value from a u64 magnitude (promotes above INT64_MAX).
  static BigInt from_u64_mag(std::uint64_t m);
  // Canonical value from a limb magnitude and sign.
  static BigInt from_mag(std::vector<std::uint64_t> mag, bool neg);

  // splitmix64 finaliser: spreads small integers over the whole word.
  static std::size_t mix_hash(std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<std::size_t>(x);
  }
  std::size_t limb_hash() const;

  // Out-of-line continuations of the operators' overflow/big cases.
  BigInt& add_slow(const BigInt& rhs);
  BigInt& sub_slow(const BigInt& rhs);
  BigInt& mul_slow(const BigInt& rhs);
  BigInt& div_slow(const BigInt& rhs);
  BigInt& mod_slow(const BigInt& rhs);
  static std::strong_ordering cmp_slow(const BigInt& a, const BigInt& b);
  static BigInt gcd_slow(const BigInt& a, const BigInt& b);

  // Magnitude helpers on limb vectors (ignore sign).
  static int cmp_mag(const std::vector<std::uint64_t>& a,
                     const std::vector<std::uint64_t>& b);
  static void add_mag(std::vector<std::uint64_t>& a,
                      const std::vector<std::uint64_t>& b);
  // Requires |a| >= |b|.
  static void sub_mag(std::vector<std::uint64_t>& a,
                      const std::vector<std::uint64_t>& b);
  static std::vector<std::uint64_t> mul_mag(
      const std::vector<std::uint64_t>& a,
      const std::vector<std::uint64_t>& b);
  static void divmod_mag(const std::vector<std::uint64_t>& num,
                         const std::vector<std::uint64_t>& den,
                         std::vector<std::uint64_t>& quot,
                         std::vector<std::uint64_t>& rem);

  // Converts an inline value to (transient, possibly non-canonical) limb
  // form so the magnitude routines can run on it.
  void promote();
  // Restores canonical form after limb-form surgery: strips trailing zero
  // limbs and demotes to inline, freeing the block, when the value fits
  // int64_t.
  void trim();

  std::int64_t small_ = 0;       // the value when big_ is null, else 0
  std::unique_ptr<Limbs> big_;  // non-null iff the value needs limbs
};

}  // namespace psse::smt
