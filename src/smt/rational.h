// Exact rational arithmetic and delta-rationals.
//
// Rational is the coefficient domain of the LRA theory solver. Invariant:
// denominator > 0 and gcd(|num|, den) == 1 (canonical form), so equality is
// structural.
//
// DeltaRational models values of the form a + b*delta where delta is a
// positive infinitesimal; it lets the simplex treat strict bounds (x < c) as
// weak bounds (x <= c - delta) while staying exact (Dutertre & de Moura,
// "A fast linear-arithmetic solver for DPLL(T)", CAV 2006).
#pragma once

#include <compare>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "smt/bigint.h"

namespace psse::smt {

/// A double approximation of an exact value together with a rigorous bound
/// on its absolute error: |value - exact| <= error always holds (error may
/// be +inf, and value NaN, for overflowed conversions — every consumer
/// treats "not provably ordered" as "decide exactly", so a degenerate
/// approximation only costs speed, never soundness). This is the carrier of
/// the simplex float filter (DESIGN.md §6g): comparisons are decided in
/// doubles only when the interval [value-error, value+error] clears the
/// other side's interval.
struct DoubleApprox {
  double value = 0.0;
  double error = 0.0;

  /// Unit roundoff envelope per operation (2^-52 covers the <= 0.5 ulp
  /// rounding of every IEEE op with slack) and an absolute floor that
  /// covers subnormal rounding, where the relative model fails.
  static constexpr double kEps = 2.220446049250313e-16;
  static constexpr double kEta = 1e-290;

  static DoubleApprox exact(double v) { return {v, 0.0}; }

  [[nodiscard]] DoubleApprox operator+(const DoubleApprox& o) const {
    const double v = value + o.value;
    return {v, error + o.error + kEps * abs_(v) + kEta};
  }
  [[nodiscard]] DoubleApprox operator-(const DoubleApprox& o) const {
    const double v = value - o.value;
    return {v, error + o.error + kEps * abs_(v) + kEta};
  }
  [[nodiscard]] DoubleApprox operator*(const DoubleApprox& o) const {
    const double v = value * o.value;
    return {v, abs_(value) * o.error + abs_(o.value) * error +
                   error * o.error + kEps * abs_(v) + kEta};
  }
  void add_mul(const DoubleApprox& x, const DoubleApprox& k) {
    *this = *this + x * k;
  }

  /// True iff the exact value this approximates is provably > the exact
  /// value `o` approximates. NaN/inf poison every comparison to false, so
  /// a degenerate approximation falls through to the exact path.
  [[nodiscard]] bool definitely_greater(const DoubleApprox& o) const {
    return value - o.value > error + o.error + kEps * (abs_(value) + abs_(o.value)) + kEta;
  }
  [[nodiscard]] bool definitely_less(const DoubleApprox& o) const {
    return o.definitely_greater(*this);
  }

 private:
  // std::fabs without <cmath> in this header; also NaN-safe (returns NaN,
  // which poisons comparisons to false as intended).
  static double abs_(double v) { return v < 0 ? -v : v; }
};

class Rational {
 public:
  /// Zero.
  Rational() : num_(0), den_(1) {}
  /// Integer value.
  Rational(std::int64_t v) : num_(v), den_(1) {}  // NOLINT(google-explicit-constructor)
  /// num/den, canonicalised. Throws SmtError if den == 0.
  Rational(BigInt num, BigInt den);
  /// Integer BigInt value.
  explicit Rational(BigInt v) : num_(std::move(v)), den_(1) {}
  /// num/den from machine integers.
  Rational(std::int64_t num, std::int64_t den)
      : Rational(BigInt(num), BigInt(den)) {}

  /// Parses "3", "-3/4", or a decimal like "16.90" / "-0.0125" exactly.
  static Rational from_string(std::string_view s);
  /// Exact value of a decimal string such as "16.90" (no binary rounding).
  static Rational from_decimal(std::string_view s) { return from_string(s); }

  [[nodiscard]] const BigInt& num() const { return num_; }
  [[nodiscard]] const BigInt& den() const { return den_; }
  [[nodiscard]] bool is_zero() const { return num_.is_zero(); }
  [[nodiscard]] bool is_negative() const { return num_.is_negative(); }
  [[nodiscard]] bool is_integer() const { return den_.is_one(); }
  [[nodiscard]] int sign() const { return num_.sign(); }

  [[nodiscard]] double to_double() const {
    return num_.to_double() / den_.to_double();
  }

  /// to_double() plus a rigorous error bound. BigInt::to_double() folds L
  /// limbs with one multiply-add each (<= 2L+1 roundings, each <= eps/2
  /// relative), inline values cast in one rounding, and the final division
  /// adds one more — so relative error <= (4 + 2*(Ln+Ld)) * eps is a safe
  /// envelope on both components and the quotient. L is the limb count of
  /// the value itself, so equal values get equal bounds however they were
  /// built. Overflow to inf yields an inf error bound, which consumers read
  /// as "never provably ordered".
  [[nodiscard]] DoubleApprox approx() const {
    const double v = to_double();
    const double limbs =
        static_cast<double>(num_.limb_count() + den_.limb_count());
    const double rel = DoubleApprox::kEps * (4.0 + 2.0 * limbs);
    const double mag = v < 0 ? -v : v;
    return {v, mag * rel + DoubleApprox::kEta};
  }
  [[nodiscard]] std::string to_string() const;
  /// Hash of the canonical numerator/denominator pair: equal values hash
  /// equal, however they were built.
  [[nodiscard]] std::size_t hash() const {
    return num_.hash() * 1000003u + den_.hash();
  }

  /// In-place negation (no renormalisation needed).
  void negate() { num_.negate(); }
  [[nodiscard]] Rational operator-() const;
  [[nodiscard]] Rational abs() const;
  /// Multiplicative inverse. Throws SmtError if zero.
  [[nodiscard]] Rational inverse() const;

  Rational& operator+=(const Rational& rhs);
  Rational& operator-=(const Rational& rhs);
  Rational& operator*=(const Rational& rhs);
  Rational& operator/=(const Rational& rhs);

  /// Fused *this += b*c (resp. -=) without a temporary Rational and with a
  /// single end-of-op normalisation instead of one per operator — the
  /// simplex beta-update and row-elimination workhorses.
  Rational& add_mul(const Rational& b, const Rational& c);
  Rational& sub_mul(const Rational& b, const Rational& c);

  friend Rational operator+(Rational a, const Rational& b) { return a += b; }
  friend Rational operator-(Rational a, const Rational& b) { return a -= b; }
  friend Rational operator*(Rational a, const Rational& b) { return a *= b; }
  friend Rational operator/(Rational a, const Rational& b) { return a /= b; }

  friend bool operator==(const Rational& a, const Rational& b) {
    return a.num_ == b.num_ && a.den_ == b.den_;
  }
  friend std::strong_ordering operator<=>(const Rational& a,
                                          const Rational& b) {
    // Inline fast path: |num|,|den| <= 2^63 so the cross products fit in
    // 128 bits exactly (denominators are positive, order is preserved).
    if (a.num_.is_inline() && a.den_.is_inline() && b.num_.is_inline() &&
        b.den_.is_inline()) {
      const __int128 lhs =
          static_cast<__int128>(a.num_.inline_value()) * b.den_.inline_value();
      const __int128 rhs =
          static_cast<__int128>(b.num_.inline_value()) * a.den_.inline_value();
      return lhs < rhs    ? std::strong_ordering::less
             : lhs > rhs  ? std::strong_ordering::greater
                          : std::strong_ordering::equal;
    }
    return cmp_slow(a, b);
  }

  /// Heap bytes owned by the two BigInts (0 while both stay inline), for
  /// Table IV. Inline values must not be charged phantom limbs.
  [[nodiscard]] std::size_t footprint_bytes() const {
    return num_.heap_bytes() + den_.heap_bytes();
  }

  friend std::ostream& operator<<(std::ostream& os, const Rational& v);

 private:
  void normalize();
  static std::strong_ordering cmp_slow(const Rational& a, const Rational& b);

  BigInt num_;
  BigInt den_;  // > 0
};

/// a + b*delta with delta an arbitrarily small positive infinitesimal.
class DeltaRational {
 public:
  DeltaRational() = default;
  DeltaRational(Rational real) : real_(std::move(real)) {}  // NOLINT(google-explicit-constructor)
  DeltaRational(Rational real, Rational delta)
      : real_(std::move(real)), delta_(std::move(delta)) {}

  /// The value c - delta (used for strict upper bounds x < c).
  static DeltaRational minus_delta(Rational c) {
    return DeltaRational(std::move(c), Rational(-1));
  }
  /// The value c + delta (used for strict lower bounds x > c).
  static DeltaRational plus_delta(Rational c) {
    return DeltaRational(std::move(c), Rational(1));
  }

  [[nodiscard]] const Rational& real() const { return real_; }
  [[nodiscard]] const Rational& delta() const { return delta_; }
  [[nodiscard]] bool is_zero() const {
    return real_.is_zero() && delta_.is_zero();
  }

  [[nodiscard]] DeltaRational operator-() const {
    return DeltaRational(-real_, -delta_);
  }

  DeltaRational& operator+=(const DeltaRational& rhs) {
    real_ += rhs.real_;
    delta_ += rhs.delta_;
    return *this;
  }
  DeltaRational& operator-=(const DeltaRational& rhs) {
    real_ -= rhs.real_;
    delta_ -= rhs.delta_;
    return *this;
  }
  /// Scaling by a rational (delta-rationals form a Q-vector space).
  DeltaRational& operator*=(const Rational& k) {
    real_ *= k;
    delta_ *= k;
    return *this;
  }
  /// Fused *this += x*k (resp. -=) — no temporary DeltaRational; the hot
  /// operation of Simplex::update / pivot_and_update.
  DeltaRational& add_mul(const DeltaRational& x, const Rational& k) {
    real_.add_mul(x.real_, k);
    delta_.add_mul(x.delta_, k);
    return *this;
  }
  DeltaRational& sub_mul(const DeltaRational& x, const Rational& k) {
    real_.sub_mul(x.real_, k);
    delta_.sub_mul(x.delta_, k);
    return *this;
  }

  friend DeltaRational operator+(DeltaRational a, const DeltaRational& b) {
    return a += b;
  }
  friend DeltaRational operator-(DeltaRational a, const DeltaRational& b) {
    return a -= b;
  }
  friend DeltaRational operator*(DeltaRational a, const Rational& k) {
    return a *= k;
  }
  friend DeltaRational operator*(const Rational& k, DeltaRational a) {
    return a *= k;
  }

  friend bool operator==(const DeltaRational& a, const DeltaRational& b) {
    return a.real_ == b.real_ && a.delta_ == b.delta_;
  }
  /// Lexicographic order (real part first) — the order induced by any
  /// sufficiently small positive delta.
  friend std::strong_ordering operator<=>(const DeltaRational& a,
                                          const DeltaRational& b) {
    auto c = a.real_ <=> b.real_;
    return c != std::strong_ordering::equal ? c : a.delta_ <=> b.delta_;
  }

  [[nodiscard]] std::string to_string() const;
  friend std::ostream& operator<<(std::ostream& os, const DeltaRational& v);

 private:
  Rational real_;
  Rational delta_;
};

}  // namespace psse::smt
