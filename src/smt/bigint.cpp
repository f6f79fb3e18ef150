#include "smt/bigint.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <ostream>

#include "smt/common.h"

namespace psse::smt {

namespace {

thread_local std::uint64_t g_promotions = 0;

}  // namespace

std::uint64_t bigint_promotions() noexcept { return g_promotions; }

namespace {

using u32 = std::uint32_t;
using u64 = std::uint64_t;

// Division works in base 2^32 so that trial-quotient estimation fits in
// native 64-bit arithmetic (Knuth TAOCP vol. 2, algorithm D).
std::vector<u32> to32(const std::vector<u64>& limbs) {
  std::vector<u32> out;
  out.reserve(limbs.size() * 2);
  for (u64 limb : limbs) {
    out.push_back(static_cast<u32>(limb));
    out.push_back(static_cast<u32>(limb >> 32));
  }
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

std::vector<u64> to64(const std::vector<u32>& limbs) {
  std::vector<u64> out;
  out.reserve((limbs.size() + 1) / 2);
  for (std::size_t i = 0; i < limbs.size(); i += 2) {
    u64 lo = limbs[i];
    u64 hi = (i + 1 < limbs.size()) ? limbs[i + 1] : 0;
    out.push_back(lo | (hi << 32));
  }
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

int cmp32(const std::vector<u32>& a, const std::vector<u32>& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

// Long division of 32-bit-limb magnitudes; quotient and remainder out.
void divmod32(std::vector<u32> num, std::vector<u32> den,
              std::vector<u32>& quot, std::vector<u32>& rem) {
  PSSE_ASSERT(!den.empty());
  quot.clear();
  rem.clear();
  if (cmp32(num, den) < 0) {
    rem = std::move(num);
    return;
  }
  if (den.size() == 1) {
    // Short division.
    u64 d = den[0];
    u64 r = 0;
    quot.assign(num.size(), 0);
    for (std::size_t i = num.size(); i-- > 0;) {
      u64 cur = (r << 32) | num[i];
      quot[i] = static_cast<u32>(cur / d);
      r = cur % d;
    }
    while (!quot.empty() && quot.back() == 0) quot.pop_back();
    if (r != 0) rem.push_back(static_cast<u32>(r));
    return;
  }

  // Normalize so that den's top limb has its high bit set.
  int shift = 0;
  for (u32 top = den.back(); (top & 0x80000000u) == 0; top <<= 1) ++shift;
  auto shl = [&](std::vector<u32>& v) {
    if (shift == 0) return;
    u32 carry = 0;
    for (auto& limb : v) {
      u32 next = limb >> (32 - shift);
      limb = (limb << shift) | carry;
      carry = next;
    }
    if (carry != 0) v.push_back(carry);
  };
  shl(num);
  shl(den);

  const std::size_t n = den.size();
  const std::size_t m = num.size() >= n ? num.size() - n : 0;
  num.push_back(0);  // u[m+n] slot
  quot.assign(m + 1, 0);

  const u64 vtop = den[n - 1];
  const u64 vsec = den[n - 2];
  for (std::size_t j = m + 1; j-- > 0;) {
    u64 numerator = (static_cast<u64>(num[j + n]) << 32) | num[j + n - 1];
    u64 qhat = numerator / vtop;
    u64 rhat = numerator % vtop;
    if (qhat > 0xFFFFFFFFull) {
      qhat = 0xFFFFFFFFull;
      rhat = numerator - qhat * vtop;
    }
    while (rhat <= 0xFFFFFFFFull &&
           qhat * vsec > ((rhat << 32) | num[j + n - 2])) {
      --qhat;
      rhat += vtop;
    }
    // Multiply-subtract qhat * den from num[j .. j+n].
    std::int64_t borrow = 0;
    u64 carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      u64 product = qhat * den[i] + carry;
      carry = product >> 32;
      std::int64_t sub = static_cast<std::int64_t>(num[j + i]) -
                         static_cast<std::int64_t>(product & 0xFFFFFFFFull) +
                         borrow;
      num[j + i] = static_cast<u32>(sub & 0xFFFFFFFF);
      borrow = sub >> 32;  // arithmetic shift: 0 or -1
    }
    std::int64_t subTop = static_cast<std::int64_t>(num[j + n]) -
                          static_cast<std::int64_t>(carry) + borrow;
    num[j + n] = static_cast<u32>(subTop & 0xFFFFFFFF);
    if (subTop < 0) {
      // qhat was one too large: add den back once.
      --qhat;
      u64 addCarry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        u64 sum = static_cast<u64>(num[j + i]) + den[i] + addCarry;
        num[j + i] = static_cast<u32>(sum);
        addCarry = sum >> 32;
      }
      num[j + n] = static_cast<u32>(num[j + n] + addCarry);
    }
    quot[j] = static_cast<u32>(qhat);
  }
  while (!quot.empty() && quot.back() == 0) quot.pop_back();

  // Remainder: low n limbs of num, denormalized.
  num.resize(n);
  if (shift != 0) {
    u32 carry = 0;
    for (std::size_t i = num.size(); i-- > 0;) {
      u32 next = num[i] << (32 - shift);
      num[i] = (num[i] >> shift) | carry;
      carry = next;
    }
  }
  while (!num.empty() && num.back() == 0) num.pop_back();
  rem = std::move(num);
}

}  // namespace

// Sign-magnitude view over either representation. For an inline value the
// magnitude is materialised into `own_` (at most one limb); for limb form
// it aliases the operand's buffer, so the viewed BigInt must stay alive
// and unmodified for the view's lifetime.
struct BigInt::MagView {
  explicit MagView(const BigInt& v) {
    if (v.big_ == nullptr) {
      if (v.small_ != 0) own_.push_back(mag64(v.small_));
      p_ = &own_;
      neg_ = v.small_ < 0;
    } else {
      p_ = &v.big_->mag;
      neg_ = v.big_->negative;
    }
  }
  MagView(const MagView&) = delete;
  MagView& operator=(const MagView&) = delete;

  [[nodiscard]] const std::vector<u64>& mag() const { return *p_; }
  [[nodiscard]] bool neg() const { return neg_; }

 private:
  const std::vector<u64>* p_;
  std::vector<u64> own_;
  bool neg_;
};

BigInt BigInt::from_string(std::string_view s) {
  PSSE_CHECK(!s.empty(), "BigInt::from_string: empty input");
  bool neg = false;
  std::size_t i = 0;
  if (s[0] == '+' || s[0] == '-') {
    neg = s[0] == '-';
    i = 1;
  }
  PSSE_CHECK(i < s.size(), "BigInt::from_string: sign without digits");
  BigInt out;
  const BigInt ten(10);
  for (; i < s.size(); ++i) {
    PSSE_CHECK(s[i] >= '0' && s[i] <= '9',
               "BigInt::from_string: non-digit character");
    out *= ten;
    out += BigInt(s[i] - '0');
  }
  if (neg) out.negate();
  return out;
}

void BigInt::promote() {
  PSSE_ASSERT(big_ == nullptr);
  ++g_promotions;
  big_ = std::make_unique<Limbs>(Limbs{small_ < 0, {}});
  if (small_ != 0) big_->mag.push_back(mag64(small_));
  small_ = 0;
}

namespace {

// Strips trailing zero limbs; then, if the signed value fits int64_t,
// stores it in `out` and returns true.
bool fits_inline(std::vector<u64>& mag, bool neg, std::int64_t& out) {
  while (!mag.empty() && mag.back() == 0) mag.pop_back();
  if (mag.empty()) {
    out = 0;
    return true;
  }
  if (mag.size() != 1) return false;
  const u64 m = mag[0];
  if (!neg && m <= static_cast<u64>(std::numeric_limits<std::int64_t>::max())) {
    out = static_cast<std::int64_t>(m);
    return true;
  }
  if (neg && m <= (static_cast<u64>(1) << 63)) {
    // Two's complement conversion is well-defined in C++20; m == 2^63
    // maps to INT64_MIN.
    out = static_cast<std::int64_t>(~m + 1);
    return true;
  }
  return false;  // genuinely needs limb form
}

}  // namespace

void BigInt::trim() {
  PSSE_ASSERT(big_ != nullptr);
  std::int64_t v;
  if (!fits_inline(big_->mag, big_->negative, v)) return;
  big_.reset();
  small_ = v;
}

BigInt BigInt::from_u64_mag(u64 m) {
  if (m <= static_cast<u64>(std::numeric_limits<std::int64_t>::max())) {
    return BigInt(static_cast<std::int64_t>(m));
  }
  BigInt out;
  out.big_ = std::make_unique<Limbs>(Limbs{false, {m}});
  return out;
}

BigInt BigInt::from_mag(std::vector<u64> mag, bool neg) {
  BigInt out;
  if (!fits_inline(mag, neg, out.small_)) {
    out.big_ = std::make_unique<Limbs>(Limbs{neg, std::move(mag)});
  }
  return out;
}

void BigInt::negate() {
  if (big_ == nullptr) {
    if (small_ != std::numeric_limits<std::int64_t>::min()) {
      small_ = -small_;
      return;
    }
    // |INT64_MIN| does not fit inline: promote to a one-limb magnitude.
    ++g_promotions;
    big_ = std::make_unique<Limbs>(Limbs{false, {static_cast<u64>(1) << 63}});
    small_ = 0;
    return;
  }
  big_->negative = !big_->negative;  // limb form is never zero
  if (big_->mag.size() == 1) trim();  // -2^63 demotes back to inline
}

int BigInt::cmp_mag(const std::vector<u64>& a, const std::vector<u64>& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

void BigInt::add_mag(std::vector<u64>& a, const std::vector<u64>& b) {
  if (b.size() > a.size()) a.resize(b.size(), 0);
  unsigned carry = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    u64 bi = i < b.size() ? b[i] : 0;
    u64 sum = a[i] + bi;
    unsigned c1 = sum < a[i] ? 1u : 0u;
    sum += carry;
    unsigned c2 = sum < static_cast<u64>(carry) ? 1u : 0u;
    a[i] = sum;
    carry = c1 | c2;
    if (carry == 0 && i >= b.size()) break;
  }
  if (carry) a.push_back(1);
}

void BigInt::sub_mag(std::vector<u64>& a, const std::vector<u64>& b) {
  unsigned borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    u64 bi = i < b.size() ? b[i] : 0;
    u64 diff = a[i] - bi;
    unsigned b1 = a[i] < bi ? 1u : 0u;
    u64 diff2 = diff - borrow;
    unsigned b2 = diff < static_cast<u64>(borrow) ? 1u : 0u;
    a[i] = diff2;
    borrow = b1 | b2;
    if (borrow == 0 && i >= b.size()) break;
  }
  PSSE_ASSERT(borrow == 0);
  while (!a.empty() && a.back() == 0) a.pop_back();
}

std::vector<u64> BigInt::mul_mag(const std::vector<u64>& a,
                                 const std::vector<u64>& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<u64> out(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; j < b.size(); ++j) {
      unsigned __int128 cur =
          static_cast<unsigned __int128>(a[i]) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    out[i + b.size()] += carry;
  }
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

void BigInt::divmod_mag(const std::vector<u64>& num,
                        const std::vector<u64>& den, std::vector<u64>& quot,
                        std::vector<u64>& rem) {
  std::vector<u32> q32, r32;
  divmod32(to32(num), to32(den), q32, r32);
  quot = to64(q32);
  rem = to64(r32);
}

BigInt& BigInt::add_slow(const BigInt& rhs) {
  // Aliasing note: when &rhs == this the view below must not point into a
  // buffer we are about to overwrite; a self-add is inline-safe only, so
  // materialise a copy for the limb case.
  if (&rhs == this) {
    BigInt copy = rhs;
    return add_slow(copy);
  }
  if (big_ == nullptr) promote();
  const MagView rb(rhs);
  Limbs& l = *big_;
  if (l.negative == rb.neg()) {
    add_mag(l.mag, rb.mag());
  } else {
    int cmp = cmp_mag(l.mag, rb.mag());
    if (cmp == 0) {
      l.mag.clear();
    } else if (cmp > 0) {
      sub_mag(l.mag, rb.mag());
    } else {
      std::vector<u64> tmp = rb.mag();
      sub_mag(tmp, l.mag);
      l.mag = std::move(tmp);
      l.negative = rb.neg();
    }
  }
  trim();
  return *this;
}

BigInt& BigInt::sub_slow(const BigInt& rhs) { return add_slow(-rhs); }

BigInt& BigInt::mul_slow(const BigInt& rhs) {
  const bool rhsNeg = rhs.is_negative();
  if (&rhs == this) {
    BigInt copy = rhs;
    return mul_slow(copy);
  }
  if (big_ == nullptr) promote();
  const MagView rb(rhs);
  big_->negative = big_->negative != rhsNeg;
  big_->mag = mul_mag(big_->mag, rb.mag());
  trim();
  return *this;
}

BigInt& BigInt::div_slow(const BigInt& rhs) {
  PSSE_CHECK(!rhs.is_zero(), "BigInt: division by zero");
  if (big_ == nullptr) promote();
  const MagView rb(rhs);
  std::vector<u64> quot, rem;
  divmod_mag(big_->mag, rb.mag(), quot, rem);
  big_->negative = big_->negative != rb.neg();
  big_->mag = std::move(quot);
  trim();
  return *this;
}

BigInt& BigInt::mod_slow(const BigInt& rhs) {
  PSSE_CHECK(!rhs.is_zero(), "BigInt: modulo by zero");
  if (big_ == nullptr) promote();
  const MagView rb(rhs);
  std::vector<u64> quot, rem;
  divmod_mag(big_->mag, rb.mag(), quot, rem);
  // Remainder takes the dividend's sign (truncated division).
  big_->mag = std::move(rem);
  trim();
  return *this;
}

void BigInt::div_mod(const BigInt& num, const BigInt& den, BigInt& quot,
                     BigInt& rem) {
  PSSE_CHECK(!den.is_zero(), "BigInt: division by zero");
  if (num.big_ == nullptr && den.big_ == nullptr) {
    const std::int64_t n = num.small_;
    const std::int64_t d = den.small_;
    if (!(n == std::numeric_limits<std::int64_t>::min() && d == -1)) {
      quot = BigInt(n / d);
      rem = BigInt(n % d);
      return;
    }
    // INT64_MIN / -1: quotient 2^63 overflows inline form.
    quot = from_u64_mag(static_cast<u64>(1) << 63);
    rem = BigInt(0);
    return;
  }
  std::vector<u64> q, r;
  bool qneg, rneg;
  {
    const MagView mn(num), md(den);
    divmod_mag(mn.mag(), md.mag(), q, r);
    qneg = !q.empty() && (mn.neg() != md.neg());
    rneg = !r.empty() && mn.neg();
  }  // views die before quot/rem (possibly aliasing num/den) are written
  quot = from_mag(std::move(q), qneg);
  rem = from_mag(std::move(r), rneg);
}

std::strong_ordering BigInt::cmp_slow(const BigInt& a, const BigInt& b) {
  // At least one operand is in limb form; canonical form guarantees its
  // magnitude exceeds every inline value, so mixed compares are decided by
  // the limb operand's sign.
  if (b.big_ == nullptr) {
    return a.big_->negative ? std::strong_ordering::less
                            : std::strong_ordering::greater;
  }
  if (a.big_ == nullptr) {
    return b.big_->negative ? std::strong_ordering::greater
                            : std::strong_ordering::less;
  }
  if (a.big_->negative != b.big_->negative) {
    return a.big_->negative ? std::strong_ordering::less
                            : std::strong_ordering::greater;
  }
  int cmp = cmp_mag(a.big_->mag, b.big_->mag);
  if (a.big_->negative) cmp = -cmp;
  if (cmp < 0) return std::strong_ordering::less;
  if (cmp > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

namespace {

// Bit position of the lowest set bit of a non-zero magnitude.
std::size_t trailing_zero_bits(const std::vector<u64>& v) {
  std::size_t i = 0;
  while (v[i] == 0) ++i;  // non-zero magnitude: terminates
  return i * 64 + static_cast<std::size_t>(std::countr_zero(v[i]));
}

// In-place logical right shift of a magnitude by `bits`.
void shr_bits(std::vector<u64>& v, std::size_t bits) {
  const std::size_t limbShift = bits / 64;
  const unsigned bitShift = static_cast<unsigned>(bits % 64);
  if (limbShift >= v.size()) {
    v.clear();
    return;
  }
  if (limbShift != 0) {
    v.erase(v.begin(),
            v.begin() + static_cast<std::ptrdiff_t>(limbShift));
  }
  if (bitShift != 0) {
    for (std::size_t i = 0; i + 1 < v.size(); ++i) {
      v[i] = (v[i] >> bitShift) | (v[i + 1] << (64 - bitShift));
    }
    v.back() >>= bitShift;
  }
  while (!v.empty() && v.back() == 0) v.pop_back();
}

// In-place left shift of a magnitude by `bits`.
void shl_bits(std::vector<u64>& v, std::size_t bits) {
  if (v.empty() || bits == 0) return;
  const std::size_t limbShift = bits / 64;
  const unsigned bitShift = static_cast<unsigned>(bits % 64);
  if (bitShift != 0) {
    u64 carry = 0;
    for (u64& limb : v) {
      const u64 next = limb >> (64 - bitShift);
      limb = (limb << bitShift) | carry;
      carry = next;
    }
    if (carry != 0) v.push_back(carry);
  }
  if (limbShift != 0) {
    v.insert(v.begin(), limbShift, 0);
  }
}

// Binary GCD of two odd 64-bit values.
u64 gcd_odd_u64(u64 x, u64 y) {
  while (x != y) {
    if (x > y) std::swap(x, y);
    y -= x;  // even and non-zero
    y >>= std::countr_zero(y);
  }
  return x;
}

}  // namespace

BigInt BigInt::gcd_slow(const BigInt& a, const BigInt& b) {
  // Binary (Stein) GCD on the limb magnitudes: shift/subtract only. The
  // Euclid chain this replaces spent most of its time in divmod_mag —
  // including the u64<->u32 limb conversions long division needs — which
  // profiles as the single hottest block under Rational::normalize.
  std::vector<u64> x, y;
  {
    const MagView ma(a), mb(b);
    x = ma.mag();
    y = mb.mag();
  }
  if (x.empty()) return from_mag(std::move(y), false);
  if (y.empty()) return from_mag(std::move(x), false);
  const std::size_t zx = trailing_zero_bits(x);
  const std::size_t zy = trailing_zero_bits(y);
  shr_bits(x, zx);
  shr_bits(y, zy);
  // Both odd from here on; the loop keeps them that way.
  while (true) {
    if (x.size() == 1 && y.size() == 1) {
      x[0] = gcd_odd_u64(x[0], y[0]);
      break;
    }
    const int cmp = cmp_mag(x, y);
    if (cmp == 0) break;
    if (cmp < 0) x.swap(y);
    sub_mag(x, y);  // even, non-zero
    shr_bits(x, trailing_zero_bits(x));
  }
  shl_bits(x, std::min(zx, zy));  // restore the shared power of two
  return from_mag(std::move(x), false);
}

BigInt BigInt::pow10(unsigned exp) {
  BigInt out(1);
  const BigInt ten(10);
  for (unsigned i = 0; i < exp; ++i) out *= ten;
  return out;
}

BigInt BigInt::reference_add(const BigInt& a, const BigInt& b) {
  const MagView ma(a), mb(b);
  std::vector<u64> mag;
  bool neg;
  if (ma.neg() == mb.neg()) {
    mag = ma.mag();
    add_mag(mag, mb.mag());
    neg = ma.neg();
  } else {
    int cmp = cmp_mag(ma.mag(), mb.mag());
    if (cmp == 0) return BigInt(0);
    if (cmp > 0) {
      mag = ma.mag();
      sub_mag(mag, mb.mag());
      neg = ma.neg();
    } else {
      mag = mb.mag();
      sub_mag(mag, ma.mag());
      neg = mb.neg();
    }
  }
  return from_mag(std::move(mag), neg);
}

BigInt BigInt::reference_mul(const BigInt& a, const BigInt& b) {
  const MagView ma(a), mb(b);
  return from_mag(mul_mag(ma.mag(), mb.mag()), ma.neg() != mb.neg());
}

void BigInt::reference_div_mod(const BigInt& num, const BigInt& den,
                               BigInt& quot, BigInt& rem) {
  PSSE_CHECK(!den.is_zero(), "BigInt: division by zero");
  std::vector<u64> q, r;
  bool qneg, rneg;
  {
    const MagView mn(num), md(den);
    divmod_mag(mn.mag(), md.mag(), q, r);
    qneg = !q.empty() && (mn.neg() != md.neg());
    rneg = !r.empty() && mn.neg();
  }
  quot = from_mag(std::move(q), qneg);
  rem = from_mag(std::move(r), rneg);
}

BigInt BigInt::reference_gcd(const BigInt& a, const BigInt& b) {
  BigInt x = a.abs();
  BigInt y = b.abs();
  while (!y.is_zero()) {
    BigInt q, r;
    reference_div_mod(x, y, q, r);
    x = std::move(y);
    y = std::move(r);
  }
  return x;
}

int BigInt::reference_cmp(const BigInt& a, const BigInt& b) {
  const MagView ma(a), mb(b);
  const bool aZero = ma.mag().empty();
  const bool bZero = mb.mag().empty();
  const int asign = aZero ? 0 : (ma.neg() ? -1 : 1);
  const int bsign = bZero ? 0 : (mb.neg() ? -1 : 1);
  if (asign != bsign) return asign < bsign ? -1 : 1;
  int cmp = cmp_mag(ma.mag(), mb.mag());
  return asign < 0 ? -cmp : cmp;
}

std::int64_t BigInt::to_int64() const {
  PSSE_CHECK(big_ == nullptr, "BigInt::to_int64: value out of range");
  return small_;
}

double BigInt::to_double() const {
  if (big_ == nullptr) return static_cast<double>(small_);
  const std::vector<u64>& mag = big_->mag;
  double out = 0.0;
  for (std::size_t i = mag.size(); i-- > 0;) {
    out = out * 18446744073709551616.0 + static_cast<double>(mag[i]);
  }
  return big_->negative ? -out : out;
}

std::string BigInt::to_string() const {
  if (big_ == nullptr) return std::to_string(small_);
  std::vector<u32> mag = to32(big_->mag);
  std::string digits;
  // Repeatedly divide by 10^9 and emit 9 decimal digits at a time.
  while (!mag.empty()) {
    u64 rem = 0;
    for (std::size_t i = mag.size(); i-- > 0;) {
      u64 cur = (rem << 32) | mag[i];
      mag[i] = static_cast<u32>(cur / 1000000000u);
      rem = cur % 1000000000u;
    }
    while (!mag.empty() && mag.back() == 0) mag.pop_back();
    for (int d = 0; d < 9; ++d) {
      digits.push_back(static_cast<char>('0' + rem % 10));
      rem /= 10;
    }
  }
  while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  if (big_->negative) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

std::size_t BigInt::limb_hash() const {
  std::uint64_t h =
      big_->negative ? 0x2545f4914f6cdd1dULL : 0x9e3779b97f4a7c15ULL;
  for (u64 limb : big_->mag) h = mix_hash(h ^ limb);
  return static_cast<std::size_t>(h);
}

std::ostream& operator<<(std::ostream& os, const BigInt& v) {
  return os << v.to_string();
}

}  // namespace psse::smt
