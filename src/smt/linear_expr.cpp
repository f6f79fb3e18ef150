#include "smt/linear_expr.h"

#include <algorithm>

#include "smt/common.h"

namespace psse::smt {

LinExpr LinExpr::from_sorted_terms(
    std::vector<std::pair<TVar, Rational>> terms) {
  LinExpr out;
  out.terms_ = std::move(terms);
  for (std::size_t i = 0; i < out.terms_.size(); ++i) {
    PSSE_ASSERT(!out.terms_[i].second.is_zero());
    PSSE_ASSERT(i == 0 || out.terms_[i - 1].first < out.terms_[i].first);
  }
  return out;
}

void LinExpr::add_term(TVar v, const Rational& coeff) {
  if (coeff.is_zero()) return;
  auto it = std::lower_bound(
      terms_.begin(), terms_.end(), v,
      [](const auto& term, TVar key) { return term.first < key; });
  if (it != terms_.end() && it->first == v) {
    it->second += coeff;
    if (it->second.is_zero()) terms_.erase(it);
  } else {
    terms_.insert(it, {v, coeff});
  }
}

LinExpr& LinExpr::operator+=(const LinExpr& rhs) {
  // Merge two sorted term lists.
  std::vector<std::pair<TVar, Rational>> merged;
  merged.reserve(terms_.size() + rhs.terms_.size());
  std::size_t i = 0, j = 0;
  while (i < terms_.size() || j < rhs.terms_.size()) {
    if (j == rhs.terms_.size() ||
        (i < terms_.size() && terms_[i].first < rhs.terms_[j].first)) {
      merged.push_back(terms_[i++]);
    } else if (i == terms_.size() || rhs.terms_[j].first < terms_[i].first) {
      merged.push_back(rhs.terms_[j++]);
    } else {
      Rational sum = terms_[i].second + rhs.terms_[j].second;
      if (!sum.is_zero()) merged.emplace_back(terms_[i].first, std::move(sum));
      ++i;
      ++j;
    }
  }
  terms_ = std::move(merged);
  constant_ += rhs.constant_;
  return *this;
}

void LinExpr::add_scaled(const LinExpr& rhs, const Rational& k) {
  if (k.is_zero()) return;
  if (&rhs == this) {  // this += k*this
    *this *= k + Rational(1);
    return;
  }
  std::vector<std::pair<TVar, Rational>> merged;
  merged.reserve(terms_.size() + rhs.terms_.size());
  std::size_t i = 0, j = 0;
  while (i < terms_.size() || j < rhs.terms_.size()) {
    if (j == rhs.terms_.size() ||
        (i < terms_.size() && terms_[i].first < rhs.terms_[j].first)) {
      merged.push_back(std::move(terms_[i++]));
    } else if (i == terms_.size() || rhs.terms_[j].first < terms_[i].first) {
      // k and the coefficient are both nonzero, so the product is nonzero.
      merged.emplace_back(rhs.terms_[j].first, rhs.terms_[j].second * k);
      ++j;
    } else {
      Rational sum = std::move(terms_[i].second);
      sum.add_mul(rhs.terms_[j].second, k);
      if (!sum.is_zero()) merged.emplace_back(terms_[i].first, std::move(sum));
      ++i;
      ++j;
    }
  }
  terms_ = std::move(merged);
  constant_.add_mul(rhs.constant_, k);
}

void LinExpr::add_scaled(const LinExpr& rhs, const Rational& k,
                         std::vector<std::pair<TVar, Rational>>& scratch) {
  if (k.is_zero()) return;
  PSSE_ASSERT(&rhs != this);
  scratch.clear();
  scratch.reserve(terms_.size() + rhs.terms_.size());
  std::size_t i = 0, j = 0;
  while (i < terms_.size() || j < rhs.terms_.size()) {
    if (j == rhs.terms_.size() ||
        (i < terms_.size() && terms_[i].first < rhs.terms_[j].first)) {
      scratch.push_back(std::move(terms_[i++]));
    } else if (i == terms_.size() || rhs.terms_[j].first < terms_[i].first) {
      // k and the coefficient are both nonzero, so the product is nonzero.
      scratch.emplace_back(rhs.terms_[j].first, rhs.terms_[j].second * k);
      ++j;
    } else {
      Rational sum = std::move(terms_[i].second);
      sum.add_mul(rhs.terms_[j].second, k);
      if (!sum.is_zero()) scratch.emplace_back(terms_[i].first, std::move(sum));
      ++i;
      ++j;
    }
  }
  terms_.swap(scratch);  // old vector's capacity becomes next call's scratch
  constant_.add_mul(rhs.constant_, k);
}

LinExpr& LinExpr::operator-=(const LinExpr& rhs) {
  LinExpr neg = rhs;
  neg *= Rational(-1);
  return *this += neg;
}

LinExpr& LinExpr::operator*=(const Rational& k) {
  if (k.is_zero()) {
    terms_.clear();
    constant_ = Rational(0);
    return *this;
  }
  for (auto& [v, c] : terms_) c *= k;
  constant_ *= k;
  return *this;
}

LinExprNormalized LinExpr::normalized() const {
  PSSE_CHECK(!terms_.empty(), "LinExpr::normalized: constant expression");
  LinExprNormalized out;
  out.scale = terms_[0].second;
  out.offset = constant_;
  out.expr = *this;
  out.expr.constant_ = Rational(0);
  Rational inv = out.scale.inverse();
  for (auto& [v, c] : out.expr.terms_) c *= inv;
  return out;
}

std::string LinExpr::to_string() const {
  std::string out;
  for (const auto& [v, c] : terms_) {
    if (!out.empty()) out += " + ";
    out += c.to_string() + "*r" + std::to_string(v);
  }
  if (!constant_.is_zero() || out.empty()) {
    if (!out.empty()) out += " + ";
    out += constant_.to_string();
  }
  return out;
}

std::size_t LinExpr::hash() const {
  std::size_t h = constant_.hash();
  for (const auto& [v, c] : terms_) {
    h = h * 1000003u + static_cast<std::size_t>(v);
    h = h * 1000003u + c.hash();
  }
  return h;
}

}  // namespace psse::smt
