// Hash-consed boolean/arithmetic term DAG — the SMT solver's input language.
//
// TermRef packs (node index, negation bit) like a literal, so negation is
// free and double negation cancels structurally. Node kinds are minimal:
// constants, boolean variables, And, Or, and arithmetic atoms of the two
// canonical shapes `expr <= c` and `expr < c`; all other connectives and
// comparisons are rewritten at construction:
//
//   implies(a,b) = or(~a, b)          iff(a,b) = and(or(~a,b), or(~b,a))
//   e >= c  =  ~(e < c)               e > c  =  ~(e <= c)
//   e == c  =  (e <= c) & (e >= c)    e != c =  (e < c) | (e > c)
//
// Atoms are normalised (leading coefficient 1) so proportional constraints
// share one simplex slack variable.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "smt/linear_expr.h"
#include "smt/rational.h"

namespace psse::smt {

class TermRef {
 public:
  TermRef() = default;
  [[nodiscard]] bool valid() const { return code_ >= 0; }
  [[nodiscard]] std::int32_t index() const { return code_ >> 1; }
  [[nodiscard]] bool negated() const { return (code_ & 1) != 0; }
  [[nodiscard]] std::int32_t code() const { return code_; }
  [[nodiscard]] TermRef operator~() const { return from_code(code_ ^ 1); }
  static TermRef from_code(std::int32_t code) {
    TermRef t;
    t.code_ = code;
    return t;
  }
  static TermRef node(std::int32_t index, bool negated = false) {
    return from_code(2 * index + (negated ? 1 : 0));
  }
  friend bool operator==(TermRef a, TermRef b) { return a.code_ == b.code_; }
  friend bool operator<(TermRef a, TermRef b) { return a.code_ < b.code_; }

 private:
  std::int32_t code_ = -1;
};

enum class TermKind : std::uint8_t { True, BoolVar, And, Or, AtomLe, AtomLt };

struct TermNode {
  TermKind kind;
  std::vector<TermRef> children;  // And/Or
  std::string name;               // BoolVar
  LinExpr expr;                   // atoms: normalised variable part
  Rational bound;                 // atoms: right-hand side
};

class TermManager {
 public:
  TermManager();
  /// A deep copy: the same nodes under the same TermRefs (clones rely on
  /// this; see Solver's copy constructor).
  TermManager(const TermManager& other);
  TermManager& operator=(const TermManager&) = delete;

  /// The constant true/false terms.
  [[nodiscard]] TermRef mk_true() const { return TermRef::node(0); }
  [[nodiscard]] TermRef mk_false() const { return ~mk_true(); }

  /// A fresh named boolean variable (names are for diagnostics only and
  /// need not be unique).
  TermRef mk_bool(std::string name);
  /// A fresh real (theory) variable.
  TVar mk_real(std::string name);
  [[nodiscard]] int num_reals() const { return next_real_; }
  [[nodiscard]] const std::string& real_name(TVar v) const {
    return real_names_[static_cast<std::size_t>(v)];
  }

  TermRef mk_not(TermRef t) { return ~t; }
  /// N-ary conjunction; flattens constants, returns mk_true() when empty.
  TermRef mk_and(std::vector<TermRef> children);
  /// N-ary disjunction; flattens constants, returns mk_false() when empty.
  TermRef mk_or(std::vector<TermRef> children);
  TermRef mk_implies(TermRef a, TermRef b) { return mk_or({~a, b}); }
  TermRef mk_iff(TermRef a, TermRef b) {
    return mk_and({mk_or({~a, b}), mk_or({~b, a})});
  }
  TermRef mk_ite(TermRef c, TermRef t, TermRef e) {
    return mk_and({mk_or({~c, t}), mk_or({c, e})});
  }

  /// Comparisons of a linear expression against zero-folded constants.
  /// A constant expression folds to mk_true()/mk_false().
  TermRef mk_le(const LinExpr& e, const Rational& c);
  TermRef mk_lt(const LinExpr& e, const Rational& c);
  TermRef mk_ge(const LinExpr& e, const Rational& c) { return ~mk_lt(e, c); }
  TermRef mk_gt(const LinExpr& e, const Rational& c) { return ~mk_le(e, c); }
  TermRef mk_eq(const LinExpr& e, const Rational& c) {
    return mk_and({mk_le(e, c), mk_ge(e, c)});
  }
  TermRef mk_ne(const LinExpr& e, const Rational& c) {
    return mk_or({mk_lt(e, c), mk_gt(e, c)});
  }

  [[nodiscard]] const TermNode& node(TermRef t) const {
    return nodes_[static_cast<std::size_t>(t.index())];
  }
  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  /// Bytes held by the DAG: nodes with their children, names and atom
  /// coefficients, the hash buckets and the real-variable names. Nodes
  /// never change once made, so this is a running total kept where they
  /// are made (O(1); Solver::stats() reads it after every solve).
  [[nodiscard]] std::size_t footprint_bytes() const { return footprint_bytes_; }
  /// The same quantity by a walk over every node, bucket and name (O(size)).
  [[nodiscard]] std::size_t walk_footprint_bytes() const;

  /// Pretty-printer for diagnostics.
  [[nodiscard]] std::string to_string(TermRef t) const;

 private:
  TermRef intern(TermNode node, std::size_t hash);
  TermRef mk_nary(TermKind kind, std::vector<TermRef> children);
  TermRef mk_atom(TermKind kind, const LinExpr& e, const Rational& c);

  std::vector<TermNode> nodes_;
  std::unordered_map<std::size_t, std::vector<std::int32_t>> buckets_;
  std::vector<std::string> real_names_;
  TVar next_real_ = 0;
  std::size_t footprint_bytes_ = 0;
};

}  // namespace psse::smt
