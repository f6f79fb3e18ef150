#include "smt/term.h"

#include <algorithm>

#include "smt/common.h"

namespace psse::smt {

namespace {
std::size_t hash_combine(std::size_t a, std::size_t b) {
  return a * 1000003u + b + 0x9e3779b9u;
}

std::size_t node_hash(const TermNode& n) {
  std::size_t h = static_cast<std::size_t>(n.kind);
  for (TermRef c : n.children) {
    h = hash_combine(h, static_cast<std::size_t>(c.code()));
  }
  if (n.kind == TermKind::BoolVar) {
    // Boolean variables are never shared: each mk_bool call is fresh, so
    // hash by identity later (handled by the caller not interning them).
    h = hash_combine(h, 0xb001);
  }
  if (n.kind == TermKind::AtomLe || n.kind == TermKind::AtomLt) {
    h = hash_combine(h, n.expr.hash());
    h = hash_combine(h, n.bound.hash());
  }
  return h;
}

std::size_t node_bytes(const TermNode& n) {
  std::size_t bytes = sizeof(TermNode);
  bytes += n.children.capacity() * sizeof(TermRef);
  bytes += n.name.capacity();
  for (const auto& [v, coeff] : n.expr.terms()) {
    bytes += sizeof(std::pair<TVar, Rational>) + coeff.footprint_bytes();
  }
  return bytes;
}

bool node_equal(const TermNode& a, const TermNode& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case TermKind::True:
      return true;
    case TermKind::BoolVar:
      return false;  // fresh by construction
    case TermKind::And:
    case TermKind::Or:
      return a.children == b.children;
    case TermKind::AtomLe:
    case TermKind::AtomLt:
      return a.expr == b.expr && a.bound == b.bound;
  }
  return false;
}
}  // namespace

TermManager::TermManager() {
  // Node 0 is the constant `true`.
  nodes_.push_back(TermNode{TermKind::True, {}, {}, {}, {}});
  footprint_bytes_ = node_bytes(nodes_.back());
}

TermManager::TermManager(const TermManager& other)
    : nodes_(other.nodes_),
      buckets_(other.buckets_),
      real_names_(other.real_names_),
      next_real_(other.next_real_) {
  // Copied buffers need not keep their source's capacities.
  footprint_bytes_ = walk_footprint_bytes();
}

TermRef TermManager::intern(TermNode node, std::size_t hash) {
  auto [it, fresh] = buckets_.try_emplace(hash);
  std::vector<std::int32_t>& bucket = it->second;
  for (std::int32_t idx : bucket) {
    if (node_equal(nodes_[static_cast<std::size_t>(idx)], node)) {
      return TermRef::node(idx);
    }
  }
  std::int32_t idx = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(std::move(node));
  const std::size_t bucketCapacity = bucket.capacity();
  bucket.push_back(idx);
  footprint_bytes_ +=
      node_bytes(nodes_.back()) + (fresh ? sizeof(std::size_t) : 0) +
      (bucket.capacity() - bucketCapacity) * sizeof(std::int32_t);
  return TermRef::node(idx);
}

TermRef TermManager::mk_bool(std::string name) {
  std::int32_t idx = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(TermNode{TermKind::BoolVar, {}, std::move(name), {}, {}});
  footprint_bytes_ += node_bytes(nodes_.back());
  return TermRef::node(idx);
}

TVar TermManager::mk_real(std::string name) {
  TVar v = next_real_++;
  real_names_.push_back(name.empty() ? "x" + std::to_string(v)
                                     : std::move(name));
  footprint_bytes_ += real_names_.back().capacity();
  return v;
}

TermRef TermManager::mk_nary(TermKind kind, std::vector<TermRef> children) {
  const bool isAnd = kind == TermKind::And;
  const TermRef neutral = isAnd ? mk_true() : mk_false();
  const TermRef absorbing = ~neutral;
  // Flatten nested connectives of the same kind, drop neutral elements.
  std::vector<TermRef> flat;
  for (TermRef c : children) {
    PSSE_CHECK(c.valid(), "mk_and/mk_or: invalid term");
    if (c == neutral) continue;
    if (c == absorbing) return absorbing;
    const TermNode& n = node(c);
    if (!c.negated() && n.kind == kind) {
      flat.insert(flat.end(), n.children.begin(), n.children.end());
    } else {
      flat.push_back(c);
    }
  }
  std::sort(flat.begin(), flat.end());
  flat.erase(std::unique(flat.begin(), flat.end()), flat.end());
  // x and ~x together absorb.
  for (std::size_t i = 0; i + 1 < flat.size(); ++i) {
    if (flat[i + 1] == ~flat[i]) return absorbing;
  }
  if (flat.empty()) return neutral;
  if (flat.size() == 1) return flat[0];
  TermNode n{kind, std::move(flat), {}, {}, {}};
  std::size_t h = node_hash(n);
  return intern(std::move(n), h);
}

TermRef TermManager::mk_and(std::vector<TermRef> children) {
  return mk_nary(TermKind::And, std::move(children));
}

TermRef TermManager::mk_or(std::vector<TermRef> children) {
  // or(args) = ~and(~args) would also work, but a first-class Or keeps
  // Tseitin clauses small and the printer readable.
  return mk_nary(TermKind::Or, std::move(children));
}

TermRef TermManager::mk_atom(TermKind kind, const LinExpr& e,
                             const Rational& c) {
  Rational rhs = c - e.constant();
  if (e.is_constant()) {
    bool truth = kind == TermKind::AtomLe ? Rational(0) <= rhs
                                          : Rational(0) < rhs;
    return truth ? mk_true() : mk_false();
  }
  LinExprNormalized norm = e.normalized();
  rhs /= norm.scale;
  if (norm.scale.is_negative()) {
    // Dividing by a negative flips the comparison:
    //   e <= c  ==  n >= rhs  ==  ~(n < rhs)
    //   e <  c  ==  n >  rhs  ==  ~(n <= rhs)
    TermKind flipped =
        kind == TermKind::AtomLe ? TermKind::AtomLt : TermKind::AtomLe;
    TermNode n{flipped, {}, {}, norm.expr, rhs};
    std::size_t h = node_hash(n);
    return ~intern(std::move(n), h);
  }
  TermNode n{kind, {}, {}, norm.expr, rhs};
  std::size_t h = node_hash(n);
  return intern(std::move(n), h);
}

TermRef TermManager::mk_le(const LinExpr& e, const Rational& c) {
  return mk_atom(TermKind::AtomLe, e, c);
}

TermRef TermManager::mk_lt(const LinExpr& e, const Rational& c) {
  return mk_atom(TermKind::AtomLt, e, c);
}

std::size_t TermManager::walk_footprint_bytes() const {
  std::size_t bytes = 0;
  for (const TermNode& n : nodes_) bytes += node_bytes(n);
  for (const auto& [h, bucket] : buckets_) {
    bytes += sizeof(std::size_t) + bucket.capacity() * sizeof(std::int32_t);
  }
  for (const std::string& name : real_names_) bytes += name.capacity();
  return bytes;
}

std::string TermManager::to_string(TermRef t) const {
  if (!t.valid()) return "<invalid>";
  std::string body;
  const TermNode& n = node(t);
  switch (n.kind) {
    case TermKind::True:
      body = "true";
      break;
    case TermKind::BoolVar:
      body = n.name.empty() ? "b" + std::to_string(t.index()) : n.name;
      break;
    case TermKind::And:
    case TermKind::Or: {
      body = n.kind == TermKind::And ? "(and" : "(or";
      for (TermRef c : n.children) body += " " + to_string(c);
      body += ")";
      break;
    }
    case TermKind::AtomLe:
    case TermKind::AtomLt: {
      std::string op = n.kind == TermKind::AtomLe ? " <= " : " < ";
      std::string lhs;
      for (const auto& [v, coeff] : n.expr.terms()) {
        if (!lhs.empty()) lhs += " + ";
        std::string nm = v < static_cast<TVar>(real_names_.size())
                             ? real_names_[static_cast<std::size_t>(v)]
                             : "x" + std::to_string(v);
        lhs += coeff.is_zero() || coeff == Rational(1)
                   ? nm
                   : coeff.to_string() + "*" + nm;
      }
      body = "(" + lhs + op + n.bound.to_string() + ")";
      break;
    }
  }
  return t.negated() ? "(not " + body + ")" : body;
}

}  // namespace psse::smt
