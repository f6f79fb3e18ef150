#include "smt/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "smt/common.h"

namespace psse::smt {

namespace {

// Sorted-vector column index: set semantics via binary search.
void col_insert(std::vector<std::int32_t>& col, std::int32_t r) {
  auto it = std::lower_bound(col.begin(), col.end(), r);
  if (it == col.end() || *it != r) col.insert(it, r);
}

void col_erase(std::vector<std::int32_t>& col, std::int32_t r) {
  auto it = std::lower_bound(col.begin(), col.end(), r);
  if (it != col.end() && *it == r) col.erase(it);
}

// Sign of the exact coefficient a composed mirror entry shadows, when the
// error interval can prove it: +1 / -1 when the interval clears zero, 0 when
// the entry is exactly zero (a provably dead union-pattern entry), and 2
// when the interval straddles zero (NaN/inf poison to 2 as well). Mirror
// entries never read 0: Rational::approx() and every DoubleApprox operation
// add at least DoubleApprox::kEta to the error.
int shadow_sign(const DoubleApprox& a) {
  if (a.value > a.error) return 1;
  if (-a.value > a.error) return -1;
  if (a.value == 0.0 && a.error == 0.0) return 0;
  return 2;
}

}  // namespace

TVar Simplex::new_var(std::string name) {
  TVar v = static_cast<TVar>(vars_.size());
  VarState st;
  st.name = name.empty() ? "r" + std::to_string(v) : std::move(name);
  vars_.push_back(std::move(st));
  cols_.emplace_back();
  violated_flag_.push_back(false);
  interesting_.push_back(false);
  return v;
}

void Simplex::set_interesting(TVar v, bool on) {
  interesting_[static_cast<std::size_t>(v)] = on;
}

void Simplex::set_options(const SimplexOptions& options) {
  // Turning the filter off (or any reconfiguration) re-establishes the
  // fully exact invariant first, so the next check starts from clean state
  // whichever mode it runs in.
  restore_all_betas();
  if (options_.eta_tableau && !options.eta_tableau) {
    // Leaving eta mode: the eager path assumes every exact row is current.
    make_all_fresh();  // empties every pending list
    etas_.clear();
  }
  check_exact_fallback_ = false;
  options_ = options;
}

void Simplex::touch(TVar v) {
  if (violated_flag_[static_cast<std::size_t>(v)]) return;
  const VarState& st = vars_[static_cast<std::size_t>(v)];
  if (st.row < 0) return;
  if (st.stale) {
    // Float margin: skip only when provably inside both bounds; equality
    // or an undersized margin enqueues conservatively (check() certifies).
    const bool lowOk =
        !st.lower.active || st.beta_f.definitely_greater(st.lower.approx);
    const bool upOk =
        !st.upper.active || st.beta_f.definitely_less(st.upper.approx);
    if (lowOk && upOk) return;
  } else if (in_bounds(v)) {
    return;
  }
  violated_flag_[static_cast<std::size_t>(v)] = true;
  violated_.push_back(v);
}

void Simplex::mark_row_dirty(std::int32_t rowIdx, bool upper) {
  if (!options_.derive_bounds) return;
  std::uint8_t& mask = row_dirty_[static_cast<std::size_t>(rowIdx)];
  const std::uint8_t bit = upper ? 2 : 1;
  if ((mask & bit) != 0) return;
  if (mask == 0) dirty_rows_.push_back(rowIdx);
  mask |= bit;
}

void Simplex::hold_row_place(std::int32_t rowIdx) {
  std::uint8_t& mask = row_dirty_[static_cast<std::size_t>(rowIdx)];
  if (mask != 0) return;
  dirty_rows_.push_back(rowIdx);
  mask = 4;
}

bool Simplex::blocked(const Row& row, bool upper) const {
  const TVar b = row.blocker[upper ? 1 : 0];
  if (b == kNoTVar) return false;
  const VarState& st = vars_[static_cast<std::size_t>(b)];
  const bool consumesUpper = (row.blocker_upper & (upper ? 2 : 1)) != 0;
  return !(consumesUpper ? st.upper.active : st.lower.active);
}

void Simplex::refresh_mirror(Row& row) {
  mirror_nnz_ -= row.mirror.size();
  row.mirror.clear();
  row.mirror.reserve(row.expr.terms().size());
  for (const auto& [v, c] : row.expr.terms()) {
    row.mirror.emplace_back(v, c.approx());
  }
  mirror_nnz_ += row.mirror.size();
  // The terms changed, so the cached derivations no longer describe this
  // row (their vals/revs are aligned term-for-term with the old expr), and
  // the blockers were read off the old mirror.
  row.derive[0].valid = false;
  row.derive[1].valid = false;
  row.blocker[0] = row.blocker[1] = kNoTVar;
}

TVar Simplex::slack_for(const LinExpr& expr) {
  PSSE_CHECK(!expr.is_constant(), "slack_for: constant expression");
  PSSE_CHECK(expr.constant().is_zero(),
             "slack_for: expression must have zero constant part");
  if (auto it = slack_cache_.find(expr); it != slack_cache_.end()) {
    return it->second;
  }
  TVar s = new_var("s" + std::to_string(rows_.size()));
  // Row: s = sum(expr), substituting any basic variables by their rows so
  // the tableau stays in solved form. Those rows may be lagging the eta
  // file, so realise them first.
  for (const auto& [v, c] : expr.terms()) {
    const std::int32_t r = vars_[static_cast<std::size_t>(v)].row;
    if (r >= 0) ensure_fresh(r);
  }
  Row row;
  row.owner = s;
  LinExpr substituted;
  for (const auto& [v, c] : expr.terms()) {
    const VarState& st = vars_[static_cast<std::size_t>(v)];
    if (st.row >= 0) {
      substituted.add_scaled(rows_[static_cast<std::size_t>(st.row)].expr, c);
    } else {
      substituted.add_term(v, c);
    }
  }
  row.expr = std::move(substituted);
  // The creation-time identity s = expr-in-solved-form holds in every later
  // tableau (pivots only re-present the same system); it is the immutable
  // ground truth refactorisation rebuilds from.
  row.orig_owner = s;
  row.orig = row.expr;
  refresh_mirror(row);
  base_nnz_ += row.mirror.size();
  std::int32_t rowIdx = static_cast<std::int32_t>(rows_.size());
  // beta(s) := value of the expression under the current assignment. Column
  // variables are non-basic (solved form), so their betas are exact.
  DeltaRational val;
  for (const auto& [v, c] : row.expr.terms()) {
    PSSE_ASSERT(!vars_[static_cast<std::size_t>(v)].stale);
    val.add_mul(vars_[static_cast<std::size_t>(v)].beta, c);
    col_insert(cols_[static_cast<std::size_t>(v)], rowIdx);
  }
  VarState& sst = vars_[static_cast<std::size_t>(s)];
  sst.beta = std::move(val);
  sst.beta_f = sst.beta.real().approx();
  sst.row = rowIdx;
  rows_.push_back(std::move(row));
  row_dirty_.push_back(0);
  mark_row_dirty(rowIdx, false);
  mark_row_dirty(rowIdx, true);
  slack_cache_.emplace(expr, s);
  return s;
}

const Rational* Simplex::row_coeff(const Row& row, TVar v) const {
  const std::ptrdiff_t i = row_term_index(row, v);
  return i < 0 ? nullptr : &row.expr.terms()[static_cast<std::size_t>(i)].second;
}

const DoubleApprox* Simplex::mirror_coeff(const Row& row, TVar v) const {
  auto it = std::lower_bound(
      row.mirror.begin(), row.mirror.end(), v,
      [](const auto& e, TVar key) { return e.first < key; });
  if (it != row.mirror.end() && it->first == v) return &it->second;
  return nullptr;
}

std::ptrdiff_t Simplex::row_term_index(const Row& row, TVar v) const {
  const auto& terms = row.expr.terms();
  auto it = std::lower_bound(
      terms.begin(), terms.end(), v,
      [](const auto& term, TVar key) { return term.first < key; });
  if (it != terms.end() && it->first == v) return it - terms.begin();
  return -1;
}

bool Simplex::in_bounds(TVar v) const {
  const VarState& st = vars_[static_cast<std::size_t>(v)];
  PSSE_ASSERT(!st.stale);
  if (st.lower.active && st.beta < st.lower.value) return false;
  if (st.upper.active && st.beta > st.upper.value) return false;
  return true;
}

void Simplex::restore_beta(TVar v) {
  VarState& st = vars_[static_cast<std::size_t>(v)];
  PSSE_ASSERT(st.row >= 0 && st.stale);
  // Certification reads the exact terms — realise any pending etas first.
  ensure_fresh(st.row);
  const Row& row = rows_[static_cast<std::size_t>(st.row)];
  DeltaRational acc;
  for (const auto& [x, c] : row.expr.terms()) {
    const VarState& xs = vars_[static_cast<std::size_t>(x)];
    PSSE_ASSERT(!xs.stale);  // solved form: column variables are non-basic
    acc.add_mul(xs.beta, c);
  }
  st.beta = std::move(acc);
  st.beta_f = st.beta.real().approx();
  st.stale = false;
  --stale_count_;
  ++exact_recomputes_;
}

void Simplex::restore_all_betas() {
  if (stale_count_ == 0) return;
  for (TVar v = 0; v < static_cast<TVar>(vars_.size()); ++v) {
    if (vars_[static_cast<std::size_t>(v)].stale) restore_beta(v);
    if (stale_count_ == 0) break;
  }
  PSSE_ASSERT(stale_count_ == 0);
}

bool Simplex::set_bound(TVar v, const DeltaRational& bound, Lit reason,
                        bool is_upper) {
  concrete_delta_.reset();
  VarState& st = vars_[static_cast<std::size_t>(v)];
  Bound& mine = is_upper ? st.upper : st.lower;
  const Bound& other = is_upper ? st.lower : st.upper;

  // Redundant (not tighter) assertions need no trail entry.
  if (mine.active &&
      (is_upper ? bound >= mine.value : bound <= mine.value)) {
    return true;
  }
  // Immediate conflict with the opposite bound.
  if (other.active && (is_upper ? bound < other.value : bound > other.value)) {
    conflict_.clear();
    conflict_.push_back(~reason);
    if (other.reason.valid()) conflict_.push_back(~other.reason);
    return false;
  }
  trail_.push_back({v, is_upper, mine});
  mine.value = bound;
  mine.approx = bound.real().approx();
  mine.revision = ++bound_revision_;
  mine.reason = reason;
  mine.active = true;
  if (options_.derive_bounds) {
    fresh_bounds_.emplace_back(v, is_upper);
    // A bound on one side of v only perturbs the row side that consumes it:
    // an upper bound feeds the side that wants positive columns at their
    // upper bound (mirrored through the coefficient sign). The sign is read
    // off the float mirror so exact rows stay untouched: a provably dead
    // union-pattern entry marks nothing, an uncertain sign marks both sides
    // (conservative, and identical whichever eta mode runs).
    //
    // A row blocked on both sides skips the mirror lookup: whichever side
    // this event marks fails again at the drain, unless its blocker's
    // consumed bound is asserted first, and that assertion walks the row
    // here and marks the side (`mine` is already active, so its own rows
    // are not blocked by it). The row is still queued, as the full walk
    // would queue it (no mirror entry is provably zero, see shadow_sign, so
    // every column event queues its row): the drain order steers the CDCL
    // search.
    for (std::int32_t r : cols_[static_cast<std::size_t>(v)]) {
      const Row& row = rows_[static_cast<std::size_t>(r)];
      if (blocked(row, false) && blocked(row, true)) {
        hold_row_place(r);
        continue;
      }
      const DoubleApprox* m = mirror_coeff(row, v);
      PSSE_ASSERT(m != nullptr);  // cols_ tracks the mirror pattern
      switch (shadow_sign(*m)) {
        case 0:
          break;
        case 1:
          mark_row_dirty(r, is_upper);
          break;
        case -1:
          mark_row_dirty(r, !is_upper);
          break;
        default:
          mark_row_dirty(r, false);
          mark_row_dirty(r, true);
          break;
      }
    }
  }

  if (st.row < 0) {
    // Non-basic: keep it inside its bounds eagerly. Dependent basic
    // variables may drift out of bounds, so feasibility must be rechecked.
    PSSE_ASSERT(!st.stale);
    if (is_upper ? st.beta > bound : st.beta < bound) {
      ++bound_flips_;
      update(v, bound, mine.approx);
      maybe_infeasible_ = true;
    }
  } else if (st.stale) {
    // Float-shadowed basic variable: recheck unless provably on the right
    // side of the new bound (equality counts as a recheck — cheap and rare).
    const bool safe = is_upper ? mine.approx.definitely_greater(st.beta_f)
                               : st.beta_f.definitely_greater(mine.approx);
    if (!safe) {
      maybe_infeasible_ = true;
      touch(v);
    }
  } else if (is_upper ? st.beta > bound : st.beta < bound) {
    maybe_infeasible_ = true;
    touch(v);
  }
  return true;
}

bool Simplex::assert_upper(TVar v, const DeltaRational& bound, Lit reason) {
  return set_bound(v, bound, reason, true);
}

bool Simplex::assert_lower(TVar v, const DeltaRational& bound, Lit reason) {
  return set_bound(v, bound, reason, false);
}

void Simplex::pop_to(std::size_t mark) {
  PSSE_ASSERT(mark <= trail_.size());
  concrete_delta_.reset();
  while (trail_.size() > mark) {
    TrailEntry e = std::move(trail_.back());
    trail_.pop_back();
    VarState& st = vars_[static_cast<std::size_t>(e.var)];
    (e.is_upper ? st.upper : st.lower) = e.previous;
  }
}

void Simplex::update(TVar v, const DeltaRational& newVal,
                     const DoubleApprox& newApprox) {
  VarState& st = vars_[static_cast<std::size_t>(v)];
  PSSE_ASSERT(st.row < 0 && !st.stale);
  DeltaRational diff = newVal - st.beta;
  if (diff.is_zero()) {
    st.beta_f = newApprox;  // fresh conversion is at least as tight
    return;
  }
  const DoubleApprox diffF = newApprox - st.beta_f;
  const bool fm = float_mode();
  for (std::int32_t r : cols_[static_cast<std::size_t>(v)]) {
    const Row& row = rows_[static_cast<std::size_t>(r)];
    const DoubleApprox* m = mirror_coeff(row, v);
    PSSE_ASSERT(m != nullptr);
    VarState& ost = vars_[static_cast<std::size_t>(row.owner)];
    ost.beta_f.add_mul(diffF, *m);
    if (fm) {
      if (!ost.stale) {
        ost.stale = true;
        ++stale_count_;
      }
    } else {
      PSSE_ASSERT(!ost.stale);
      // Exact path: the row's current terms are authoritative; a dead
      // union-pattern entry means the exact coefficient is zero and the
      // assignment doesn't move.
      ensure_fresh(r);
      if (const Rational* c = row_coeff(row, v)) ost.beta.add_mul(diff, *c);
    }
    touch(row.owner);
  }
  st.beta = newVal;
  st.beta_f = newApprox;
}

void Simplex::pivot(std::int32_t rowIdx, TVar entering) {
  ++pivots_;
  ++pivots_since_refactor_;
  mark_row_dirty(rowIdx, false);
  mark_row_dirty(rowIdx, true);
  ensure_fresh(rowIdx);
  Row& row = rows_[static_cast<std::size_t>(rowIdx)];
  TVar leaving = row.owner;
  const Rational* aPtr = row_coeff(row, entering);
  PSSE_ASSERT(aPtr != nullptr && !aPtr->is_zero());
  Rational inv = aPtr->inverse();

  // Solve the row for `entering`:
  //   leaving = a*entering + rest  =>  entering = inv*leaving - inv*rest.
  std::vector<std::pair<TVar, Rational>> newTerms;
  newTerms.reserve(row.expr.terms().size());
  for (const auto& [v, c] : row.expr.terms()) {
    if (v == entering) continue;
    Rational nc = c;
    nc *= inv;
    nc.negate();
    newTerms.emplace_back(v, std::move(nc));
  }
  {
    // Insert the leaving variable keeping terms sorted.
    auto it = std::lower_bound(
        newTerms.begin(), newTerms.end(), leaving,
        [](const auto& term, TVar key) { return term.first < key; });
    newTerms.insert(it, {leaving, std::move(inv)});
  }
  row.owner = entering;
  row.expr = LinExpr::from_sorted_terms(std::move(newTerms));
  // Snapshot the old mirror pattern, rebuild the pivot row's mirror tight
  // (a shared resynchronisation point of both eta modes), and patch the
  // column index by old/new pattern set difference — with composed mirrors
  // the patterns may differ by more than -entering/+leaving.
  col_vars_scratch_.clear();
  col_vars_scratch_.reserve(row.mirror.size());
  for (const auto& [v, m] : row.mirror) col_vars_scratch_.push_back(v);
  refresh_mirror(row);
  {
    const auto& nm = row.mirror;
    std::size_t i = 0, j = 0;
    while (i < col_vars_scratch_.size() || j < nm.size()) {
      if (j == nm.size() || (i < col_vars_scratch_.size() &&
                             col_vars_scratch_[i] < nm[j].first)) {
        col_erase(cols_[static_cast<std::size_t>(col_vars_scratch_[i])],
                  rowIdx);
        ++i;
      } else if (i == col_vars_scratch_.size() ||
                 nm[j].first < col_vars_scratch_[i]) {
        col_insert(cols_[static_cast<std::size_t>(nm[j].first)], rowIdx);
        ++j;
      } else {
        ++i;
        ++j;
      }
    }
  }
  vars_[static_cast<std::size_t>(leaving)].row = -1;
  vars_[static_cast<std::size_t>(entering)].row = rowIdx;

  const bool eta = options_.eta_tableau;
  const bool fm = float_mode();
  if (eta) {
    // Record the update; dependent exact rows will fold it in lazily. The
    // pivot row itself is already past its own eta (its solved form has no
    // entering term, so the replay would be a no-op anyway).
    etas_.push_back({entering, row.expr});
    ++eta_updates_;
    eta_file_len_max_ =
        std::max<std::uint64_t>(eta_file_len_max_, etas_.size());
  }

  // Substitute `entering` in every dependent row's float mirror (identical
  // in both modes); the exact terms follow eagerly (eager mode, or the
  // exact fallback realising the fresh eta immediately) or lazily (eta
  // mode). The dependents and their mirror coefficients were collected by
  // pivot_and_update; the column set itself is mutated during
  // substitution.
  for (const auto& [r, b] : dependents_) {
    mark_row_dirty(r, false);
    mark_row_dirty(r, true);
    float_substitute(r, entering, b, row);
    if (eta) {
      rows_[static_cast<std::size_t>(r)].pending.push_back(
          static_cast<std::uint32_t>(etas_.size() - 1));
      ++pending_total_;
    }
    if (!eta) {
      Row& other = rows_[static_cast<std::size_t>(r)];
      if (const Rational* bPtr = row_coeff(other, entering)) {
        // other = b*entering + rest'  =>  substitute entering by its new
        // row: drop the entering term, then fuse-in b * row (one merge,
        // add_mul per coincident coefficient, no intermediate expression).
        Rational b = *bPtr;
        Rational negB = b;
        negB.negate();
        other.expr.add_term(entering, negB);  // cancels exactly
        other.expr.add_scaled(row.expr, b, merge_scratch_);
        other.derive[0].valid = false;
        other.derive[1].valid = false;
      }
    } else if (!fm) {
      // Once the interrupt fires, the rest keep the fresh eta pending, as
      // eta mode does: check() returns right after this pivot.
      static_cast<void>(ensure_fresh_or_stop(r));
    }
  }
}

void Simplex::float_substitute(std::int32_t r, TVar entering,
                               const DoubleApprox& b, const Row& pivotRow) {
  Row& other = rows_[static_cast<std::size_t>(r)];
  const auto& pm = pivotRow.mirror;
  // Merge other.mirror (minus the entering entry, which cancels
  // structurally) with b * pivot mirror. Entries are never dropped on ~0
  // values — the union pattern is what keeps cols_ and the exact pattern's
  // superset invariant mode-independent; refactorize() purges the dead
  // weight. The accumulated error bounds feed the refactorisation trigger.
  mirror_scratch_.clear();
  mirror_scratch_.reserve(other.mirror.size() + pm.size());
  std::size_t i = 0, j = 0;
  while (i < other.mirror.size() || j < pm.size()) {
    if (j == pm.size() ||
        (i < other.mirror.size() && other.mirror[i].first < pm[j].first)) {
      if (other.mirror[i].first != entering) {
        mirror_scratch_.push_back(other.mirror[i]);
      }
      ++i;
    } else if (i == other.mirror.size() ||
               pm[j].first < other.mirror[i].first) {
      const DoubleApprox nv = pm[j].second * b;
      if (nv.error > max_mirror_err_) max_mirror_err_ = nv.error;
      mirror_scratch_.emplace_back(pm[j].first, nv);
      col_insert(cols_[static_cast<std::size_t>(pm[j].first)], r);
      ++j;
    } else {
      DoubleApprox nv = other.mirror[i].second;
      nv.add_mul(pm[j].second, b);
      if (nv.error > max_mirror_err_) max_mirror_err_ = nv.error;
      mirror_scratch_.emplace_back(pm[j].first, nv);
      ++i;
      ++j;
    }
  }
  mirror_nnz_ -= other.mirror.size();
  mirror_nnz_ += mirror_scratch_.size();
  other.mirror.swap(mirror_scratch_);
  other.blocker[0] = other.blocker[1] = kNoTVar;
  col_erase(cols_[static_cast<std::size_t>(entering)], r);
}

bool Simplex::replay_pending(std::int32_t rowIdx, const Interrupt* poll) {
  Row& row = rows_[static_cast<std::size_t>(rowIdx)];
  if (row.pending.empty()) return true;
  obs::ScopedPhaseTimer timer(phases_ == nullptr ? nullptr
                                                 : &phases_->ftran_us);
  // Replay the pending eta entries in order; each one is exactly the
  // substitution the eager path performed at that pivot, so the result is
  // bit-identical to the eagerly maintained row. The pending list was
  // recorded off the pivot-time mirror pattern — a superset of the exact
  // pattern at that moment — so an entry can still miss the exact terms
  // (structurally dead ~0 mirror entry), but no hitting eta is ever
  // outside the list, and the list order is pivot order, which keeps the
  // replay chronological. A replayed prefix is the eager row as of that
  // prefix's last pivot, so stopping between entries leaves a row that the
  // rest of the list brings up to date. One entry on coefficients grown
  // large can take milliseconds, hence the poll before each one that
  // changes the row (a miss costs one binary search and is not polled).
  bool changed = false;
  std::size_t done = 0;
  for (; done < row.pending.size(); ++done) {
    const Eta& e = etas_[row.pending[done]];
    const Rational* bPtr = row_coeff(row, e.entered);
    if (bPtr == nullptr) continue;
    if (poll != nullptr && poll->triggered()) break;
    Rational b = *bPtr;
    Rational negB = b;
    negB.negate();
    row.expr.add_term(e.entered, negB);  // cancels exactly
    row.expr.add_scaled(e.def, b, merge_scratch_);
    changed = true;
  }
  if (changed) {
    row.derive[0].valid = false;
    row.derive[1].valid = false;
  }
  pending_total_ -= done;
  if (done < row.pending.size()) {
    row.pending.erase(row.pending.begin(),
                      row.pending.begin() + static_cast<std::ptrdiff_t>(done));
    return false;
  }
  row.pending.clear();
  return true;
}

void Simplex::make_all_fresh() {
  for (std::int32_t r = 0; r < static_cast<std::int32_t>(rows_.size()); ++r) {
    ensure_fresh(r);
  }
}

bool Simplex::should_refactor() const {
  if (pivots_since_refactor_ == 0) return false;
  if (pivots_since_refactor_ >= options_.eta_refactor_len) return true;
  if (static_cast<double>(mirror_nnz_) >
      options_.eta_refactor_fill * static_cast<double>(base_nnz_)) {
    return true;
  }
  return max_mirror_err_ > options_.eta_error_budget;
}

bool Simplex::refactorize() {
  obs::ScopedPhaseTimer timer(phases_ == nullptr ? nullptr
                                                 : &phases_->btran_us);
  if (options_.eta_tableau) {
    // Two equivalent ways to make every exact row current (the dictionary
    // per basis is unique, so both land on bit-identical rows): drain the
    // deferred backlog row by row, or re-derive the whole dictionary from
    // the creation identities. Draining costs exactly the substitutions
    // the eager path would have performed; the Markowitz rebuild costs a
    // full sparse elimination regardless of backlog length, which only
    // wins once laziness has banked several times the tableau's worth of
    // skipped work (long eta files on large, lightly-queried tableaus).
    // Either can take hundreds of milliseconds once coefficients have
    // grown, so both stop on the interrupt before anything below runs: a
    // partly drained backlog is still a valid eta file.
    if (pending_total_ > 8 * rows_.size()) {
      if (!rebuild_rows_from_origs()) return false;
      for (Row& row : rows_) row.pending.clear();
      pending_total_ = 0;
    } else {
      for (std::int32_t r = 0; r < static_cast<std::int32_t>(rows_.size());
           ++r) {
        if (!ensure_fresh_or_stop(r)) return false;
      }
    }
    PSSE_ASSERT(pending_total_ == 0);
  }
  ++refactorisations_;
  etas_.clear();
  pivots_since_refactor_ = 0;
  max_mirror_err_ = 0.0;
  // Both modes resynchronise the float state here: tight mirrors rebuilt
  // from the (now current) exact rows, column index rebuilt to the tight
  // patterns. Betas and bounds are untouched — the dictionary a row set
  // presents is unique per basis, so nothing visible moves.
  for (Row& row : rows_) {
    row.pending.clear();
    refresh_mirror(row);
  }
  for (auto& col : cols_) col.clear();
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    for (const auto& [v, m] : rows_[r].mirror) {
      cols_[static_cast<std::size_t>(v)].push_back(static_cast<std::int32_t>(r));
    }
  }
  base_nnz_ = mirror_nnz_;
  return true;
}

bool Simplex::rebuild_rows_from_origs() {
  // From-scratch solve of the immutable creation identities
  // {orig_owner_i = orig_i} for the *current* basis: Markowitz-ordered
  // sparse Gaussian elimination (pick the (equation, basic var) pivot with
  // the emptiest column, then the shortest equation) followed by reverse
  // back-substitution. The dictionary for a basis is unique and rationals
  // are canonical, so the rebuilt rows equal the eagerly maintained ones
  // bit for bit — the cost is independent of how many etas were pending.
  const std::size_t m = rows_.size();
  const std::size_t nv = vars_.size();
  std::vector<LinExpr> eqs(m);
  std::vector<std::int32_t> basicRow(nv, -1);
  for (std::size_t r = 0; r < m; ++r) {
    basicRow[static_cast<std::size_t>(rows_[r].owner)] =
        static_cast<std::int32_t>(r);
    LinExpr eq = rows_[r].orig;
    eq *= Rational(-1);
    eq.add_term(rows_[r].orig_owner, Rational(1));
    eqs[r] = std::move(eq);
  }
  // Column index of *unsolved basis* variables over the remaining
  // equations, plus the solved forms as they appear.
  std::vector<std::vector<std::int32_t>> bcols(nv);
  for (std::size_t e = 0; e < m; ++e) {
    for (const auto& [v, c] : eqs[e].terms()) {
      if (basicRow[static_cast<std::size_t>(v)] >= 0) {
        bcols[static_cast<std::size_t>(v)].push_back(
            static_cast<std::int32_t>(e));
      }
    }
  }
  std::vector<char> eqDone(m, 0);
  std::vector<char> varSolved(nv, 0);
  std::vector<LinExpr> solvedExpr(nv);
  std::vector<TVar> order;
  order.reserve(m);
  std::vector<TVar> basisVars;
  basisVars.reserve(m);
  for (std::size_t r = 0; r < m; ++r) basisVars.push_back(rows_[r].owner);
  auto coeff_of = [](const LinExpr& ex, TVar v) -> const Rational* {
    const auto& ts = ex.terms();
    auto it = std::lower_bound(
        ts.begin(), ts.end(), v,
        [](const auto& term, TVar key) { return term.first < key; });
    if (it != ts.end() && it->first == v) return &it->second;
    return nullptr;
  };
  // Collects an equation's unsolved-basis footprint (sorted, since terms
  // are) for the column-index patch around a substitution.
  std::vector<TVar> beforeVars;
  std::vector<TVar> afterVars;
  auto basis_footprint = [&](const LinExpr& ex, std::vector<TVar>& into) {
    into.clear();
    for (const auto& [v, c] : ex.terms()) {
      if (basicRow[static_cast<std::size_t>(v)] >= 0 &&
          varSolved[static_cast<std::size_t>(v)] == 0) {
        into.push_back(v);
      }
    }
  };

  // Polled once per elimination step, per substitution into a remaining
  // equation and per back-substitution: all of the work is on the local
  // copies above, so stopping anywhere leaves rows_ untouched.
  auto stopped = [this] {
    return interrupt_ != nullptr && interrupt_->triggered();
  };
  for (std::size_t step = 0; step < m; ++step) {
    if (stopped()) return false;
    // Markowitz-flavoured pivot selection: emptiest unsolved column first
    // (a column of one eliminates with zero fill), shortest equation within
    // it. Invertibility of the basis submatrix guarantees a candidate.
    TVar bestV = kNoTVar;
    std::size_t bestC = std::numeric_limits<std::size_t>::max();
    for (TVar v : basisVars) {
      if (varSolved[static_cast<std::size_t>(v)] != 0) continue;
      const std::size_t c = bcols[static_cast<std::size_t>(v)].size();
      if (c < bestC || (c == bestC && v < bestV)) {
        bestC = c;
        bestV = v;
        if (c == 1) break;
      }
    }
    PSSE_ASSERT(bestV != kNoTVar && bestC >= 1);
    std::int32_t bestE = -1;
    std::size_t bestLen = std::numeric_limits<std::size_t>::max();
    for (std::int32_t e : bcols[static_cast<std::size_t>(bestV)]) {
      const std::size_t len = eqs[static_cast<std::size_t>(e)].terms().size();
      if (len < bestLen) {
        bestLen = len;
        bestE = e;
      }
    }
    PSSE_ASSERT(bestE >= 0);
    LinExpr& eq = eqs[static_cast<std::size_t>(bestE)];
    const Rational* aPtr = coeff_of(eq, bestV);
    PSSE_ASSERT(aPtr != nullptr && !aPtr->is_zero());
    // Solve eq (== 0) for bestV: S = -(1/a) * (eq - a*bestV).
    Rational a = *aPtr;
    LinExpr solved = eq;
    Rational negA = a;
    negA.negate();
    solved.add_term(bestV, negA);
    Rational scale = a.inverse();
    scale.negate();
    solved *= scale;
    varSolved[static_cast<std::size_t>(bestV)] = 1;
    order.push_back(bestV);
    eqDone[static_cast<std::size_t>(bestE)] = 1;
    // The retired equation leaves every unsolved-basis column it occupied.
    for (const auto& [v, c] : eq.terms()) {
      if (basicRow[static_cast<std::size_t>(v)] >= 0 &&
          varSolved[static_cast<std::size_t>(v)] == 0) {
        col_erase(bcols[static_cast<std::size_t>(v)], bestE);
      }
    }
    solvedExpr[static_cast<std::size_t>(bestV)] = std::move(solved);
    const LinExpr& S = solvedExpr[static_cast<std::size_t>(bestV)];
    // Eliminate bestV from every remaining equation that mentions it.
    std::vector<std::int32_t> users = bcols[static_cast<std::size_t>(bestV)];
    for (std::int32_t f : users) {
      if (eqDone[static_cast<std::size_t>(f)] != 0) continue;
      if (stopped()) return false;
      LinExpr& eqf = eqs[static_cast<std::size_t>(f)];
      const Rational* bPtr = coeff_of(eqf, bestV);
      PSSE_ASSERT(bPtr != nullptr);
      Rational b = *bPtr;
      basis_footprint(eqf, beforeVars);
      Rational negB = b;
      negB.negate();
      eqf.add_term(bestV, negB);
      eqf.add_scaled(S, b, merge_scratch_);
      basis_footprint(eqf, afterVars);
      std::size_t i = 0, j = 0;
      while (i < beforeVars.size() || j < afterVars.size()) {
        if (j == afterVars.size() ||
            (i < beforeVars.size() && beforeVars[i] < afterVars[j])) {
          col_erase(bcols[static_cast<std::size_t>(beforeVars[i])], f);
          ++i;
        } else if (i == beforeVars.size() || afterVars[j] < beforeVars[i]) {
          col_insert(bcols[static_cast<std::size_t>(afterVars[j])], f);
          ++j;
        } else {
          ++i;
          ++j;
        }
      }
    }
    bcols[static_cast<std::size_t>(bestV)].clear();
  }
  // Back-substitution in reverse pivot order: a solved form may still
  // reference basis variables pivoted *later*; those are already final when
  // visited here, so one pass over each solved form suffices.
  std::vector<TVar> pending;
  for (std::size_t k = order.size(); k-- > 0;) {
    LinExpr& S = solvedExpr[static_cast<std::size_t>(order[k])];
    pending.clear();
    for (const auto& [v, c] : S.terms()) {
      if (basicRow[static_cast<std::size_t>(v)] >= 0) pending.push_back(v);
    }
    for (TVar w : pending) {
      const Rational* bPtr = coeff_of(S, w);
      if (bPtr == nullptr) continue;  // cancelled by an earlier substitution
      if (stopped()) return false;
      Rational b = *bPtr;
      Rational negB = b;
      negB.negate();
      S.add_term(w, negB);
      S.add_scaled(solvedExpr[static_cast<std::size_t>(w)], b,
                   merge_scratch_);
    }
  }
  for (std::size_t r = 0; r < m; ++r) {
    rows_[r].expr =
        std::move(solvedExpr[static_cast<std::size_t>(rows_[r].owner)]);
  }
  return true;
}

void Simplex::pivot_and_update(std::int32_t rowIdx, TVar entering,
                               const DeltaRational& target,
                               const DoubleApprox& targetApprox) {
  // check() selected off a fresh row, but keep the invariant local: the
  // pivot element below is read from the exact terms.
  ensure_fresh(rowIdx);
  Row& row = rows_[static_cast<std::size_t>(rowIdx)];
  TVar leaving = row.owner;
  const std::ptrdiff_t ai = row_term_index(row, entering);
  PSSE_ASSERT(ai >= 0);
  VarState& leaveSt = vars_[static_cast<std::size_t>(leaving)];
  VarState& enterSt = vars_[static_cast<std::size_t>(entering)];
  PSSE_ASSERT(!enterSt.stale);  // entering is non-basic
  const bool fm = float_mode();
  if (fm) ++float_pivots_;
  const Rational inv =
      row.expr.terms()[static_cast<std::size_t>(ai)].second.inverse();
  // theta: how far the entering variable must move. In float mode the
  // leaving variable's exact assignment may be stale, but its shadow (with
  // its accumulated error) is enough: the leaving variable lands exactly on
  // `target` either way, and every dependent shift is shadow-tracked.
  const DoubleApprox thetaF = (targetApprox - leaveSt.beta_f) * inv.approx();
  DeltaRational theta;
  if (!fm) {
    PSSE_ASSERT(!leaveSt.stale);
    theta = (target - leaveSt.beta) * inv;
  }
  leaveSt.beta = target;
  leaveSt.beta_f = targetApprox;
  if (leaveSt.stale) {
    leaveSt.stale = false;
    --stale_count_;
  }
  enterSt.beta_f = enterSt.beta_f + thetaF;
  if (fm) {
    enterSt.stale = true;
    ++stale_count_;
  } else {
    enterSt.beta += theta;
  }
  // Other basic variables depending on `entering` shift too. cols_ tracks
  // the mirror pattern, so the shadow update always has its entry; the
  // exact coefficient can be structurally dead (union-pattern ~0 entry) or
  // lagging the eta file — realise the row first, then a missing exact term
  // means the assignment truly doesn't move. Each dependent's mirror
  // coefficient is kept for pivot(): the row's mirror does not change
  // before float_substitute reads it.
  dependents_.clear();
  for (std::int32_t r : cols_[static_cast<std::size_t>(entering)]) {
    if (r == rowIdx) continue;
    const Row& other = rows_[static_cast<std::size_t>(r)];
    const DoubleApprox* m = mirror_coeff(other, entering);
    PSSE_ASSERT(m != nullptr);
    dependents_.emplace_back(r, *m);
    VarState& ost = vars_[static_cast<std::size_t>(other.owner)];
    ost.beta_f.add_mul(thetaF, *m);
    if (fm) {
      if (!ost.stale) {
        ost.stale = true;
        ++stale_count_;
      }
    } else {
      PSSE_ASSERT(!ost.stale);
      ensure_fresh(r);
      if (const Rational* c = row_coeff(other, entering)) {
        ost.beta.add_mul(theta, *c);
      }
    }
    touch(other.owner);
  }
  pivot(rowIdx, entering);
  // The entering variable is basic now and may have been pushed past one of
  // its own bounds by theta.
  touch(entering);
}

void Simplex::build_conflict_from_row(const Row& row, bool lowerViolated) {
  conflict_.clear();
  const VarState& owner = vars_[static_cast<std::size_t>(row.owner)];
  // lowerViolated: beta(owner) < lower(owner) and no entering var can raise
  // it; the explanation is owner's lower bound plus, for each positive
  // coefficient the column's upper bound, for each negative its lower.
  const Bound& ownBound = lowerViolated ? owner.lower : owner.upper;
  PSSE_ASSERT(ownBound.active);
  if (ownBound.reason.valid()) conflict_.push_back(~ownBound.reason);
  for (const auto& [v, c] : row.expr.terms()) {
    const VarState& st = vars_[static_cast<std::size_t>(v)];
    bool needUpper = lowerViolated ? !c.is_negative() : c.is_negative();
    const Bound& b = needUpper ? st.upper : st.lower;
    PSSE_ASSERT(b.active);
    if (b.reason.valid()) conflict_.push_back(~b.reason);
  }
}

bool Simplex::check() {
  if (!maybe_infeasible_) return true;
  obs::ScopedPhaseTimer timer(phases_ == nullptr ? nullptr
                                                 : &phases_->simplex_us);
  concrete_delta_.reset();
  // With the filter off every assignment must already be exact
  // (set_options restores on reconfiguration).
  PSSE_ASSERT(options_.float_filter || stale_count_ == 0);
  check_exact_fallback_ = false;
  // Heuristic pivot selection has no termination guarantee (it can cycle on
  // degenerate tableaus); after the per-check budget it hands over to strict
  // Bland's rule, which cannot cycle.
  bool bland = !options_.heuristic_pivoting;
  std::uint64_t pivotsThisCheck = 0;
  std::uint32_t disagreements = 0;

  // A certification whose exact outcome contradicts a *margin-proven*
  // float verdict — float drift beyond the tracked error envelope, which
  // the interval arithmetic is built to rule out, so any occurrence means
  // the envelope is too tight for this instance. Past the per-check budget
  // the filter has lost the plot and the rest of the check runs on the
  // exact path. (Uncertain classifications that get resolved exactly are
  // *not* disagreements — that is the filter working as designed.)
  auto note_disagreement = [&] {
    ++filter_disagreements_;
    if (++disagreements > options_.filter_disagreement_budget &&
        !check_exact_fallback_) {
      check_exact_fallback_ = true;
      ++filter_fallbacks_;
      restore_all_betas();
    }
  };

  // A non-finite pivot score — an overflowed mirror coefficient, or an
  // inf-inf NaN in a violation amount — is float state the error envelope
  // cannot even describe, so the float path is abandoned for the rest of
  // the check on first sight (no budget: one inf means every later score
  // is suspect). The candidate keeps a zero score rather than being
  // skipped: dropping it could turn a poisoned mirror into a fabricated
  // "no entering variable" conflict, and conflicts must only ever come
  // from the exact tableau.
  auto finite_or_zero = [&](double score) -> double {
    if (std::isfinite(score)) return score;
    ++filter_disagreements_;
    if (!check_exact_fallback_) {
      check_exact_fallback_ = true;
      ++filter_fallbacks_;
      restore_all_betas();
    }
    return 0.0;
  };

  // Classifies a basic candidate's bound violation. Float margins decide
  // when they provably clear the error envelope (lexicographic
  // delta-rational order: a strict real-part margin decides regardless of
  // the delta parts); otherwise the exact assignment is restored and the
  // comparison is exact — a certification point. The restore reads the
  // candidate's row; when the interrupt cuts its replay short, `stopped`
  // is set and the classification is meaningless.
  bool stopped = false;
  auto classify = [&](TVar cand) -> std::pair<bool, bool> {
    VarState& cst = vars_[static_cast<std::size_t>(cand)];
    if (cst.stale) {
      bool uncertain = false;
      bool lowViol = false;
      if (cst.lower.active) {
        if (cst.lower.approx.definitely_greater(cst.beta_f)) {
          lowViol = true;
        } else if (!cst.beta_f.definitely_greater(cst.lower.approx)) {
          uncertain = true;
        }
      }
      bool upViol = false;
      if (!lowViol && cst.upper.active) {
        if (cst.beta_f.definitely_greater(cst.upper.approx)) {
          upViol = true;
        } else if (!cst.upper.approx.definitely_greater(cst.beta_f)) {
          uncertain = true;
        }
      }
      if (!uncertain) return {lowViol, upViol};
      // Resolve exactly, and score the float point estimate's prediction:
      // a mispredicting float state is drifting through territory the error
      // envelope cannot separate, so past the budget the check stops paying
      // for restores and runs exact.
      const bool guessLow =
          cst.lower.active && cst.beta_f.value < cst.lower.approx.value;
      const bool guessUp = !guessLow && cst.upper.active &&
                           cst.beta_f.value > cst.upper.approx.value;
      if (!ensure_fresh_or_stop(cst.row)) {
        stopped = true;
        return {false, false};
      }
      restore_beta(cand);
      const bool exLow = cst.lower.active && cst.beta < cst.lower.value;
      const bool exUp =
          !exLow && cst.upper.active && cst.beta > cst.upper.value;
      if (exLow != guessLow || exUp != guessUp) note_disagreement();
      return {exLow, exUp};
    }
    const bool exLow = cst.lower.active && cst.beta < cst.lower.value;
    const bool exUp = !exLow && cst.upper.active && cst.beta > cst.upper.value;
    return {exLow, exUp};
  };

  for (;;) {
    // Budgets used to be enforced only between SAT decisions, so one long
    // pivot sequence could blow far past the wall-clock limit; poll before
    // every pivot, because one pivot on a dense tableau can take hundreds
    // of milliseconds. maybe_infeasible_ stays set, so an aborted check
    // redoes no bookkeeping it shouldn't.
    if (interrupt_ != nullptr && interrupt_->triggered()) {
      interrupted_dirty_ = true;
      return true;
    }
    if (!bland && pivotsThisCheck >= options_.bland_fallback_after) {
      bland = true;
      ++bland_fallbacks_;
    }
    // Leaving variable from the candidate worklist, compacting away entries
    // that are back in bounds (or were pivoted non-basic): Bland takes the
    // smallest index, the heuristic the largest violation. The heuristic
    // scores in floating point — any pivot choice is sound, and exact
    // delta-rational differences here would dominate the whole check on
    // instances with hairy denominators.
    TVar violated = kNoTVar;
    bool lowerViolated = false;
    double bestViolation = -1.0;
    std::size_t w = 0;
    for (std::size_t i = 0; i < violated_.size(); ++i) {
      TVar cand = violated_[i];
      const VarState& cst = vars_[static_cast<std::size_t>(cand)];
      if (cst.row < 0) {
        violated_flag_[static_cast<std::size_t>(cand)] = false;
        continue;
      }
      const auto [lowViol, upViol] = classify(cand);
      if (stopped) {
        // Interrupted check: the unclassified rest of the worklist, this
        // candidate included, stays queued.
        violated_.erase(violated_.begin() + static_cast<std::ptrdiff_t>(w),
                        violated_.begin() + static_cast<std::ptrdiff_t>(i));
        interrupted_dirty_ = true;
        return true;
      }
      if (!lowViol && !upViol) {
        violated_flag_[static_cast<std::size_t>(cand)] = false;
        continue;
      }
      violated_[w++] = cand;
      if (bland) {
        if (violated == kNoTVar || cand < violated) {
          violated = cand;
          lowerViolated = lowViol;
        }
        continue;
      }
      const double bound =
          lowViol ? cst.lower.approx.value : cst.upper.approx.value;
      const double beta = cst.beta_f.value;
      const double amount =
          finite_or_zero(lowViol ? bound - beta : beta - bound);
      if (violated == kNoTVar || amount > bestViolation ||
          (amount == bestViolation && cand < violated)) {
        violated = cand;
        lowerViolated = lowViol;
        bestViolation = amount;
      }
    }
    violated_.resize(w);
    if (violated == kNoTVar) {
      // Feasible. Stale assignments may remain — they are restored lazily
      // (model extraction restores everything via compute_delta).
      maybe_infeasible_ = false;
      interrupted_dirty_ = false;
      return true;
    }

    const VarState& st = vars_[static_cast<std::size_t>(violated)];
    std::int32_t rowIdx = st.row;
    // Selection reads the exact terms (suitability must be authoritative),
    // so the violated row is the one place per pivot the eta backlog is
    // always realised. A replay cut short is an interrupted check.
    if (!ensure_fresh_or_stop(rowIdx)) {
      interrupted_dirty_ = true;
      return true;
    }
    const Row& row = rows_[static_cast<std::size_t>(rowIdx)];
    // Entering variable among the suitable columns: Bland takes the
    // smallest index, the heuristic the largest coefficient magnitude
    // (bigger steps toward the violated bound per pivot; small pivot
    // elements also blow up the rationals of every rebuilt row). Column
    // variables are non-basic, so their betas are exact and suitability is
    // too; the magnitude score reads the row mirror — a merge-walk, since
    // the mirror pattern is a superset of the exact pattern.
    TVar entering = kNoTVar;
    double bestMagnitude = -1.0;
    const auto& terms = row.expr.terms();
    std::size_t mi = 0;
    for (std::size_t ti = 0; ti < terms.size(); ++ti) {
      const TVar v = terms[ti].first;
      const Rational& c = terms[ti].second;
      while (mi < row.mirror.size() && row.mirror[mi].first < v) ++mi;
      PSSE_ASSERT(mi < row.mirror.size() && row.mirror[mi].first == v);
      const VarState& cv = vars_[static_cast<std::size_t>(v)];
      PSSE_ASSERT(!cv.stale);
      bool suitable;
      if (lowerViolated) {
        // Need to increase the owner.
        suitable = !c.is_negative()
                       ? (!cv.upper.active || cv.beta < cv.upper.value)
                       : (!cv.lower.active || cv.beta > cv.lower.value);
      } else {
        // Need to decrease the owner.
        suitable = !c.is_negative()
                       ? (!cv.lower.active || cv.beta > cv.lower.value)
                       : (!cv.upper.active || cv.beta < cv.upper.value);
      }
      if (!suitable) continue;
      if (bland) {
        if (entering == kNoTVar || v < entering) entering = v;
        continue;
      }
      const double magnitude =
          finite_or_zero(std::fabs(row.mirror[mi].second.value));
      if (entering == kNoTVar || magnitude > bestMagnitude ||
          (magnitude == bestMagnitude && v < entering)) {
        entering = v;
        bestMagnitude = magnitude;
      }
    }
    if (entering == kNoTVar) {
      // Certification point: never emit a conflict off a float-only
      // assignment. Margin-proven violations are already exact facts, but
      // the conflict is the one artifact the CDCL core consumes, so the
      // violation is always re-established from the exact tableau first.
      VarState& vst = vars_[static_cast<std::size_t>(violated)];
      if (vst.stale) {
        restore_beta(violated);
        const bool still =
            lowerViolated ? (vst.lower.active && vst.beta < vst.lower.value)
                          : (vst.upper.active && vst.beta > vst.upper.value);
        if (!still) {
          note_disagreement();
          continue;  // re-scan; the candidate is now exact
        }
      }
      build_conflict_from_row(row, lowerViolated);
      interrupted_dirty_ = false;
      return false;
    }
    pivot_and_update(rowIdx, entering,
                     lowerViolated ? st.lower.value : st.upper.value,
                     lowerViolated ? st.lower.approx : st.upper.approx);
    ++pivotsThisCheck;
    // The trigger reads only mode-identical state (pivot count, mirror
    // fill, mirror error), so both eta modes refactorise — and re-tighten
    // their float mirrors — at exactly the same pivots.
    if (should_refactor() && !refactorize()) {
      interrupted_dirty_ = true;
      return true;
    }
  }
}

void Simplex::propagate_implied(std::vector<ImpliedBound>& out) {
  // Only a feasibility-checked bound set may propagate: while
  // maybe_infeasible_ is set (pending, conflicting, or interrupted check)
  // the pending work simply stays queued for the next drain.
  if (!options_.derive_bounds || maybe_infeasible_) return;
  if (fresh_bounds_.empty() && dirty_rows_.empty()) return;
  obs::ScopedPhaseTimer timer(phases_ == nullptr ? nullptr
                                                 : &phases_->tprop_us);
  for (const auto& [v, isUpper] : fresh_bounds_) {
    if (!interesting_[static_cast<std::size_t>(v)]) continue;
    const VarState& st = vars_[static_cast<std::size_t>(v)];
    // Republish the variable's current bound on that side (the recorded
    // assertion may have been retracted or superseded since).
    const Bound& b = isUpper ? st.upper : st.lower;
    if (!b.active || !b.reason.valid()) continue;
    out.push_back({v, isUpper, b.value, {b.reason}});
  }
  fresh_bounds_.clear();
  for (std::size_t i = 0; i < dirty_rows_.size(); ++i) {
    const std::int32_t r = dirty_rows_[i];
    const std::uint8_t mask = row_dirty_[static_cast<std::size_t>(r)];
    row_dirty_[static_cast<std::size_t>(r)] = 0;
    if ((mask & 3) == 0) continue;  // queued by hold_row_place only
    if (!interesting_[static_cast<std::size_t>(
            rows_[static_cast<std::size_t>(r)].owner)]) {
      continue;
    }
    const bool upperDone = (mask & 2) == 0 || derive_row_bound(r, true, out);
    if (upperDone && ((mask & 1) == 0 || derive_row_bound(r, false, out))) {
      continue;
    }
    // Interrupted while realising the row: this row's unfinished sides and
    // every row after it stay queued for the next drain.
    row_dirty_[static_cast<std::size_t>(r)] =
        static_cast<std::uint8_t>(upperDone ? (mask & 1) : mask);
    dirty_rows_.erase(dirty_rows_.begin(),
                      dirty_rows_.begin() + static_cast<std::ptrdiff_t>(i));
    return;
  }
  dirty_rows_.clear();
}

bool Simplex::derive_row_bound(std::int32_t rowIdx, bool upper,
                               std::vector<ImpliedBound>& out) {
  {
    Row& row = rows_[static_cast<std::size_t>(rowIdx)];
    // The cached blocker still lacks its bound: the prepass below would
    // fail again, at this column or an earlier one.
    if (blocked(row, upper)) return true;
    const VarState& owner = vars_[static_cast<std::size_t>(row.owner)];
    const Bound& own = upper ? owner.upper : owner.lower;
    // Mirror prepass — the row's exact terms may be lagging the eta file,
    // but the composed mirror is always current and its error intervals
    // classify each entry: a sign-certain entry proves the exact
    // coefficient nonzero, so an inactive bound on its consuming side kills
    // the derivation with no exact work (and no eta replay) at all. This is
    // most attempts: 98.5% of 1.0M on the ieee118 refutation in data/,
    // 80% over the fig4a suite. The killing column becomes the side's
    // blocker, so repeat attempts stop above until that column gets its
    // bound, and set_bound stops marking rows blocked on both sides (which
    // cuts the attempts on that refutation to 256k). A provably dead
    // ~0 entry is an exact cancellation the exact row doesn't (or won't)
    // contain; an uncertain entry can neither kill nor be summed, so it only
    // disables the screen. When every entry is sign-certain the mirror
    // pattern IS the exact pattern and the float sum rigorously encloses the
    // implied value — the margin screen below then skips rows that provably
    // cannot tighten the owner's bound, identical on both eta modes since
    // the mirrors are. (Dropping uncertain derivations outright would also
    // be sound — hints don't affect completeness — but it destabilizes the
    // search: measured 6x slower on ieee300.)
    bool screenable = options_.float_filter && own.active;
    DoubleApprox sum;
    for (const auto& [v, m] : row.mirror) {
      const int sg = shadow_sign(m);
      if (sg == 0) continue;
      if (sg == 2) {
        screenable = false;
        continue;
      }
      const VarState& st = vars_[static_cast<std::size_t>(v)];
      const bool consumesUpper = upper != (sg < 0);
      const Bound& b = consumesUpper ? st.upper : st.lower;
      if (!b.active) {
        // One unbounded column kills the derivation; remember which.
        const std::uint8_t bit = upper ? 2 : 1;
        row.blocker[upper ? 1 : 0] = v;
        row.blocker_upper = static_cast<std::uint8_t>(
            consumesUpper ? (row.blocker_upper | bit)
                          : (row.blocker_upper & ~bit));
        return true;
      }
      if (screenable) sum.add_mul(b.approx, m);
    }
    if (screenable) {
      const bool skip = upper ? sum.definitely_greater(own.approx)
                              : own.approx.definitely_greater(sum);
      if (skip) return true;
    }
  }

  // Anything past the screen reads the exact terms; realise the row (this
  // is where the eta mode pays, and only for rows that actually emit or
  // come within a float margin of emitting).
  if (!ensure_fresh_or_stop(rowIdx)) return false;
  Row& row = rows_[static_cast<std::size_t>(rowIdx)];
  const VarState& owner = vars_[static_cast<std::size_t>(row.owner)];
  const Bound& own = upper ? owner.upper : owner.lower;
  const auto& terms = row.expr.terms();

  auto emit = [&](const DeltaRational& implied) {
    ImpliedBound ib;
    ib.var = row.owner;
    ib.is_upper = upper;
    ib.bound = implied;
    ib.premises.reserve(terms.size());
    for (const auto& [v, c] : terms) {
      const VarState& st = vars_[static_cast<std::size_t>(v)];
      const Bound& b = (upper != c.is_negative()) ? st.upper : st.lower;
      if (b.reason.valid()) ib.premises.push_back(b.reason);
    }
    out.push_back(std::move(ib));
  };

  // One scan over the exact inputs: (a) an unbounded column whose mirror
  // entry was uncertain still kills here, authoritatively; (b) against a
  // cache aligned with the current terms, the scan notes whether any input
  // bound value moved.
  DeriveCache& dc = row.derive[upper ? 1 : 0];
  const bool aligned = dc.valid && dc.vals.size() == terms.size();
  bool changed = !aligned;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    const VarState& st = vars_[static_cast<std::size_t>(terms[i].first)];
    const Bound& b =
        (upper != terms[i].second.is_negative()) ? st.upper : st.lower;
    if (!b.active) return true;  // one unbounded column kills the derivation
    if (aligned && b.revision != dc.revs[i]) {
      if (b.value != dc.vals[i]) {
        changed = true;
      } else {
        dc.revs[i] = b.revision;  // re-assertion of the cached value
      }
    }
  }

  // Revision-cache replay: nothing moved since the last exact pass, so the
  // cached implied value is current — repeat the emission decision with no
  // exact arithmetic (see DeriveCache). In particular every exact tie
  // (owner bound == implied bound, undecidable by any float margin) is
  // disposed of here. The cache is NOT invalidated by a screen skip above:
  // its (rev, contribution) pairs stay consistent with `implied`, so a
  // later derivation patches incrementally.
  if (!changed) {
    if (own.active &&
        (upper ? own.value <= dc.implied : own.value >= dc.implied)) {
      return true;
    }
    emit(dc.implied);
    return true;
  }

  if (options_.float_filter) ++exact_recomputes_;
  if (aligned) {
    // Incremental exact pass: patch only the terms whose input bound value
    // moved — usually exactly one, and by a small difference — so
    // O(changed) exact work instead of an O(row length) recomputation.
    for (std::size_t i = 0; i < terms.size(); ++i) {
      const VarState& st = vars_[static_cast<std::size_t>(terms[i].first)];
      const Bound& b =
          (upper != terms[i].second.is_negative()) ? st.upper : st.lower;
      if (b.revision == dc.revs[i]) continue;
      dc.revs[i] = b.revision;
      if (b.value == dc.vals[i]) continue;
      dc.implied.add_mul(b.value - dc.vals[i], terms[i].second);
      dc.vals[i] = b.value;
    }
  } else {
    // Full exact pass, (re)priming the cache.
    DeltaRational implied;
    dc.valid = false;
    dc.vals.clear();
    dc.vals.reserve(terms.size());
    dc.revs.clear();
    dc.revs.reserve(terms.size());
    for (const auto& [v, c] : terms) {
      const VarState& st = vars_[static_cast<std::size_t>(v)];
      // An upper bound on the owner needs each positive column at its
      // upper bound and each negative column at its lower (mirrored for a
      // lower bound on the owner).
      const Bound& b = (upper != c.is_negative()) ? st.upper : st.lower;
      PSSE_ASSERT(b.active);  // the scan above returned on dead inputs
      implied.add_mul(b.value, c);
      dc.vals.push_back(b.value);
      dc.revs.push_back(b.revision);
    }
    dc.implied = std::move(implied);
    dc.valid = true;
  }
  // An asserted bound at least as tight already implies everything this
  // derivation could.
  if (own.active &&
      (upper ? own.value <= dc.implied : own.value >= dc.implied)) {
    return true;
  }
  emit(dc.implied);
  return true;
}

void Simplex::compute_delta() {
  // Model extraction reads every assignment, so this is a certification
  // point: restore all float-shadowed assignments first.
  restore_all_betas();
  // Choose a concrete positive delta small enough that replacing the
  // symbolic delta keeps every bound satisfied: for each pair
  // (bound, beta) with bound.real < beta.real but bound.delta > beta.delta
  // (or the symmetric case), delta < (beta.real - bound.real) /
  // (bound.delta - beta.delta).
  Rational delta(1);
  auto tighten = [&](const DeltaRational& lo, const DeltaRational& hi) {
    // Constraint lo <= hi must survive delta instantiation.
    if (lo.real() < hi.real() && lo.delta() > hi.delta()) {
      Rational cand = (hi.real() - lo.real()) / (lo.delta() - hi.delta());
      if (cand < delta) delta = cand;
    }
  };
  for (const VarState& st : vars_) {
    if (st.lower.active) tighten(st.lower.value, st.beta);
    if (st.upper.active) tighten(st.beta, st.upper.value);
  }
  // Halve once so strict constraints hold strictly even at equality of the
  // limiting ratio.
  concrete_delta_ = delta * Rational(1, 2);
}

Rational Simplex::model_value(TVar v) {
  // An interrupted check() left the betas mid-repair; consuming them as a
  // model would silently return junk. Callers must re-run check() to
  // completion first (a wrong answer is worse than a crash).
  PSSE_ASSERT(!interrupted_dirty_);
  if (!concrete_delta_.has_value()) compute_delta();
  const VarState& st = vars_[static_cast<std::size_t>(v)];
  PSSE_ASSERT(!st.stale);
  return st.beta.real() + st.beta.delta() * *concrete_delta_;
}

std::size_t Simplex::footprint_bytes() const {
  std::size_t bytes = 0;
  for (const VarState& st : vars_) {
    bytes += sizeof(VarState);
    bytes += st.beta.real().footprint_bytes() +
             st.beta.delta().footprint_bytes();
    bytes += st.lower.value.real().footprint_bytes() +
             st.upper.value.real().footprint_bytes();
  }
  for (const Row& row : rows_) {
    bytes += sizeof(Row);
    for (const auto& [v, c] : row.expr.terms()) {
      bytes += sizeof(std::pair<TVar, Rational>) + c.footprint_bytes();
    }
    for (const auto& [v, c] : row.orig.terms()) {
      bytes += sizeof(std::pair<TVar, Rational>) + c.footprint_bytes();
    }
    bytes += row.mirror.capacity() * sizeof(std::pair<TVar, DoubleApprox>);
    bytes += row.pending.capacity() * sizeof(std::uint32_t);
    for (const DeriveCache& dc : row.derive) {
      bytes += dc.revs.capacity() * sizeof(std::uint64_t);
      bytes += dc.implied.real().footprint_bytes() +
               dc.implied.delta().footprint_bytes();
      for (const DeltaRational& t : dc.vals) {
        bytes += sizeof(DeltaRational) + t.real().footprint_bytes() +
                 t.delta().footprint_bytes();
      }
    }
  }
  for (const auto& col : cols_) {
    bytes += col.capacity() * sizeof(std::int32_t);  // sorted vector, no hash overhead
  }
  bytes += trail_.capacity() * sizeof(TrailEntry);
  bytes += violated_.capacity() * sizeof(TVar);
  bytes += fresh_bounds_.capacity() * sizeof(std::pair<TVar, bool>);
  bytes += dirty_rows_.capacity() * sizeof(std::int32_t);
  bytes += merge_scratch_.capacity() * sizeof(std::pair<TVar, Rational>);
  bytes += mirror_scratch_.capacity() * sizeof(std::pair<TVar, DoubleApprox>);
  for (const Eta& e : etas_) {
    bytes += sizeof(Eta);
    for (const auto& [v, c] : e.def.terms()) {
      bytes += sizeof(std::pair<TVar, Rational>) + c.footprint_bytes();
    }
  }
  return bytes;
}

}  // namespace psse::smt
