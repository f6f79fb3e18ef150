#include "smt/sat_solver.h"

#include <algorithm>
#include <bit>

#include "smt/common.h"

namespace psse::smt {

namespace {
// propagate() sentinels: no conflict found, and "conflict is not a clause"
// (cardinality or theory — the literals are in pending_conflict_ / the
// caller's buffer). Real refs stay below both: alloc_clause caps the arena.
constexpr ClauseRef kNoConflictRef = kClauseRefUndef;     // 0xFFFFFFFF
constexpr ClauseRef kExplicitConflictRef = 0xFFFFFFFEu;

// Luby restart sequence: 1,1,2,1,1,2,4,...
std::uint64_t luby(std::uint64_t i) {
  std::uint64_t k = 1;
  while ((1ull << k) <= i + 1) ++k;
  --k;
  while ((1ull << k) - 1 != i) {
    i -= (1ull << k) - 1;
    k = 1;
    while ((1ull << k) <= i + 1) ++k;
    --k;
  }
  return 1ull << k;
}
}  // namespace

void SatSolver::set_options(const SatOptions& options) {
  PSSE_CHECK(options.var_decay > 0.0 && options.var_decay < 1.0,
             "set_options: var_decay outside (0, 1)");
  PSSE_CHECK(options.restart_base > 0, "set_options: restart_base == 0");
  PSSE_CHECK(options.theory_check_period > 0,
             "set_options: theory_check_period == 0");
  PSSE_CHECK(options.reduce_db_base > 0, "set_options: reduce_db_base == 0");
  options_ = options;
  rng_state_ = options.seed == 0 ? 0x9e3779b97f4a7c15ull : options.seed;
  // Saved phases are a pure heuristic; re-seeding them with the configured
  // polarity only affects variables not yet (re)assigned.
  for (std::size_t v = 0; v < phase_.size(); ++v) {
    if (assigns_[v] == LBool::Undef) phase_[v] = options_.default_phase;
  }
}

std::uint64_t SatSolver::next_rand() {
  // xorshift64*: deterministic per seed, no global state.
  rng_state_ ^= rng_state_ >> 12;
  rng_state_ ^= rng_state_ << 25;
  rng_state_ ^= rng_state_ >> 27;
  return rng_state_ * 0x2545f4914f6cdd1dull;
}

Var SatSolver::new_var() {
  Var v = static_cast<Var>(assigns_.size());
  assigns_.push_back(LBool::Undef);
  var_info_.push_back({});
  phase_.push_back(options_.default_phase);
  activity_.push_back(0.0);
  seen_.push_back(false);
  watches_.emplace_back();
  watches_.emplace_back();
  card_occs_.emplace_back();
  card_occs_.emplace_back();
  heap_index_.push_back(-1);
  heap_insert(v);
  return v;
}

ClauseRef SatSolver::alloc_clause(const std::vector<Lit>& lits, bool learned,
                                  std::uint32_t lbd, std::uint32_t depth) {
  PSSE_ASSERT(lits.size() >= 2);
  PSSE_ASSERT(depth <= 0xFFFFu);
  // Keep every valid ref below the propagate() sentinels.
  PSSE_CHECK(arena_.size() + kHeaderWords + lits.size() < kExplicitConflictRef,
             "alloc_clause: clause arena full");
  ClauseRef r = static_cast<ClauseRef>(arena_.size());
  arena_.push_back((static_cast<std::uint32_t>(lits.size()) << kSizeShift) |
                   (learned ? kLearnedBit : 0u));
  arena_.push_back(std::min<std::uint32_t>(lbd, 0xFFFFu) | (depth << 16));
  arena_.push_back(std::bit_cast<std::uint32_t>(0.0f));
  for (Lit l : lits) {
    arena_.push_back(static_cast<std::uint32_t>(l.code()));
  }
  return r;
}

float SatSolver::clause_activity(ClauseRef r) const {
  return std::bit_cast<float>(arena_[r + 2]);
}

void SatSolver::set_clause_activity(ClauseRef r, float a) {
  arena_[r + 2] = std::bit_cast<std::uint32_t>(a);
}

void SatSolver::delete_clause(ClauseRef r) {
  PSSE_ASSERT(!clause_deleted(r));
  arena_[r] |= kDeletedBit;
  // The words stay in place (watchers may still reference them lazily) but
  // count as reclaimable; garbage_collect() drops them.
  wasted_words_ += kHeaderWords + clause_size(r);
}

void SatSolver::attach_clause(ClauseRef r) {
  PSSE_ASSERT(clause_size(r) >= 2);
  Lit l0 = clause_lit(r, 0);
  Lit l1 = clause_lit(r, 1);
  watches_[static_cast<std::size_t>(l0.code())].push_back({r, l1});
  watches_[static_cast<std::size_t>(l1.code())].push_back({r, l0});
}

void SatSolver::attach_card(std::uint32_t id) {
  Card& c = cards_[static_cast<std::size_t>(id)];
  for (Lit l : c.lits) {
    card_occs_[static_cast<std::size_t>(l.code())].push_back(id);
  }
}

void SatSolver::add_clause(std::vector<Lit> lits) {
  PSSE_CHECK(decision_level() == 0, "add_clause outside decision level 0");
  if (!replaying_) pristine_clauses_.push_back(lits);
  if (!ok_) return;
  // Normalise: sort, dedupe, drop false literals, detect tautology/satisfied.
  std::sort(lits.begin(), lits.end());
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
  std::vector<Lit> kept;
  kept.reserve(lits.size());
  for (std::size_t i = 0; i < lits.size(); ++i) {
    Lit l = lits[i];
    PSSE_CHECK(l.var() >= 0 && l.var() < num_vars(),
               "add_clause: unknown variable");
    if (i + 1 < lits.size() && lits[i + 1] == ~l) return;  // tautology
    LBool v = value(l);
    if (v == LBool::True) return;  // already satisfied at level 0
    if (v == LBool::False) continue;
    kept.push_back(l);
  }
  if (kept.empty()) {
    ok_ = false;
    return;
  }
  if (kept.size() == 1) {
    if (!enqueue(kept[0], Reason::none())) ok_ = false;
    return;
  }
  ClauseRef r = alloc_clause(kept, /*learned=*/false, 0, push_depth());
  attach_clause(r);
  ++num_problem_clauses_;
}

void SatSolver::add_at_most(std::vector<Lit> lits, std::uint32_t bound) {
  PSSE_CHECK(decision_level() == 0, "add_at_most outside decision level 0");
  if (!replaying_) pristine_cards_.push_back({lits, bound});
  if (!ok_) return;
  // Account for literals already fixed at level 0.
  std::vector<Lit> kept;
  kept.reserve(lits.size());
  for (Lit l : lits) {
    PSSE_CHECK(l.var() >= 0 && l.var() < num_vars(),
               "add_at_most: unknown variable");
    LBool v = value(l);
    if (v == LBool::True) {
      if (bound == 0) {
        ok_ = false;
        return;
      }
      --bound;
    } else if (v == LBool::Undef) {
      kept.push_back(l);
    }
  }
  if (bound >= kept.size()) return;  // vacuous
  if (bound == 0) {
    for (Lit l : kept) {
      if (!enqueue(~l, Reason::none())) {
        ok_ = false;
        return;
      }
    }
    return;
  }
  std::uint32_t id = static_cast<std::uint32_t>(cards_.size());
  cards_.push_back(Card{std::move(kept), bound, 0, false});
  attach_card(id);
}

void SatSolver::add_at_least(std::vector<Lit> lits, std::uint32_t bound) {
  if (bound == 0) return;
  if (bound > lits.size()) {
    // More true literals demanded than exist: trivially UNSAT.
    add_clause({});
    return;
  }
  std::uint32_t complement = static_cast<std::uint32_t>(lits.size()) - bound;
  for (Lit& l : lits) l = ~l;
  add_at_most(std::move(lits), complement);
}

bool SatSolver::enqueue(Lit l, Reason reason) {
  LBool v = value(l);
  if (v == LBool::False) return false;
  if (v == LBool::True) return true;
  Var x = l.var();
  assigns_[static_cast<std::size_t>(x)] =
      l.negated() ? LBool::False : LBool::True;
  var_info_[static_cast<std::size_t>(x)] = {
      reason, decision_level(), static_cast<std::int32_t>(trail_.size())};
  phase_[static_cast<std::size_t>(x)] = !l.negated();
  trail_.push_back(l);
  return true;
}

ClauseRef SatSolver::propagate() {
  obs::ScopedPhaseTimer timer(phases_ == nullptr ? nullptr
                                                 : &phases_->propagate_us);
  while (qhead_ < trail_.size()) {
    // Cooperative abort: bail out of long propagation chains promptly. The
    // poll must precede the dequeue so an aborted call leaves qhead_ at the
    // first unprocessed literal — cancel_until's counter bookkeeping assumes
    // every dequeued literal was fully propagated. The early return is
    // indistinguishable from a fixpoint to the caller; the solve loop
    // re-polls the same (monotone) interrupt before extending the
    // assignment, so it can never conclude Sat from a partial propagation.
    if ((stats_.propagations & 4095) == 0 && interrupt_ != nullptr &&
        interrupt_->triggered()) {
      return kNoConflictRef;
    }
    Lit p = trail_[qhead_++];
    ++stats_.propagations;

    // Cardinality bookkeeping: p just became true.
    for (std::uint32_t cid : card_occs_[static_cast<std::size_t>(p.code())]) {
      Card& card = cards_[static_cast<std::size_t>(cid)];
      if (card.deleted) continue;
      if (++card.num_true > card.bound) {
        // Conflict: bound+1 literals of the card are true.
        pending_conflict_.clear();
        for (Lit l : card.lits) {
          if (value(l) == LBool::True &&
              var_info_[static_cast<std::size_t>(l.var())].trail_pos <
                  static_cast<std::int32_t>(qhead_)) {
            pending_conflict_.push_back(~l);
            if (pending_conflict_.size() == card.bound + 1) break;
          }
        }
        PSSE_ASSERT(pending_conflict_.size() == card.bound + 1);
        return kExplicitConflictRef;
      }
      if (card.num_true == card.bound) {
        // All other literals become false.
        for (Lit l : card.lits) {
          if (value(l) == LBool::Undef) {
            bool okEnq = enqueue(~l, Reason::card(cid));
            PSSE_ASSERT(okEnq);
          }
        }
      }
    }

    // Watched-literal propagation over clauses watching ~p. No arena
    // allocation happens inside this loop, so raw pointers into arena_
    // stay valid across iterations.
    const Lit falseLit = ~p;
    const std::uint32_t falseCode = static_cast<std::uint32_t>(falseLit.code());
    std::vector<Watcher>& ws =
        watches_[static_cast<std::size_t>(falseLit.code())];
    std::size_t i = 0, j = 0;
    while (i < ws.size()) {
      Watcher w = ws[i];
      if (value(w.blocker) == LBool::True) {
        ws[j++] = ws[i++];
        continue;
      }
      std::uint32_t* const base = arena_.data() + w.cref;
      if ((base[0] & kDeletedBit) != 0) {
        // Lazily drop watchers of clauses reduce_db deleted.
        ++i;
        continue;
      }
      const std::uint32_t size = base[0] >> kSizeShift;
      std::uint32_t* const lits = base + kHeaderWords;
      if (lits[0] == falseCode) std::swap(lits[0], lits[1]);
      PSSE_ASSERT(lits[1] == falseCode);
      const Lit first = Lit::from_code(static_cast<std::int32_t>(lits[0]));
      if (value(first) == LBool::True) {
        ws[j++] = {w.cref, first};
        ++i;
        continue;
      }
      // Look for a new literal to watch.
      bool moved = false;
      for (std::uint32_t k = 2; k < size; ++k) {
        const Lit lk = Lit::from_code(static_cast<std::int32_t>(lits[k]));
        if (value(lk) != LBool::False) {
          std::swap(lits[1], lits[k]);
          watches_[static_cast<std::size_t>(lk.code())].push_back(
              {w.cref, first});
          moved = true;
          break;
        }
      }
      if (moved) {
        ++i;
        continue;
      }
      // Clause is unit or conflicting.
      ws[j++] = {w.cref, first};
      ++i;
      if (value(first) == LBool::False) {
        // Conflict: copy the remaining watchers and bail out. qhead_ is
        // deliberately left mid-trail — cardinality counters only cover the
        // dequeued prefix, and cancel_until relies on that.
        while (i < ws.size()) ws[j++] = ws[i++];
        ws.resize(j);
        return w.cref;
      }
      bool okEnq = enqueue(first, Reason::clause(w.cref));
      PSSE_ASSERT(okEnq);
    }
    ws.resize(j);
  }
  return kNoConflictRef;
}

bool SatSolver::theory_check(bool final, std::vector<Lit>& confl) {
  if (theory_ == nullptr) return true;
  obs::ScopedPhaseTimer timer(phases_ == nullptr ? nullptr
                                                 : &phases_->theory_us);
  // Feed newly assigned theory literals in trail order.
  while (theory_qhead_ < trail_.size()) {
    Lit p = trail_[theory_qhead_++];
    if (!theory_->is_theory_var(p.var())) continue;
    ++theory_assert_count_;
    if (!theory_->on_assert(p)) {
      ++stats_.theory_conflicts;
      confl = theory_->conflict_explanation();
      return false;
    }
  }
  ++stats_.theory_checks;
  if (!theory_->check(final)) {
    ++stats_.theory_conflicts;
    confl = theory_->conflict_explanation();
    return false;
  }
  if (!final && options_.theory_propagation) {
    // The bound set is consistent: pull implied literals and enqueue them
    // with theory reasons, reconstructed lazily in reason_clause (the final
    // check skips this — everything is assigned there).
    theory_props_.clear();
    theory_->propagate(theory_props_);
    for (TheoryPropagation& tp : theory_props_) {
      const LBool v = value(tp.lit);
      if (v == LBool::True) continue;
      if (v == LBool::False) {
        // The premises imply tp.lit, yet it is assigned false: a theory
        // conflict (every literal of the clause is currently false).
        ++stats_.theory_conflicts;
        confl.clear();
        confl.push_back(tp.lit);
        for (Lit pr : tp.premises) confl.push_back(~pr);
        return false;
      }
      std::uint32_t id = static_cast<std::uint32_t>(theory_reasons_.size());
      theory_reasons_.push_back(std::move(tp.premises));
      bool okEnq = enqueue(tp.lit, Reason::theory(id));
      PSSE_ASSERT(okEnq);
      ++stats_.theory_propagations;
    }
  }
  return true;
}

void SatSolver::cancel_until(int level) {
  if (decision_level() <= level) return;
  std::int32_t bound = trail_lim_[static_cast<std::size_t>(level)];
  std::int32_t minTheoryReason = -1;
  for (std::int32_t c = static_cast<std::int32_t>(trail_.size()) - 1;
       c >= bound; --c) {
    Lit p = trail_[static_cast<std::size_t>(c)];
    Var x = p.var();
    // Theory-reason ids are trail-ordered, so the lowest retracted id
    // truncates exactly the premise sets of the unassigned suffix.
    const Reason& r = var_info_[static_cast<std::size_t>(x)].reason;
    if (r.kind == Reason::Kind::Theory &&
        (minTheoryReason < 0 ||
         static_cast<std::int32_t>(r.index) < minTheoryReason)) {
      minTheoryReason = static_cast<std::int32_t>(r.index);
    }
    // Undo cardinality counters for literals the theory of whose true form
    // was counted. The literal stored on the trail is the true one.
    if (static_cast<std::size_t>(c) < qhead_) {
      for (std::uint32_t cid :
           card_occs_[static_cast<std::size_t>(p.code())]) {
        Card& card = cards_[static_cast<std::size_t>(cid)];
        if (!card.deleted) --card.num_true;
      }
    }
    assigns_[static_cast<std::size_t>(x)] = LBool::Undef;
    phase_[static_cast<std::size_t>(x)] = !p.negated();
    if (heap_index_[static_cast<std::size_t>(x)] < 0) heap_insert(x);
  }
  trail_.resize(static_cast<std::size_t>(bound));
  trail_lim_.resize(static_cast<std::size_t>(level));
  qhead_ = trail_.size();
  if (minTheoryReason >= 0) {
    theory_reasons_.resize(static_cast<std::size_t>(minTheoryReason));
  }
  if (theory_qhead_ > trail_.size()) {
    // Retract theory bounds asserted beyond the new trail.
    std::size_t remaining = 0;
    for (std::size_t i = 0; i < trail_.size(); ++i) {
      if (theory_ != nullptr && theory_->is_theory_var(trail_[i].var())) {
        ++remaining;
      }
    }
    theory_qhead_ = trail_.size();
    theory_assert_count_ = remaining;
    if (theory_ != nullptr) theory_->pop_to_assertion_count(remaining);
  }
}

std::vector<Lit> SatSolver::reason_clause(Var v) {
  const VarInfo& info = var_info_[static_cast<std::size_t>(v)];
  std::vector<Lit> out;
  switch (info.reason.kind) {
    case Reason::Kind::None:
      break;
    case Reason::Kind::Clause: {
      const ClauseRef r = info.reason.index;
      const std::uint32_t n = clause_size(r);
      out.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) out.push_back(clause_lit(r, i));
      // Put the implied literal first.
      for (std::size_t i = 0; i < out.size(); ++i) {
        if (out[i].var() == v) {
          std::swap(out[0], out[i]);
          break;
        }
      }
      break;
    }
    case Reason::Kind::Card: {
      const Card& card = cards_[static_cast<std::size_t>(info.reason.index)];
      // v was forced false because `bound` literals assigned earlier are
      // true: clause = ~v_lit \/ ~t_1 \/ ... \/ ~t_bound.
      Lit implied = value(v) == LBool::True ? Lit::pos(v) : Lit::neg(v);
      out.push_back(implied);
      std::int32_t myPos = info.trail_pos;
      std::uint32_t found = 0;
      for (Lit l : card.lits) {
        if (value(l) == LBool::True &&
            var_info_[static_cast<std::size_t>(l.var())].trail_pos < myPos) {
          out.push_back(~l);
          if (++found == card.bound) break;
        }
      }
      PSSE_ASSERT(found == card.bound);
      break;
    }
    case Reason::Kind::Theory: {
      // v was theory-propagated from its recorded premises: clause =
      // implied_lit \/ ~premise_1 \/ ... \/ ~premise_n.
      const std::vector<Lit>& premises =
          theory_reasons_[static_cast<std::size_t>(info.reason.index)];
      Lit implied = value(v) == LBool::True ? Lit::pos(v) : Lit::neg(v);
      out.reserve(premises.size() + 1);
      out.push_back(implied);
      for (Lit pr : premises) out.push_back(~pr);
      break;
    }
  }
  return out;
}

std::uint32_t SatSolver::compute_lbd(const std::vector<Lit>& lits) {
  std::vector<std::int32_t> levels;
  levels.reserve(lits.size());
  for (Lit l : lits) {
    levels.push_back(var_info_[static_cast<std::size_t>(l.var())].level);
  }
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
  return static_cast<std::uint32_t>(levels.size());
}

void SatSolver::analyze(ClauseRef confl_clause,
                        const std::vector<Lit>& confl_lits_in,
                        std::vector<Lit>& out_learnt, int& out_btlevel) {
  out_learnt.clear();
  out_learnt.push_back(Lit());  // placeholder for the asserting literal
  std::vector<Lit> conflLits;
  if (confl_clause < kExplicitConflictRef) {
    if (clause_learned(confl_clause)) clause_bump(confl_clause);
    const std::uint32_t n = clause_size(confl_clause);
    conflLits.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      conflLits.push_back(clause_lit(confl_clause, i));
    }
  } else {
    conflLits = confl_lits_in;
  }

  int pathC = 0;
  Lit p;  // undefined
  std::size_t index = trail_.size();
  std::vector<Lit> toClear;
  bool first = true;

  for (;;) {
    for (std::size_t i = first && !p.valid() ? 0 : 1; i < conflLits.size();
         ++i) {
      Lit q = conflLits[i];
      Var vq = q.var();
      const VarInfo& info = var_info_[static_cast<std::size_t>(vq)];
      if (!seen_[static_cast<std::size_t>(vq)] && info.level > 0) {
        seen_[static_cast<std::size_t>(vq)] = true;
        toClear.push_back(q);
        var_bump(vq);
        if (info.level >= decision_level()) {
          ++pathC;
        } else {
          out_learnt.push_back(q);
        }
      }
    }
    first = false;
    // Select the next literal on the trail to resolve.
    while (index > 0 && !seen_[static_cast<std::size_t>(
                            trail_[index - 1].var())]) {
      --index;
    }
    PSSE_ASSERT(index > 0);
    p = trail_[--index];
    seen_[static_cast<std::size_t>(p.var())] = false;
    --pathC;
    if (pathC <= 0) break;
    conflLits = reason_clause(p.var());
    PSSE_ASSERT(!conflLits.empty());
    // conflLits[0] is the implied literal p; resolve over the rest.
  }
  out_learnt[0] = ~p;

  // Clause minimisation: drop literals whose reason is fully subsumed by the
  // rest of the learnt clause.
  std::size_t w = 1;
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    Var v = out_learnt[i].var();
    const VarInfo& info = var_info_[static_cast<std::size_t>(v)];
    bool redundant = false;
    if (info.reason.kind != Reason::Kind::None) {
      std::vector<Lit> r = reason_clause(v);
      redundant = true;
      for (std::size_t k = 1; k < r.size(); ++k) {
        Var rv = r[k].var();
        const VarInfo& ri = var_info_[static_cast<std::size_t>(rv)];
        if (ri.level > 0 && !seen_[static_cast<std::size_t>(rv)]) {
          redundant = false;
          break;
        }
      }
    }
    if (!redundant) out_learnt[w++] = out_learnt[i];
  }
  out_learnt.resize(w);

  for (Lit l : toClear) seen_[static_cast<std::size_t>(l.var())] = false;

  // Backjump level: second-highest level in the clause.
  if (out_learnt.size() == 1) {
    out_btlevel = 0;
  } else {
    std::size_t maxI = 1;
    for (std::size_t i = 2; i < out_learnt.size(); ++i) {
      if (var_info_[static_cast<std::size_t>(out_learnt[i].var())].level >
          var_info_[static_cast<std::size_t>(out_learnt[maxI].var())].level) {
        maxI = i;
      }
    }
    std::swap(out_learnt[1], out_learnt[maxI]);
    out_btlevel =
        var_info_[static_cast<std::size_t>(out_learnt[1].var())].level;
  }
}

void SatSolver::var_bump(Var v) {
  activity_[static_cast<std::size_t>(v)] += var_inc_;
  if (activity_[static_cast<std::size_t>(v)] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  int idx = heap_index_[static_cast<std::size_t>(v)];
  if (idx >= 0) heap_up(idx);
}

void SatSolver::var_decay() { var_inc_ /= options_.var_decay; }

void SatSolver::clause_bump(ClauseRef r) {
  // Clause activities are packed floats; the increment stays a double and
  // the sum is rounded once per bump.
  float a = static_cast<float>(clause_activity(r) + clause_inc_);
  set_clause_activity(r, a);
  if (a > 1e20f) {
    for (ClauseRef lr : learned_refs_) {
      set_clause_activity(lr, clause_activity(lr) * 1e-20f);
    }
    clause_inc_ *= 1e-20;
  }
}

Lit SatSolver::pick_branch() {
  if (options_.random_branch_permil > 0 && num_vars() > 0 &&
      (next_rand() & 1023) < options_.random_branch_permil) {
    // Diversification: occasionally branch on a random unassigned variable
    // (it stays in the heap; the VSIDS path skips assigned entries anyway).
    for (int tries = 0; tries < 8; ++tries) {
      Var v = static_cast<Var>(next_rand() %
                               static_cast<std::uint64_t>(num_vars()));
      if (value(v) == LBool::Undef) {
        return Lit(v, !phase_[static_cast<std::size_t>(v)]);
      }
    }
  }
  while (!heap_empty()) {
    Var v = heap_pop();
    if (value(v) == LBool::Undef) {
      return Lit(v, !phase_[static_cast<std::size_t>(v)]);
    }
  }
  return Lit();  // invalid: everything assigned
}

void SatSolver::reduce_db() {
  // Keep glue clauses (lbd <= 2) and clauses locked as reasons; drop the
  // least active half of the rest.
  std::vector<ClauseRef> locked;
  for (Lit l : trail_) {
    const VarInfo& info = var_info_[static_cast<std::size_t>(l.var())];
    if (info.reason.kind == Reason::Kind::Clause) {
      locked.push_back(info.reason.index);
    }
  }
  std::sort(locked.begin(), locked.end());
  std::vector<ClauseRef> candidates;
  for (ClauseRef r : learned_refs_) {
    if (!clause_deleted(r) && clause_lbd(r) > 2 &&
        !std::binary_search(locked.begin(), locked.end(), r)) {
      candidates.push_back(r);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [&](ClauseRef a, ClauseRef b) {
              return clause_activity(a) < clause_activity(b);
            });
  std::size_t toDelete = candidates.size() / 2;
  for (std::size_t i = 0; i < toDelete; ++i) {
    delete_clause(candidates[i]);
    ++stats_.deleted_clauses;
  }
  // Purge dead refs so learned_refs_.size() is the live learnt count (the
  // reduction trigger and num_learned_clauses() rely on that).
  learned_refs_.erase(
      std::remove_if(learned_refs_.begin(), learned_refs_.end(),
                     [&](ClauseRef r) { return clause_deleted(r); }),
      learned_refs_.end());
  // Compact once a quarter of the arena is dead weight.
  if (wasted_words_ * 4 >= arena_.size()) garbage_collect();
}

ClauseRef SatSolver::relocate(ClauseRef r, std::vector<std::uint32_t>& to) {
  if ((arena_[r] & kRelocBit) != 0) return arena_[r + 1];
  PSSE_ASSERT(!clause_deleted(r));
  const ClauseRef nr = static_cast<ClauseRef>(to.size());
  const std::uint32_t words = kHeaderWords + clause_size(r);
  for (std::uint32_t i = 0; i < words; ++i) to.push_back(arena_[r + i]);
  // Leave a forwarding header behind: later references to the old ref
  // resolve to the new location without a lookup table.
  arena_[r] |= kRelocBit;
  arena_[r + 1] = nr;
  return nr;
}

void SatSolver::garbage_collect() {
  std::vector<std::uint32_t> to;
  to.reserve(arena_.size() - wasted_words_);
  // Every live clause (size >= 2 by construction) sits in exactly two watch
  // lists, so walking the watches relocates all of them; trail reasons and
  // learned_refs_ then resolve through the forwarding headers. Watchers of
  // deleted clauses are dropped here (propagate skips them lazily until a
  // GC happens).
  for (std::vector<Watcher>& ws : watches_) {
    std::size_t j = 0;
    for (std::size_t i = 0; i < ws.size(); ++i) {
      Watcher w = ws[i];
      if ((arena_[w.cref] & kRelocBit) == 0 && clause_deleted(w.cref)) {
        continue;
      }
      ws[j++] = {relocate(w.cref, to), w.blocker};
    }
    ws.resize(j);
  }
  for (Lit l : trail_) {
    Reason& r = var_info_[static_cast<std::size_t>(l.var())].reason;
    if (r.kind == Reason::Kind::Clause) r.index = relocate(r.index, to);
  }
  for (ClauseRef& r : learned_refs_) r = relocate(r, to);
  arena_.swap(to);
  wasted_words_ = 0;
  ++stats_.arena_gcs;
}

void SatSolver::rebuild_order_heap() {
  heap_.clear();
  std::fill(heap_index_.begin(), heap_index_.end(), -1);
  for (Var v = 0; v < num_vars(); ++v) {
    if (value(v) == LBool::Undef) heap_insert(v);
  }
}

void SatSolver::install_implied_clause(const std::vector<Lit>& lits_in,
                                       std::uint32_t lbd,
                                       std::uint32_t depth) {
  PSSE_ASSERT(decision_level() == 0);
  if (!ok_) return;
  // Same normalisation as add_clause, but nothing is logged to the pristine
  // database: the clause is implied by it, not part of it.
  std::vector<Lit> lits = lits_in;
  std::sort(lits.begin(), lits.end());
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
  std::vector<Lit> kept;
  kept.reserve(lits.size());
  for (std::size_t i = 0; i < lits.size(); ++i) {
    Lit l = lits[i];
    PSSE_CHECK(l.var() >= 0 && l.var() < num_vars(),
               "install_implied_clause: unknown variable");
    if (i + 1 < lits.size() && lits[i + 1] == ~l) return;  // tautology
    LBool v = value(l);
    if (v == LBool::True) return;  // already satisfied at level 0
    if (v == LBool::False) continue;
    kept.push_back(l);
  }
  if (kept.empty()) {
    ok_ = false;  // the implied clause is falsified at level 0: UNSAT
    return;
  }
  if (kept.size() == 1) {
    if (!enqueue(kept[0], Reason::none())) {
      ok_ = false;
      return;
    }
    learnt_units_.push_back({kept[0], depth});
    return;
  }
  ClauseRef r = alloc_clause(kept, /*learned=*/true,
                             std::min<std::uint32_t>(lbd, 0xFFFFu), depth);
  attach_clause(r);
  learned_refs_.push_back(r);
}

SolveResult SatSolver::solve(const std::vector<Lit>& assumptions,
                             const Budget& budget) {
  if (!ok_) return SolveResult::Unsat;
  PSSE_CHECK(decision_level() == 0, "solve: not at decision level 0");
  for (Lit a : assumptions) {
    PSSE_CHECK(a.var() >= 0 && a.var() < num_vars(),
               "solve: unknown assumption variable");
  }
  const std::uint64_t conflictLimit =
      budget.max_conflicts == 0 ? UINT64_MAX
                                : stats_.conflicts + budget.max_conflicts;
  // One Interrupt object serves this whole solve: the propagate loop, the
  // decision loop, and (via the theory client) the simplex pivot loop all
  // poll the same deadline and stop token, so no layer can observe an abort
  // the others would miss.
  Interrupt interrupt = Interrupt::from(budget);
  struct InterruptScope {
    SatSolver* solver;
    explicit InterruptScope(SatSolver* s, const Interrupt* it) : solver(s) {
      solver->interrupt_ = it;
      if (solver->theory_ != nullptr) solver->theory_->set_interrupt(it);
    }
    ~InterruptScope() {
      solver->interrupt_ = nullptr;
      if (solver->theory_ != nullptr) solver->theory_->set_interrupt(nullptr);
    }
  } interruptScope{this, &interrupt};
  auto interrupted = [&]() { return interrupt.triggered(); };

  rebuild_order_heap();
  std::uint64_t restartCount = 0;
  std::uint64_t conflictsUntilRestart =
      options_.restart_base * luby(restartCount);
  std::uint64_t conflictsSinceRestart = 0;
  std::uint32_t fixpointsSinceTheory = 0;
  std::vector<Lit> learnt;
  std::vector<Lit> theoryConfl;

  // Install a freshly learnt clause (from either conflict-analysis site) and
  // assert its first literal, which analyze() made asserting at the
  // backjump level.
  auto learn_clause = [&](const std::vector<Lit>& lits) {
    if (lits.size() == 1) {
      bool okEnq = enqueue(lits[0], Reason::none());
      PSSE_ASSERT(okEnq);
      // A learnt unit is a level-0 fact; remember its push depth so pop()
      // can replay it if its derivation survives.
      learnt_units_.push_back({lits[0], push_depth()});
      return;
    }
    ClauseRef r = alloc_clause(lits, /*learned=*/true, compute_lbd(lits),
                               push_depth());
    attach_clause(r);
    learned_refs_.push_back(r);
    ++stats_.learned_clauses;
    bool okEnq = enqueue(lits[0], Reason::clause(r));
    PSSE_ASSERT(okEnq);
  };

  for (;;) {
    ClauseRef confl = propagate();
    std::vector<Lit> conflLits;
    if (confl == kNoConflictRef) {
      // Propagation fixpoint: consult the theory (lazier configurations
      // skip some fixpoints; the final check below never is).
      if (++fixpointsSinceTheory >= options_.theory_check_period) {
        fixpointsSinceTheory = 0;
        if (!theory_check(false, theoryConfl)) {
          confl = kExplicitConflictRef;
          conflLits = theoryConfl;
        }
      }
    } else if (confl == kExplicitConflictRef) {
      conflLits = pending_conflict_;
    }

    if (confl != kNoConflictRef) {
      ++stats_.conflicts;
      ++conflictsSinceRestart;
      int conflLevel = 0;
      if (confl < kExplicitConflictRef) {
        const std::uint32_t n = clause_size(confl);
        for (std::uint32_t i = 0; i < n; ++i) {
          const int lv =
              var_info_[static_cast<std::size_t>(clause_lit(confl, i).var())]
                  .level;
          if (lv > conflLevel) conflLevel = lv;
        }
      } else {
        for (Lit l : conflLits) {
          const int lv = var_info_[static_cast<std::size_t>(l.var())].level;
          if (lv > conflLevel) conflLevel = lv;
        }
      }
      // A conflict entirely at level 0 closes the instance.
      if (decision_level() == 0 || conflLevel == 0) {
        ok_ = false;
        cancel_until(0);
        return SolveResult::Unsat;
      }
      // A lazy theory check can surface a conflict that lags the search:
      // every literal in it below the current decision level. analyze()
      // needs a current-level literal, so first backjump to the conflict's
      // own level (all its literals stay falsified there).
      if (confl == kExplicitConflictRef && conflLevel < decision_level()) {
        cancel_until(conflLevel);
      }
      int btlevel = 0;
      analyze(confl, conflLits, learnt, btlevel);
      cancel_until(btlevel);
      learn_clause(learnt);
      var_decay();
      clause_inc_ /= 0.999;

      if (stats_.conflicts >= conflictLimit || interrupted()) {
        cancel_until(0);
        return SolveResult::Unknown;
      }
      if (learned_refs_.size() >
          options_.reduce_db_base + 2 * num_problem_clauses_ / 3) {
        reduce_db();
      }
      if (conflictsSinceRestart >= conflictsUntilRestart) {
        ++stats_.restarts;
        ++restartCount;
        conflictsSinceRestart = 0;
        conflictsUntilRestart = options_.restart_base * luby(restartCount);
        const int restartLevel =
            static_cast<int>(assumptions.size()) <= decision_level()
                ? static_cast<int>(assumptions.size())
                : 0;
        cancel_until(restartLevel);
      }
      continue;
    }

    // No conflict: extend the assignment. The interrupt check also covers
    // early returns from propagate() and from a bailed-out theory check —
    // the interrupt is monotone, so if a lower layer saw it, so do we.
    if (interrupted()) {
      cancel_until(0);
      return SolveResult::Unknown;
    }
    // Theory propagation enqueued literals past the BCP fixpoint: run
    // boolean propagation over them before deciding (they may force clause
    // or cardinality propagations, or a conflict). The interrupt check
    // above keeps this from looping on a bailed-out propagate().
    if (qhead_ < trail_.size()) continue;
    Lit next;
    // Assumption decisions come first, one per level.
    while (decision_level() < static_cast<int>(assumptions.size())) {
      Lit a = assumptions[static_cast<std::size_t>(decision_level())];
      if (value(a) == LBool::True) {
        trail_lim_.push_back(static_cast<std::int32_t>(trail_.size()));
      } else if (value(a) == LBool::False) {
        cancel_until(0);
        return SolveResult::Unsat;  // assumptions inconsistent
      } else {
        next = a;
        break;
      }
    }
    if (!next.valid()) {
      next = pick_branch();
      if (next.valid()) ++stats_.decisions;
    } else {
      ++stats_.decisions;
    }
    if (!next.valid()) {
      // Full assignment: ask the theory for a final verdict.
      if (!theory_check(true, theoryConfl)) {
        int conflLevel = 0;
        for (Lit l : theoryConfl) {
          const int lv = var_info_[static_cast<std::size_t>(l.var())].level;
          if (lv > conflLevel) conflLevel = lv;
        }
        if (decision_level() == 0 || conflLevel == 0 ||
            theoryConfl.empty()) {
          ok_ = false;
          cancel_until(0);
          return SolveResult::Unsat;
        }
        // Same lagging-conflict backjump as in the main loop: with lazy
        // theory checks the conflict may live entirely below the current
        // decision level.
        if (conflLevel < decision_level()) cancel_until(conflLevel);
        ++stats_.conflicts;
        int btlevel = 0;
        analyze(kExplicitConflictRef, theoryConfl, learnt, btlevel);
        cancel_until(btlevel);
        learn_clause(learnt);
        continue;
      }
      // An interrupted theory check may report "consistent" without having
      // restored bound feasibility; never conclude Sat in that case.
      if (interrupted()) {
        cancel_until(0);
        return SolveResult::Unknown;
      }
      // Satisfiable: snapshot the model.
      if (theory_ != nullptr) theory_->on_model();
      model_.assign(static_cast<std::size_t>(num_vars()), false);
      for (Var v = 0; v < num_vars(); ++v) {
        model_[static_cast<std::size_t>(v)] = value(v) == LBool::True;
      }
      cancel_until(0);
      return SolveResult::Sat;
    }
    trail_lim_.push_back(static_cast<std::int32_t>(trail_.size()));
    bool okEnq = enqueue(next, Reason::none());
    PSSE_ASSERT(okEnq);
  }
}

int SatSolver::probe_literal(Lit l) {
  PSSE_CHECK(decision_level() == 0, "probe_literal: not at decision level 0");
  PSSE_CHECK(l.valid() && l.var() < num_vars(),
             "probe_literal: unknown variable");
  if (!ok_) return -1;
  // Drain any pending level-0 propagation first so the probe measures only
  // the literal's own consequences. A conflict here closes the instance.
  if (propagate() != kNoConflictRef) {
    ok_ = false;
    return -1;
  }
  const LBool v = value(l);
  if (v == LBool::True) return 0;
  if (v == LBool::False) return -1;
  // One throwaway decision level; boolean propagation only. The theory is
  // never consulted and theory_qhead_ stays at the level-0 prefix, so
  // cancel_until(0) undoes exactly the card counters and assignments.
  trail_lim_.push_back(static_cast<std::int32_t>(trail_.size()));
  const std::size_t before = trail_.size();
  const bool okEnq = enqueue(l, Reason::none());
  PSSE_ASSERT(okEnq);
  const ClauseRef confl = propagate();
  const int forced = static_cast<int>(trail_.size() - before) - 1;
  cancel_until(0);
  return confl == kNoConflictRef ? forced : -1;
}

bool SatSolver::model_value(Var v) const {
  PSSE_CHECK(v >= 0 && static_cast<std::size_t>(v) < model_.size(),
             "model_value: no model for variable");
  return model_[static_cast<std::size_t>(v)];
}

void SatSolver::push() {
  PSSE_CHECK(decision_level() == 0, "push: not at decision level 0");
  // Learnt clauses carry their push depth in a 16-bit header field.
  PSSE_CHECK(save_points_.size() < 0xFFFF, "push: nesting too deep");
  save_points_.push_back(
      {num_vars(), pristine_clauses_.size(), pristine_cards_.size()});
}

void SatSolver::pop() {
  PSSE_CHECK(!save_points_.empty(), "pop without matching push");
  PSSE_CHECK(decision_level() == 0, "pop: not at decision level 0");
  SavePoint sp = save_points_.back();
  const std::uint32_t oldDepth = push_depth();
  save_points_.pop_back();

  pristine_clauses_.resize(sp.num_pristine_clauses);
  pristine_cards_.resize(sp.num_pristine_cards);

  // Learnt clauses tagged with a surviving depth d < oldDepth were derived
  // from constraints (and variables) that all predate the popped push, so
  // they remain implied by the restored database and are kept. Everything
  // learnt at the popped depth may depend on popped constraints and is
  // discarded with the rest of the derived state.
  struct RetainedClause {
    std::vector<Lit> lits;
    std::uint32_t lbd;
    std::uint32_t depth;
  };
  std::vector<RetainedClause> retained;
  for (ClauseRef r : learned_refs_) {
    if (clause_deleted(r) || clause_depth(r) >= oldDepth) continue;
    RetainedClause rc;
    rc.lbd = clause_lbd(r);
    rc.depth = clause_depth(r);
    const std::uint32_t n = clause_size(r);
    rc.lits.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) rc.lits.push_back(clause_lit(r, i));
    retained.push_back(std::move(rc));
  }
  std::vector<std::pair<Lit, std::uint32_t>> retainedUnits;
  for (const auto& [l, d] : learnt_units_) {
    if (d < oldDepth) retainedUnits.push_back({l, d});
  }
  stats_.deleted_clauses += learned_refs_.size() - retained.size();

  // Rebuild the database from the pristine constraints: level-0 facts
  // derived after the push may depend on popped constraints, so the trail
  // and all simplifications are replayed from scratch.
  learned_refs_.clear();
  learnt_units_.clear();
  arena_.clear();
  wasted_words_ = 0;
  num_problem_clauses_ = 0;
  cards_.clear();
  trail_.clear();
  trail_lim_.clear();
  qhead_ = 0;
  theory_qhead_ = 0;
  theory_assert_count_ = 0;
  theory_reasons_.clear();  // no assigned variables reference the log now
  if (theory_ != nullptr) theory_->pop_to_assertion_count(0);

  assigns_.assign(static_cast<std::size_t>(sp.num_vars), LBool::Undef);
  var_info_.assign(static_cast<std::size_t>(sp.num_vars), {});
  phase_.resize(static_cast<std::size_t>(sp.num_vars));
  activity_.resize(static_cast<std::size_t>(sp.num_vars));
  seen_.assign(static_cast<std::size_t>(sp.num_vars), false);
  watches_.assign(static_cast<std::size_t>(2 * sp.num_vars), {});
  card_occs_.assign(static_cast<std::size_t>(2 * sp.num_vars), {});
  heap_index_.assign(static_cast<std::size_t>(sp.num_vars), -1);
  heap_.clear();

  ok_ = true;
  replaying_ = true;
  for (const auto& lits : pristine_clauses_) add_clause(lits);
  for (const auto& card : pristine_cards_) add_at_most(card.lits, card.bound);
  replaying_ = false;

  // Reinstall the surviving learnt facts and clauses on top of the rebuilt
  // database. Units are re-logged even when the replay already derived
  // them, so a later pop can still retain them.
  for (const auto& [l, d] : retainedUnits) {
    if (!ok_) break;
    if (!enqueue(l, Reason::none())) {
      ok_ = false;
      break;
    }
    learnt_units_.push_back({l, d});
  }
  for (const RetainedClause& rc : retained) {
    if (!ok_) break;
    install_implied_clause(rc.lits, rc.lbd, rc.depth);
  }
  rebuild_order_heap();
}

std::size_t SatSolver::footprint_bytes() const {
  std::size_t bytes = arena_.capacity() * sizeof(std::uint32_t);
  for (const Card& c : cards_) {
    bytes += sizeof(Card) + c.lits.capacity() * sizeof(Lit);
  }
  for (const auto& w : watches_) bytes += w.capacity() * sizeof(Watcher);
  for (const auto& o : card_occs_) {
    bytes += o.capacity() * sizeof(std::uint32_t);
  }
  bytes += assigns_.capacity() * sizeof(LBool);
  bytes += var_info_.capacity() * sizeof(VarInfo);
  bytes += activity_.capacity() * sizeof(double);
  bytes += trail_.capacity() * sizeof(Lit);
  for (const auto& r : theory_reasons_) bytes += r.capacity() * sizeof(Lit);
  bytes += heap_.capacity() * sizeof(Var);
  bytes += heap_index_.capacity() * sizeof(std::int32_t);
  bytes += learned_refs_.capacity() * sizeof(ClauseRef);
  bytes += learnt_units_.capacity() * sizeof(std::pair<Lit, std::uint32_t>);
  return bytes;
}

void SatSolver::heap_insert(Var v) {
  heap_index_[static_cast<std::size_t>(v)] =
      static_cast<std::int32_t>(heap_.size());
  heap_.push_back(v);
  heap_up(static_cast<int>(heap_.size()) - 1);
}

Var SatSolver::heap_pop() {
  PSSE_ASSERT(!heap_.empty());
  Var top = heap_[0];
  heap_index_[static_cast<std::size_t>(top)] = -1;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_index_[static_cast<std::size_t>(heap_[0])] = 0;
    heap_down(0);
  }
  return top;
}

void SatSolver::heap_up(int i) {
  Var v = heap_[static_cast<std::size_t>(i)];
  double act = activity_[static_cast<std::size_t>(v)];
  while (i > 0) {
    int parent = (i - 1) / 2;
    Var pv = heap_[static_cast<std::size_t>(parent)];
    if (activity_[static_cast<std::size_t>(pv)] >= act) break;
    heap_[static_cast<std::size_t>(i)] = pv;
    heap_index_[static_cast<std::size_t>(pv)] = i;
    i = parent;
  }
  heap_[static_cast<std::size_t>(i)] = v;
  heap_index_[static_cast<std::size_t>(v)] = i;
}

void SatSolver::heap_down(int i) {
  Var v = heap_[static_cast<std::size_t>(i)];
  double act = activity_[static_cast<std::size_t>(v)];
  int n = static_cast<int>(heap_.size());
  for (;;) {
    int child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n &&
        activity_[static_cast<std::size_t>(heap_[static_cast<std::size_t>(
            child + 1)])] >
            activity_[static_cast<std::size_t>(
                heap_[static_cast<std::size_t>(child)])]) {
      ++child;
    }
    Var cv = heap_[static_cast<std::size_t>(child)];
    if (act >= activity_[static_cast<std::size_t>(cv)]) break;
    heap_[static_cast<std::size_t>(i)] = cv;
    heap_index_[static_cast<std::size_t>(cv)] = i;
    i = child;
  }
  heap_[static_cast<std::size_t>(i)] = v;
  heap_index_[static_cast<std::size_t>(v)] = i;
}

}  // namespace psse::smt
