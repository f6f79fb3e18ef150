// Test-only reference CDCL solver: the search loop of smt::SatSolver with
// the clause database held as a plain vector of per-clause heap nodes
// instead of the packed uint32 arena.
//
// Every heuristic that influences the search trajectory is kept literally
// identical — VSIDS bumps and heap tie-breaking, phase saving, the xorshift
// RNG, Luby restarts, clause activities stored as *floats* with the same
// rounding and rescale points, the live-count reduce_db trigger, and the
// lazy watcher drop of deleted clauses (after the blocker test, exactly as
// the arena's propagate does it). The differential fuzz test then demands
// not just equal verdicts but equal decision/propagation/conflict counts:
// any arena bug that perturbs the search — a mis-sized header, a stale
// watcher after GC, a reason ref the compactor forgot to rewrite — shows
// up as a count mismatch even when the verdict happens to survive.
//
// Deliberately unsupported (the fuzz harness does not exercise them):
// theory hooks, budgets/interrupts, push/pop.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "smt/literal.h"
#include "smt/sat_solver.h"

namespace psse::smt::reftest {

class ReferenceSatSolver {
 public:
  ReferenceSatSolver() = default;

  void set_options(const SatOptions& options) {
    options_ = options;
    rng_state_ = options.seed == 0 ? 0x9e3779b97f4a7c15ull : options.seed;
    for (std::size_t v = 0; v < phase_.size(); ++v) {
      if (assigns_[v] == LBool::Undef) phase_[v] = options_.default_phase;
    }
  }

  Var new_var() {
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

  [[nodiscard]] int num_vars() const {
    return static_cast<int>(assigns_.size());
  }

  void add_clause(std::vector<Lit> lits) {
    if (!ok_) return;
    std::sort(lits.begin(), lits.end());
    lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
    std::vector<Lit> kept;
    kept.reserve(lits.size());
    for (std::size_t i = 0; i < lits.size(); ++i) {
      Lit l = lits[i];
      if (i + 1 < lits.size() && lits[i + 1] == ~l) return;  // tautology
      LBool v = value(l);
      if (v == LBool::True) return;
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
    std::int32_t id = alloc_clause(kept, /*learned=*/false);
    attach_clause(id);
    ++num_problem_clauses_;
  }

  void add_at_most(std::vector<Lit> lits, std::uint32_t bound) {
    if (!ok_) return;
    std::vector<Lit> kept;
    kept.reserve(lits.size());
    for (Lit l : lits) {
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
    if (bound >= kept.size()) return;
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
    cards_.push_back(Card{std::move(kept), bound, 0});
    for (Lit l : cards_.back().lits) {
      card_occs_[static_cast<std::size_t>(l.code())].push_back(id);
    }
  }

  void add_at_least(std::vector<Lit> lits, std::uint32_t bound) {
    if (bound == 0) return;
    if (bound > lits.size()) {
      add_clause({});
      return;
    }
    std::uint32_t complement = static_cast<std::uint32_t>(lits.size()) - bound;
    for (Lit& l : lits) l = ~l;
    add_at_most(std::move(lits), complement);
  }

  SolveResult solve(const std::vector<Lit>& assumptions = {}) {
    if (!ok_) return SolveResult::Unsat;
    rebuild_order_heap();
    std::uint64_t restartCount = 0;
    std::uint64_t conflictsUntilRestart =
        options_.restart_base * luby(restartCount);
    std::uint64_t conflictsSinceRestart = 0;
    std::vector<Lit> learnt;

    auto learn_clause = [&](const std::vector<Lit>& lits) {
      if (lits.size() == 1) {
        bool okEnq = enqueue(lits[0], Reason::none());
        (void)okEnq;
      } else {
        std::uint32_t lbd = compute_lbd(lits);
        std::int32_t id = alloc_clause(lits, /*learned=*/true);
        clauses_[static_cast<std::size_t>(id)].lbd = lbd;
        attach_clause(id);
        learned_ids_.push_back(id);
        ++stats_.learned_clauses;
        bool okEnq = enqueue(lits[0], Reason::clause(id));
        (void)okEnq;
      }
    };

    for (;;) {
      std::int32_t confl = propagate();
      std::vector<Lit> conflLits;
      if (confl == kExplicitConflict) conflLits = pending_conflict_;

      if (confl != kNoConflict) {
        ++stats_.conflicts;
        ++conflictsSinceRestart;
        int conflLevel = 0;
        if (confl >= 0) {
          for (Lit l : clauses_[static_cast<std::size_t>(confl)].lits) {
            const int lv = var_info_[static_cast<std::size_t>(l.var())].level;
            if (lv > conflLevel) conflLevel = lv;
          }
        } else {
          for (Lit l : conflLits) {
            const int lv = var_info_[static_cast<std::size_t>(l.var())].level;
            if (lv > conflLevel) conflLevel = lv;
          }
        }
        if (decision_level() == 0 || conflLevel == 0) {
          ok_ = false;
          cancel_until(0);
          return SolveResult::Unsat;
        }
        int btlevel = 0;
        analyze(confl, conflLits, learnt, btlevel);
        cancel_until(btlevel);
        learn_clause(learnt);
        var_inc_ /= options_.var_decay;
        clause_inc_ /= 0.999;
        if (learned_ids_.size() >
            options_.reduce_db_base + 2 * num_problem_clauses_ / 3) {
          reduce_db();
        }
        if (conflictsSinceRestart >= conflictsUntilRestart) {
          ++stats_.restarts;
          ++restartCount;
          conflictsSinceRestart = 0;
          conflictsUntilRestart = options_.restart_base * luby(restartCount);
          int restartLevel =
              static_cast<int>(assumptions.size()) <= decision_level()
                  ? static_cast<int>(assumptions.size())
                  : 0;
          cancel_until(restartLevel);
        }
        continue;
      }

      Lit next;
      while (decision_level() < static_cast<int>(assumptions.size())) {
        Lit a = assumptions[static_cast<std::size_t>(decision_level())];
        if (value(a) == LBool::True) {
          trail_lim_.push_back(static_cast<std::int32_t>(trail_.size()));
        } else if (value(a) == LBool::False) {
          cancel_until(0);
          return SolveResult::Unsat;
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
        model_.assign(static_cast<std::size_t>(num_vars()), false);
        for (Var v = 0; v < num_vars(); ++v) {
          model_[static_cast<std::size_t>(v)] = value(v) == LBool::True;
        }
        cancel_until(0);
        return SolveResult::Sat;
      }
      trail_lim_.push_back(static_cast<std::int32_t>(trail_.size()));
      bool okEnq = enqueue(next, Reason::none());
      (void)okEnq;
    }
  }

  [[nodiscard]] bool model_value(Var v) const {
    return model_[static_cast<std::size_t>(v)];
  }

  [[nodiscard]] const SatStats& stats() const { return stats_; }

 private:
  static constexpr std::int32_t kNoConflict = -2;
  static constexpr std::int32_t kExplicitConflict = -1;

  struct Clause {
    std::vector<Lit> lits;
    float activity = 0.0f;
    std::uint32_t lbd = 0;
    bool learned = false;
    bool deleted = false;
  };

  struct Card {
    std::vector<Lit> lits;
    std::uint32_t bound = 0;
    std::uint32_t num_true = 0;
  };

  struct Reason {
    enum class Kind : std::uint8_t { None, Clause, Card } kind = Kind::None;
    std::int32_t index = -1;
    static Reason none() { return {}; }
    static Reason clause(std::int32_t id) { return {Kind::Clause, id}; }
    static Reason card(std::int32_t id) { return {Kind::Card, id}; }
  };

  struct VarInfo {
    Reason reason;
    std::int32_t level = 0;
    std::int32_t trail_pos = -1;
  };

  struct Watcher {
    std::int32_t cref;
    Lit blocker;
  };

  static std::uint64_t luby(std::uint64_t i) {
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

  std::uint64_t next_rand() {
    rng_state_ ^= rng_state_ >> 12;
    rng_state_ ^= rng_state_ << 25;
    rng_state_ ^= rng_state_ >> 27;
    return rng_state_ * 0x2545f4914f6cdd1dull;
  }

  [[nodiscard]] LBool value(Lit l) const {
    LBool v = assigns_[l.var()];
    return l.negated() ? negate(v) : v;
  }
  [[nodiscard]] LBool value(Var v) const { return assigns_[v]; }
  [[nodiscard]] int decision_level() const {
    return static_cast<int>(trail_lim_.size());
  }

  std::int32_t alloc_clause(const std::vector<Lit>& lits, bool learned) {
    std::int32_t id = static_cast<std::int32_t>(clauses_.size());
    Clause c;
    c.lits = lits;
    c.learned = learned;
    clauses_.push_back(std::move(c));
    return id;
  }

  void attach_clause(std::int32_t id) {
    const Clause& c = clauses_[static_cast<std::size_t>(id)];
    watches_[static_cast<std::size_t>(c.lits[0].code())].push_back(
        {id, c.lits[1]});
    watches_[static_cast<std::size_t>(c.lits[1].code())].push_back(
        {id, c.lits[0]});
  }

  bool enqueue(Lit l, Reason reason) {
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

  std::int32_t propagate() {
    while (qhead_ < trail_.size()) {
      Lit p = trail_[qhead_++];
      ++stats_.propagations;

      for (std::uint32_t cid : card_occs_[static_cast<std::size_t>(p.code())]) {
        Card& card = cards_[static_cast<std::size_t>(cid)];
        if (++card.num_true > card.bound) {
          pending_conflict_.clear();
          for (Lit l : card.lits) {
            if (value(l) == LBool::True &&
                var_info_[static_cast<std::size_t>(l.var())].trail_pos <
                    static_cast<std::int32_t>(qhead_)) {
              pending_conflict_.push_back(~l);
              if (pending_conflict_.size() == card.bound + 1) break;
            }
          }
          return kExplicitConflict;
        }
        if (card.num_true == card.bound) {
          for (Lit l : card.lits) {
            if (value(l) == LBool::Undef) {
              enqueue(~l, Reason::card(static_cast<std::int32_t>(cid)));
            }
          }
        }
      }

      const Lit falseLit = ~p;
      std::vector<Watcher>& ws =
          watches_[static_cast<std::size_t>(falseLit.code())];
      std::size_t i = 0, j = 0;
      while (i < ws.size()) {
        Watcher w = ws[i];
        if (value(w.blocker) == LBool::True) {
          ws[j++] = ws[i++];
          continue;
        }
        Clause& c = clauses_[static_cast<std::size_t>(w.cref)];
        if (c.deleted) {
          ++i;
          continue;
        }
        if (c.lits[0] == falseLit) std::swap(c.lits[0], c.lits[1]);
        const Lit first = c.lits[0];
        if (value(first) == LBool::True) {
          ws[j++] = {w.cref, first};
          ++i;
          continue;
        }
        bool moved = false;
        for (std::size_t k = 2; k < c.lits.size(); ++k) {
          if (value(c.lits[k]) != LBool::False) {
            std::swap(c.lits[1], c.lits[k]);
            watches_[static_cast<std::size_t>(c.lits[1].code())].push_back(
                {w.cref, first});
            moved = true;
            break;
          }
        }
        if (moved) {
          ++i;
          continue;
        }
        ws[j++] = {w.cref, first};
        ++i;
        if (value(first) == LBool::False) {
          while (i < ws.size()) ws[j++] = ws[i++];
          ws.resize(j);
          return w.cref;
        }
        enqueue(first, Reason::clause(w.cref));
      }
      ws.resize(j);
    }
    return kNoConflict;
  }

  void cancel_until(int level) {
    if (decision_level() <= level) return;
    std::int32_t bound = trail_lim_[static_cast<std::size_t>(level)];
    for (std::int32_t c = static_cast<std::int32_t>(trail_.size()) - 1;
         c >= bound; --c) {
      Lit p = trail_[static_cast<std::size_t>(c)];
      Var x = p.var();
      if (static_cast<std::size_t>(c) < qhead_) {
        for (std::uint32_t cid :
             card_occs_[static_cast<std::size_t>(p.code())]) {
          --cards_[static_cast<std::size_t>(cid)].num_true;
        }
      }
      assigns_[static_cast<std::size_t>(x)] = LBool::Undef;
      phase_[static_cast<std::size_t>(x)] = !p.negated();
      if (heap_index_[static_cast<std::size_t>(x)] < 0) heap_insert(x);
    }
    trail_.resize(static_cast<std::size_t>(bound));
    trail_lim_.resize(static_cast<std::size_t>(level));
    qhead_ = trail_.size();
  }

  std::vector<Lit> reason_clause(Var v) {
    const VarInfo& info = var_info_[static_cast<std::size_t>(v)];
    std::vector<Lit> out;
    switch (info.reason.kind) {
      case Reason::Kind::None:
        break;
      case Reason::Kind::Clause: {
        out = clauses_[static_cast<std::size_t>(info.reason.index)].lits;
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
        break;
      }
    }
    return out;
  }

  std::uint32_t compute_lbd(const std::vector<Lit>& lits) {
    std::vector<std::int32_t> levels;
    levels.reserve(lits.size());
    for (Lit l : lits) {
      levels.push_back(var_info_[static_cast<std::size_t>(l.var())].level);
    }
    std::sort(levels.begin(), levels.end());
    levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
    return static_cast<std::uint32_t>(levels.size());
  }

  void analyze(std::int32_t confl_clause, const std::vector<Lit>& confl_lits_in,
               std::vector<Lit>& out_learnt, int& out_btlevel) {
    out_learnt.clear();
    out_learnt.push_back(Lit());
    std::vector<Lit> conflLits;
    if (confl_clause >= 0) {
      Clause& c = clauses_[static_cast<std::size_t>(confl_clause)];
      if (c.learned) clause_bump(confl_clause);
      conflLits = c.lits;
    } else {
      conflLits = confl_lits_in;
    }

    int pathC = 0;
    Lit p;
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
      while (index > 0 &&
             !seen_[static_cast<std::size_t>(trail_[index - 1].var())]) {
        --index;
      }
      p = trail_[--index];
      seen_[static_cast<std::size_t>(p.var())] = false;
      --pathC;
      if (pathC <= 0) break;
      conflLits = reason_clause(p.var());
    }
    out_learnt[0] = ~p;

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

    if (out_learnt.size() == 1) {
      out_btlevel = 0;
    } else {
      std::size_t maxI = 1;
      for (std::size_t i = 2; i < out_learnt.size(); ++i) {
        if (var_info_[static_cast<std::size_t>(out_learnt[i].var())].level >
            var_info_[static_cast<std::size_t>(out_learnt[maxI].var())]
                .level) {
          maxI = i;
        }
      }
      std::swap(out_learnt[1], out_learnt[maxI]);
      out_btlevel =
          var_info_[static_cast<std::size_t>(out_learnt[1].var())].level;
    }
  }

  void var_bump(Var v) {
    activity_[static_cast<std::size_t>(v)] += var_inc_;
    if (activity_[static_cast<std::size_t>(v)] > 1e100) {
      for (double& a : activity_) a *= 1e-100;
      var_inc_ *= 1e-100;
    }
    int idx = heap_index_[static_cast<std::size_t>(v)];
    if (idx >= 0) heap_up(idx);
  }

  void clause_bump(std::int32_t id) {
    Clause& c = clauses_[static_cast<std::size_t>(id)];
    float a = static_cast<float>(c.activity + clause_inc_);
    c.activity = a;
    if (a > 1e20f) {
      for (std::int32_t lid : learned_ids_) {
        clauses_[static_cast<std::size_t>(lid)].activity *= 1e-20f;
      }
      clause_inc_ *= 1e-20;
    }
  }

  Lit pick_branch() {
    if (options_.random_branch_permil > 0 && num_vars() > 0 &&
        (next_rand() & 1023) < options_.random_branch_permil) {
      for (int tries = 0; tries < 8; ++tries) {
        Var v = static_cast<Var>(next_rand() %
                                 static_cast<std::uint64_t>(num_vars()));
        if (value(v) == LBool::Undef) {
          return Lit(v, !phase_[static_cast<std::size_t>(v)]);
        }
      }
    }
    while (!heap_.empty()) {
      Var v = heap_pop();
      if (value(v) == LBool::Undef) {
        return Lit(v, !phase_[static_cast<std::size_t>(v)]);
      }
    }
    return Lit();
  }

  void reduce_db() {
    std::vector<std::int32_t> locked;
    for (Lit l : trail_) {
      const VarInfo& info = var_info_[static_cast<std::size_t>(l.var())];
      if (info.reason.kind == Reason::Kind::Clause) {
        locked.push_back(info.reason.index);
      }
    }
    std::sort(locked.begin(), locked.end());
    std::vector<std::int32_t> candidates;
    for (std::int32_t id : learned_ids_) {
      const Clause& c = clauses_[static_cast<std::size_t>(id)];
      if (!c.deleted && c.lbd > 2 &&
          !std::binary_search(locked.begin(), locked.end(), id)) {
        candidates.push_back(id);
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [&](std::int32_t a, std::int32_t b) {
                return clauses_[static_cast<std::size_t>(a)].activity <
                       clauses_[static_cast<std::size_t>(b)].activity;
              });
    std::size_t toDelete = candidates.size() / 2;
    for (std::size_t i = 0; i < toDelete; ++i) {
      clauses_[static_cast<std::size_t>(candidates[i])].deleted = true;
      ++stats_.deleted_clauses;
    }
    learned_ids_.erase(
        std::remove_if(learned_ids_.begin(), learned_ids_.end(),
                       [&](std::int32_t id) {
                         return clauses_[static_cast<std::size_t>(id)].deleted;
                       }),
        learned_ids_.end());
  }

  void rebuild_order_heap() {
    heap_.clear();
    std::fill(heap_index_.begin(), heap_index_.end(), -1);
    for (Var v = 0; v < num_vars(); ++v) {
      if (value(v) == LBool::Undef) heap_insert(v);
    }
  }

  void heap_insert(Var v) {
    heap_index_[static_cast<std::size_t>(v)] =
        static_cast<std::int32_t>(heap_.size());
    heap_.push_back(v);
    heap_up(static_cast<int>(heap_.size()) - 1);
  }

  Var heap_pop() {
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

  void heap_up(int i) {
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

  void heap_down(int i) {
    Var v = heap_[static_cast<std::size_t>(i)];
    double act = activity_[static_cast<std::size_t>(v)];
    int n = static_cast<int>(heap_.size());
    for (;;) {
      int child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n &&
          activity_[static_cast<std::size_t>(
              heap_[static_cast<std::size_t>(child + 1)])] >
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

  std::vector<Clause> clauses_;
  std::deque<Card> cards_;
  std::vector<std::vector<Watcher>> watches_;
  std::vector<std::vector<std::uint32_t>> card_occs_;
  std::size_t num_problem_clauses_ = 0;

  std::vector<LBool> assigns_;
  std::vector<VarInfo> var_info_;
  std::vector<bool> phase_;
  std::vector<double> activity_;
  std::vector<Lit> trail_;
  std::vector<std::int32_t> trail_lim_;
  std::size_t qhead_ = 0;

  std::vector<Var> heap_;
  std::vector<std::int32_t> heap_index_;

  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;
  SatOptions options_;
  std::uint64_t rng_state_ = 0x9e3779b97f4a7c15ull;

  bool ok_ = true;
  std::vector<bool> model_;
  std::vector<std::int32_t> learned_ids_;
  std::vector<Lit> pending_conflict_;
  std::vector<bool> seen_;
  SatStats stats_;
};

}  // namespace psse::smt::reftest
