// Tests for the CDCL core: propagation, learning, cardinality constraints,
// assumptions, push/pop, a brute-force cross-check property, and the
// probe_literal lookahead the cube splitter builds on.
#include "smt/sat_solver.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

namespace psse::smt {
namespace {

std::vector<Var> make_vars(SatSolver& s, int n) {
  std::vector<Var> vs;
  for (int i = 0; i < n; ++i) vs.push_back(s.new_var());
  return vs;
}

TEST(SatSolver, EmptyInstanceIsSat) {
  SatSolver s;
  EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(SatSolver, UnitClauseForcesValue) {
  SatSolver s;
  Var v = s.new_var();
  s.add_clause({Lit::pos(v)});
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_TRUE(s.model_value(v));
}

TEST(SatSolver, ContradictoryUnitsAreUnsat) {
  SatSolver s;
  Var v = s.new_var();
  s.add_clause({Lit::pos(v)});
  s.add_clause({Lit::neg(v)});
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(SatSolver, EmptyClauseIsUnsat) {
  SatSolver s;
  s.add_clause({});
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(SatSolver, SimpleImplicationChain) {
  SatSolver s;
  auto v = make_vars(s, 4);
  s.add_clause({Lit::pos(v[0])});
  for (int i = 0; i < 3; ++i) {
    s.add_clause({Lit::neg(v[i]), Lit::pos(v[i + 1])});  // v_i -> v_{i+1}
  }
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  for (Var x : v) EXPECT_TRUE(s.model_value(x));
}

TEST(SatSolver, TautologyIsIgnored) {
  SatSolver s;
  Var v = s.new_var();
  s.add_clause({Lit::pos(v), Lit::neg(v)});
  EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(SatSolver, DuplicateLiteralsDeduplicated) {
  SatSolver s;
  Var v = s.new_var();
  s.add_clause({Lit::pos(v), Lit::pos(v), Lit::pos(v)});
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_TRUE(s.model_value(v));
}

// Pigeonhole: n+1 pigeons in n holes — classic UNSAT needing real learning.
void add_pigeonhole(SatSolver& s, int holes) {
  int pigeons = holes + 1;
  std::vector<std::vector<Var>> p(pigeons);
  for (int i = 0; i < pigeons; ++i) {
    for (int h = 0; h < holes; ++h) p[i].push_back(s.new_var());
  }
  for (int i = 0; i < pigeons; ++i) {
    std::vector<Lit> clause;
    for (int h = 0; h < holes; ++h) clause.push_back(Lit::pos(p[i][h]));
    s.add_clause(clause);
  }
  for (int h = 0; h < holes; ++h) {
    for (int i = 0; i < pigeons; ++i) {
      for (int j = i + 1; j < pigeons; ++j) {
        s.add_clause({Lit::neg(p[i][h]), Lit::neg(p[j][h])});
      }
    }
  }
}

TEST(SatSolver, PigeonholeUnsat) {
  for (int holes : {2, 3, 4, 5}) {
    SatSolver s;
    add_pigeonhole(s, holes);
    EXPECT_EQ(s.solve(), SolveResult::Unsat) << holes;
    EXPECT_GT(s.stats().conflicts, 0u);
  }
}

TEST(SatSolver, AtMostZeroForcesAllFalse) {
  SatSolver s;
  auto v = make_vars(s, 5);
  std::vector<Lit> lits;
  for (Var x : v) lits.push_back(Lit::pos(x));
  s.add_at_most(lits, 0);
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  for (Var x : v) EXPECT_FALSE(s.model_value(x));
}

TEST(SatSolver, AtMostKLimitsTrueCount) {
  for (std::uint32_t k = 1; k <= 4; ++k) {
    SatSolver s;
    auto v = make_vars(s, 6);
    std::vector<Lit> lits;
    for (Var x : v) lits.push_back(Lit::pos(x));
    s.add_at_most(lits, k);
    // Force k+0 variables true: still satisfiable.
    for (std::uint32_t i = 0; i < k; ++i) s.add_clause({Lit::pos(v[i])});
    ASSERT_EQ(s.solve(), SolveResult::Sat) << k;
    int countTrue = 0;
    for (Var x : v) countTrue += s.model_value(x) ? 1 : 0;
    EXPECT_LE(countTrue, static_cast<int>(k));
  }
}

TEST(SatSolver, AtMostKConflictsWhenExceeded) {
  SatSolver s;
  auto v = make_vars(s, 5);
  std::vector<Lit> lits;
  for (Var x : v) lits.push_back(Lit::pos(x));
  s.add_at_most(lits, 2);
  for (int i = 0; i < 3; ++i) s.add_clause({Lit::pos(v[i])});
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(SatSolver, AtLeastK) {
  SatSolver s;
  auto v = make_vars(s, 5);
  std::vector<Lit> lits;
  for (Var x : v) lits.push_back(Lit::pos(x));
  s.add_at_least(lits, 3);
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  int countTrue = 0;
  for (Var x : v) countTrue += s.model_value(x) ? 1 : 0;
  EXPECT_GE(countTrue, 3);
}

TEST(SatSolver, AtLeastMoreThanSizeUnsat) {
  SatSolver s;
  auto v = make_vars(s, 3);
  std::vector<Lit> lits;
  for (Var x : v) lits.push_back(Lit::pos(x));
  s.add_at_least(lits, 4);
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(SatSolver, ExactlyKViaBothBounds) {
  SatSolver s;
  auto v = make_vars(s, 7);
  std::vector<Lit> lits;
  for (Var x : v) lits.push_back(Lit::pos(x));
  s.add_at_most(lits, 3);
  s.add_at_least(lits, 3);
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  int countTrue = 0;
  for (Var x : v) countTrue += s.model_value(x) ? 1 : 0;
  EXPECT_EQ(countTrue, 3);
}

TEST(SatSolver, CardinalityInteractsWithClauses) {
  // at-most-1 over {a,b,c}, clauses b|c and a|b: forces a model with b.
  SatSolver s;
  auto v = make_vars(s, 3);
  s.add_at_most({Lit::pos(v[0]), Lit::pos(v[1]), Lit::pos(v[2])}, 1);
  s.add_clause({Lit::pos(v[1]), Lit::pos(v[2])});
  s.add_clause({Lit::pos(v[0]), Lit::pos(v[1])});
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  int countTrue = 0;
  for (Var x : v) countTrue += s.model_value(x) ? 1 : 0;
  EXPECT_LE(countTrue, 1);
  EXPECT_TRUE(s.model_value(v[1]) ||
              (s.model_value(v[0]) && s.model_value(v[2])));
}

TEST(SatSolver, AssumptionsRestrictModels) {
  SatSolver s;
  auto v = make_vars(s, 2);
  s.add_clause({Lit::pos(v[0]), Lit::pos(v[1])});
  ASSERT_EQ(s.solve({Lit::neg(v[0])}), SolveResult::Sat);
  EXPECT_FALSE(s.model_value(v[0]));
  EXPECT_TRUE(s.model_value(v[1]));
  // Conflicting assumptions: unsat, but the instance itself stays sat.
  EXPECT_EQ(s.solve({Lit::neg(v[0]), Lit::neg(v[1])}), SolveResult::Unsat);
  EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(SatSolver, AssumptionsWithCardinality) {
  SatSolver s;
  auto v = make_vars(s, 4);
  std::vector<Lit> lits;
  for (Var x : v) lits.push_back(Lit::pos(x));
  s.add_at_most(lits, 2);
  EXPECT_EQ(s.solve({Lit::pos(v[0]), Lit::pos(v[1]), Lit::pos(v[2])}),
            SolveResult::Unsat);
  EXPECT_EQ(s.solve({Lit::pos(v[0]), Lit::pos(v[1])}), SolveResult::Sat);
}

TEST(SatSolver, PushPopRestoresSat) {
  SatSolver s;
  Var v = s.new_var();
  s.add_clause({Lit::pos(v)});
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  s.push();
  s.add_clause({Lit::neg(v)});
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
  s.pop();
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_TRUE(s.model_value(v));
}

TEST(SatSolver, PushPopDiscardsVariables) {
  SatSolver s;
  Var a = s.new_var();
  s.add_clause({Lit::pos(a)});
  s.push();
  Var b = s.new_var();
  s.add_clause({Lit::neg(a), Lit::pos(b)});
  EXPECT_EQ(s.num_vars(), 2);
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  s.pop();
  EXPECT_EQ(s.num_vars(), 1);
  EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(SatSolver, NestedPushPop) {
  SatSolver s;
  Var a = s.new_var(), b = s.new_var();
  s.add_clause({Lit::pos(a), Lit::pos(b)});
  s.push();
  s.add_clause({Lit::neg(a)});
  s.push();
  s.add_clause({Lit::neg(b)});
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
  s.pop();
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_FALSE(s.model_value(a));
  EXPECT_TRUE(s.model_value(b));
  s.pop();
  EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(SatSolver, ConflictBudgetReturnsUnknown) {
  SatSolver s;
  add_pigeonhole(s, 5);  // hard enough to exceed one conflict
  Budget b;
  b.max_conflicts = 1;
  EXPECT_EQ(s.solve({}, b), SolveResult::Unknown);
  // And solvable without the budget.
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

// A copy carries the whole search state: a partial solve's learnt clauses
// survive the copy, the copy searches on its own, and it runs exactly the
// search the source would have run.
TEST(SatSolver, CopyKeepsLearntClausesAndSearchesIndependently) {
  SatSolver s;
  add_pigeonhole(s, 6);
  Budget b;
  b.max_conflicts = 100;
  ASSERT_EQ(s.solve({}, b), SolveResult::Unknown);
  ASSERT_GT(s.num_learned_clauses(), 0u);

  const std::size_t learnt = s.num_learned_clauses();
  const SatStats before = s.stats();
  SatSolver copy(s);
  EXPECT_EQ(copy.num_learned_clauses(), learnt);
  EXPECT_EQ(copy.stats().conflicts, before.conflicts);
  EXPECT_EQ(copy.solve(), SolveResult::Unsat);
  EXPECT_EQ(s.num_learned_clauses(), learnt);
  EXPECT_EQ(s.stats().conflicts, before.conflicts);
  EXPECT_EQ(s.stats().decisions, before.decisions);

  EXPECT_EQ(s.solve(), SolveResult::Unsat);
  EXPECT_EQ(s.stats().conflicts, copy.stats().conflicts);
  EXPECT_EQ(s.stats().decisions, copy.stats().decisions);
  EXPECT_EQ(s.stats().propagations, copy.stats().propagations);
}

TEST(SatSolver, TimeBudgetReturnsUnknown) {
  SatSolver s;
  add_pigeonhole(s, 12);  // resolution-hard: will not finish in 50 ms
  Budget b;
  b.max_time = std::chrono::milliseconds(50);
  EXPECT_EQ(s.solve({}, b), SolveResult::Unknown);
}

// Property: agree with brute force on random 3-SAT at the sat/unsat
// threshold, with and without a random cardinality constraint.
TEST(SatSolver, PropertyRandom3SatAgainstBruteForce) {
  std::mt19937_64 rng(123);
  for (int iter = 0; iter < 300; ++iter) {
    int n = 4 + static_cast<int>(rng() % 7);          // 4..10 vars
    int m = static_cast<int>(4.26 * n);               // near threshold
    std::vector<std::vector<Lit>> clauses;
    for (int c = 0; c < m; ++c) {
      std::vector<Lit> cl;
      for (int k = 0; k < 3; ++k) {
        cl.push_back(Lit(static_cast<Var>(rng() % n), (rng() & 1) != 0));
      }
      clauses.push_back(cl);
    }
    bool withCard = (rng() % 3) == 0;
    std::uint32_t bound = static_cast<std::uint32_t>(rng() % (n + 1));

    // Brute force.
    bool bruteSat = false;
    for (std::uint32_t assign = 0; assign < (1u << n) && !bruteSat; ++assign) {
      bool all = true;
      for (const auto& cl : clauses) {
        bool any = false;
        for (Lit l : cl) {
          bool val = ((assign >> l.var()) & 1) != 0;
          if (val != l.negated()) {
            any = true;
            break;
          }
        }
        if (!any) {
          all = false;
          break;
        }
      }
      if (all && withCard) {
        int pop = __builtin_popcount(assign);
        if (pop > static_cast<int>(bound)) all = false;
      }
      bruteSat = all;
    }

    SatSolver s;
    std::vector<Lit> all;
    for (int i = 0; i < n; ++i) all.push_back(Lit::pos(s.new_var()));
    for (auto& cl : clauses) s.add_clause(cl);
    if (withCard) s.add_at_most(all, bound);
    SolveResult r = s.solve();
    EXPECT_EQ(r == SolveResult::Sat, bruteSat)
        << "iter=" << iter << " n=" << n << " card=" << withCard;
    if (r == SolveResult::Sat) {
      // Verify the model satisfies every clause and the bound.
      for (const auto& cl : clauses) {
        bool any = false;
        for (Lit l : cl) {
          if (s.model_value(l.var()) != l.negated()) any = true;
        }
        EXPECT_TRUE(any);
      }
      if (withCard) {
        int pop = 0;
        for (int i = 0; i < n; ++i) pop += s.model_value(i) ? 1 : 0;
        EXPECT_LE(pop, static_cast<int>(bound));
      }
    }
  }
}

// Small random instances (clauses plus at most one cardinality
// constraint) for the probing property below.
struct Instance {
  int num_vars = 0;
  std::vector<std::vector<Lit>> clauses;
  struct CardCon {
    std::vector<Lit> lits;
    std::uint32_t bound;
    bool at_most;
  };
  std::vector<CardCon> cards;
};

void feed(SatSolver& s, const Instance& inst) {
  for (int i = 0; i < inst.num_vars; ++i) s.new_var();
  for (const auto& cl : inst.clauses) s.add_clause(cl);
  for (const auto& c : inst.cards) {
    if (c.at_most) {
      s.add_at_most(c.lits, c.bound);
    } else {
      s.add_at_least(c.lits, c.bound);
    }
  }
}

Instance random_instance(std::mt19937_64& rng) {
  Instance inst;
  inst.num_vars = 6 + static_cast<int>(rng() % 7);  // 6..12
  int m = inst.num_vars * (2 + static_cast<int>(rng() % 3));
  for (int c = 0; c < m; ++c) {
    std::vector<Lit> cl;
    int len = 1 + static_cast<int>(rng() % 4);
    for (int k = 0; k < len; ++k) {
      cl.push_back(Lit(static_cast<Var>(rng() % inst.num_vars),
                       (rng() & 1) != 0));
    }
    inst.clauses.push_back(std::move(cl));
  }
  if (rng() % 3 == 0) {
    Instance::CardCon card;
    int size = 3 + static_cast<int>(
                       rng() % static_cast<std::uint64_t>(inst.num_vars - 2));
    for (int k = 0; k < size; ++k) {
      card.lits.push_back(Lit(static_cast<Var>(rng() % inst.num_vars),
                              (rng() & 1) != 0));
    }
    card.bound = 1 + static_cast<std::uint32_t>(
                         rng() % static_cast<std::uint64_t>(size - 1));
    card.at_most = (rng() & 1) != 0;
    inst.cards.push_back(std::move(card));
  }
  return inst;
}

// probe_literal is the cube splitter's lookahead: deterministic forced
// counts, -1 on failed literals, 0 on already-true literals, and no
// residue in the solver afterwards.
TEST(ProbeLiteral, CountsForcedConsequencesWithoutResidue) {
  SatSolver s;
  Var a = s.new_var();
  Var b = s.new_var();
  Var c = s.new_var();
  Var d = s.new_var();
  s.add_clause({Lit::neg(a), Lit::pos(b)});   // a -> b
  s.add_clause({Lit::neg(b), Lit::pos(c)});   // b -> c
  s.add_clause({Lit::neg(a), Lit::neg(d)});   // a -> !d

  // Probing a forces b, c and !d: three consequences beyond the probe.
  EXPECT_EQ(s.probe_literal(Lit::pos(a)), 3);
  // Probes are repeatable — nothing leaked into the assignment.
  EXPECT_EQ(s.probe_literal(Lit::pos(a)), 3);
  // The reverse direction forces nothing.
  EXPECT_EQ(s.probe_literal(Lit::neg(c)), 2);  // !c -> !b -> !a
  EXPECT_EQ(s.probe_literal(Lit::pos(d)), 1);  // d -> !a

  // A failed literal: d && a conflicts, so after asserting d, probing a
  // must report -1 while probing !a succeeds.
  s.add_clause({Lit::pos(d)});
  EXPECT_EQ(s.probe_literal(Lit::pos(a)), -1);
  EXPECT_GE(s.probe_literal(Lit::neg(a)), 0);
  // Already-true literals probe as 0 forced consequences.
  EXPECT_EQ(s.probe_literal(Lit::pos(d)), 0);

  // The solver is still fully usable and agrees with the obvious model.
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_TRUE(s.model_value(d));
  EXPECT_FALSE(s.model_value(a));
}

// Probing must not flip verdicts on random instances: interleave probes
// with a final solve and compare against an unprobed twin.
TEST(ProbeLiteral, ProbingNeverChangesTheVerdict) {
  std::mt19937_64 rng(991188);
  for (int iter = 0; iter < 40; ++iter) {
    Instance inst = random_instance(rng);
    SatSolver probed;
    SatSolver clean;
    feed(probed, inst);
    feed(clean, inst);
    for (int k = 0; k < 8; ++k) {
      const Lit l = Lit(static_cast<Var>(rng() % inst.num_vars),
                        (rng() & 1) != 0);
      (void)probed.probe_literal(l);
    }
    EXPECT_EQ(probed.solve(), clean.solve()) << iter;
    ASSERT_FALSE(::testing::Test::HasFailure()) << "iter " << iter;
  }
}

}  // namespace
}  // namespace psse::smt
