// Differential tests for the arena-packed clause database: the production
// SatSolver must not just agree with a simple reference CDCL on verdicts,
// it must take the *same search trajectory* — identical decision,
// propagation, conflict, restart, learn and delete counts — because the
// arena is a pure storage change. Count equality makes the
// oracle sensitive to subtle arena bugs (stale watchers after GC, reason
// refs the compactor missed, mis-read headers) that verdict-only
// comparison would miss. Also: GC stress with reason-locked learnt clauses
// across backtracks, and push/pop learnt-clause retention.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "reference_sat_solver.h"
#include "smt/sat_solver.h"

namespace psse::smt {
namespace {

// One generated constraint set, fed identically to every solver under test.
struct Instance {
  int num_vars = 0;
  std::vector<std::vector<Lit>> clauses;
  struct CardCon {
    std::vector<Lit> lits;
    std::uint32_t bound;
    bool at_most;  // false = at-least
  };
  std::vector<CardCon> cards;
};

template <typename Solver>
void feed(Solver& s, const Instance& inst) {
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

bool assignment_satisfies(const Instance& inst,
                          const std::vector<Lit>& assumptions,
                          std::uint32_t assign) {
  auto litTrue = [&](Lit l) {
    bool val = ((assign >> l.var()) & 1u) != 0;
    return val != l.negated();
  };
  for (Lit a : assumptions) {
    if (!litTrue(a)) return false;
  }
  for (const auto& cl : inst.clauses) {
    bool any = false;
    for (Lit l : cl) {
      if (litTrue(l)) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  for (const auto& c : inst.cards) {
    std::uint32_t trues = 0;
    for (Lit l : c.lits) trues += litTrue(l) ? 1u : 0u;
    if (c.at_most && trues > c.bound) return false;
    if (!c.at_most && trues < c.bound) return false;
  }
  return true;
}

SolveResult brute_force(const Instance& inst,
                        const std::vector<Lit>& assumptions = {}) {
  for (std::uint32_t assign = 0;
       assign < (1u << static_cast<unsigned>(inst.num_vars)); ++assign) {
    if (assignment_satisfies(inst, assumptions, assign)) {
      return SolveResult::Sat;
    }
  }
  return SolveResult::Unsat;
}

Instance random_instance(std::mt19937_64& rng) {
  Instance inst;
  inst.num_vars = 5 + static_cast<int>(rng() % 8);  // 5..12
  int m = inst.num_vars * (2 + static_cast<int>(rng() % 3));
  for (int c = 0; c < m; ++c) {
    std::vector<Lit> cl;
    int len = 1 + static_cast<int>(rng() % 4);
    for (int k = 0; k < len; ++k) {
      // Duplicates and complementary pairs are allowed on purpose: the
      // normalisation paths must also agree.
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

SatOptions random_options(std::mt19937_64& rng, std::uint64_t iter) {
  SatOptions o;
  o.default_phase = (rng() & 1) != 0;
  o.restart_base = (rng() % 2 == 0) ? 3u : 100u;
  o.var_decay = (rng() % 2 == 0) ? 0.95 : 0.8;
  o.random_branch_permil = (rng() % 3 == 0) ? 150u : 0u;
  o.seed = 0x9e3779b97f4a7c15ull + iter * 0x100000001b3ull;
  // Tiny bases force the reduce_db + GC machinery constantly; the default
  // keeps it off. Both sides must agree either way.
  const std::uint32_t bases[3] = {1u, 2u, 8000u};
  o.reduce_db_base = bases[rng() % 3];
  return o;
}

void expect_same_search(const SatSolver& arena,
                        const reftest::ReferenceSatSolver& ref,
                        const char* what) {
  const SatStats& a = arena.stats();
  const SatStats& r = ref.stats();
  EXPECT_EQ(a.decisions, r.decisions) << what;
  EXPECT_EQ(a.propagations, r.propagations) << what;
  EXPECT_EQ(a.conflicts, r.conflicts) << what;
  EXPECT_EQ(a.restarts, r.restarts) << what;
  EXPECT_EQ(a.learned_clauses, r.learned_clauses) << what;
  EXPECT_EQ(a.deleted_clauses, r.deleted_clauses) << what;
}

// Random instances, random heuristics, two solves per solver pair (the
// second under assumptions, reusing the incremental state): verdicts AND
// search-effort counters must match the reference exactly, and verdicts
// must match brute force.
TEST(SatArenaDifferential, RandomInstancesMatchReferenceCountForCount) {
  std::mt19937_64 rng(20260806);
  for (std::uint64_t iter = 0; iter < 180; ++iter) {
    Instance inst = random_instance(rng);
    SatOptions opts = random_options(rng, iter);

    SatSolver arena;
    reftest::ReferenceSatSolver ref;
    arena.set_options(opts);
    ref.set_options(opts);
    feed(arena, inst);
    feed(ref, inst);

    SolveResult va = arena.solve();
    SolveResult vr = ref.solve();
    EXPECT_EQ(va, vr) << "iter " << iter;
    EXPECT_EQ(va, brute_force(inst)) << "iter " << iter;
    expect_same_search(arena, ref, "first solve");
    if (va == SolveResult::Sat) {
      std::uint32_t assign = 0;
      for (int v = 0; v < inst.num_vars; ++v) {
        if (arena.model_value(v)) assign |= 1u << v;
      }
      EXPECT_TRUE(assignment_satisfies(inst, {}, assign)) << "iter " << iter;
    }

    // Second solve on the same (now warmed-up) solvers, under assumptions.
    std::vector<Lit> assumptions;
    for (int k = 0; k < static_cast<int>(rng() % 3); ++k) {
      assumptions.push_back(Lit(static_cast<Var>(rng() % inst.num_vars),
                                (rng() & 1) != 0));
    }
    SolveResult va2 = arena.solve(assumptions);
    SolveResult vr2 = ref.solve(assumptions);
    EXPECT_EQ(va2, vr2) << "iter " << iter;
    EXPECT_EQ(va2, brute_force(inst, assumptions)) << "iter " << iter;
    expect_same_search(arena, ref, "assumption solve");

    if (::testing::Test::HasFailure()) {
      FAIL() << "stopping at first divergent iteration: " << iter;
    }
  }
}

// Pigeonhole: n+1 pigeons, n holes. Resolution-hard, so it generates long
// learnt-clause streams — ideal for hammering reduce_db and the compactor.
template <typename Solver>
void add_pigeonhole(Solver& s, int holes) {
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

// A reduce_db/GC-heavy UNSAT run must stay in lockstep with the reference
// through every clause deletion and arena compaction.
TEST(SatArenaDifferential, PigeonholeUnderTinyReduceDbMatchesReference) {
  for (int holes : {5, 6}) {
    SatOptions opts;
    opts.reduce_db_base = 1;
    opts.restart_base = 3;

    SatSolver arena;
    reftest::ReferenceSatSolver ref;
    arena.set_options(opts);
    ref.set_options(opts);
    add_pigeonhole(arena, holes);
    add_pigeonhole(ref, holes);

    EXPECT_EQ(arena.solve(), SolveResult::Unsat) << holes;
    EXPECT_EQ(ref.solve(), SolveResult::Unsat) << holes;
    expect_same_search(arena, ref, "pigeonhole");
    // The configuration is chosen so the machinery demonstrably ran:
    // clauses were deleted while others were locked as reasons, and the
    // arena was compacted mid-search.
    EXPECT_GT(arena.stats().deleted_clauses, 0u) << holes;
    EXPECT_GT(arena.stats().arena_gcs, 0u) << holes;
    ASSERT_FALSE(::testing::Test::HasFailure()) << "holes " << holes;
  }
}

// Reuse one GC-stressed incremental solver across many assumption queries
// and check every verdict against a fresh default-configured solver. The
// incremental solver's learnt database survives queries and is reduced +
// compacted constantly (reason-locked clauses included), so any corruption
// shows up as a verdict flip on a later query.
TEST(SatArenaGc, StressedIncrementalSolverStaysCorrectAcrossQueries) {
  std::mt19937_64 rng(7777);
  Instance inst;
  inst.num_vars = 36;
  for (int c = 0; c < 150; ++c) {
    std::vector<Lit> cl;
    for (int k = 0; k < 3; ++k) {
      cl.push_back(
          Lit(static_cast<Var>(rng() % inst.num_vars), (rng() & 1) != 0));
    }
    inst.clauses.push_back(std::move(cl));
  }

  SatOptions stressed;
  stressed.reduce_db_base = 1;
  stressed.restart_base = 3;
  SatSolver inc;
  inc.set_options(stressed);
  feed(inc, inst);

  for (int q = 0; q < 25; ++q) {
    std::vector<Lit> assumptions;
    for (int k = 0; k < 3; ++k) {
      assumptions.push_back(
          Lit(static_cast<Var>(rng() % inst.num_vars), (rng() & 1) != 0));
    }
    SatSolver fresh;
    feed(fresh, inst);
    EXPECT_EQ(inc.solve(assumptions), fresh.solve(assumptions)) << q;
    ASSERT_FALSE(::testing::Test::HasFailure()) << "query " << q;
  }
}

// After a level-0-closing UNSAT, the solver must stay closed.
TEST(SatArenaGc, UnsatAfterHeavyReductionStaysUnsat) {
  SatOptions opts;
  opts.reduce_db_base = 1;
  opts.restart_base = 3;
  SatSolver s;
  s.set_options(opts);
  add_pigeonhole(s, 5);
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
  EXPECT_EQ(s.solve({Lit::pos(0)}), SolveResult::Unsat);
}

// A SAT formula that needs real search: clauses learnt before a push are
// implied by the pre-push database alone, so pop() must retain them
// instead of discarding the whole learnt database (the historical
// behaviour this PR fixes).
TEST(SatArenaPushPop, LearntClausesFromBeforeThePushSurvivePop) {
  std::mt19937_64 rng(424242);
  Instance inst;
  inst.num_vars = 30;
  for (int c = 0; c < 124; ++c) {
    std::vector<Lit> cl;
    for (int k = 0; k < 3; ++k) {
      cl.push_back(
          Lit(static_cast<Var>(rng() % inst.num_vars), (rng() & 1) != 0));
    }
    inst.clauses.push_back(std::move(cl));
  }
  SatSolver s;
  feed(s, inst);
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  const std::size_t learnedBefore = s.num_learned_clauses();
  ASSERT_GT(learnedBefore, 0u) << "instance too easy to test retention";

  s.push();
  Var extra = s.new_var();
  s.add_clause({Lit::pos(extra)});
  for (int c = 0; c < 20; ++c) {
    std::vector<Lit> cl{Lit::neg(extra)};
    for (int k = 0; k < 2; ++k) {
      cl.push_back(
          Lit(static_cast<Var>(rng() % inst.num_vars), (rng() & 1) != 0));
    }
    s.add_clause(cl);
  }
  ASSERT_NE(s.solve(), SolveResult::Unknown);
  s.pop();

  // Depth-0 learnts survive; depth-1 learnts (and anything mentioning the
  // popped variable) are gone. The retained count can shrink via level-0
  // simplification but must not be zero.
  EXPECT_GT(s.num_learned_clauses(), 0u);
  EXPECT_LE(s.num_learned_clauses(), learnedBefore);
  EXPECT_EQ(s.solve(), SolveResult::Sat);
}

// Random push/add/solve/pop sequences: after every solve the verdict must
// match brute force over exactly the live (non-popped) constraints, with
// retained learnt clauses riding along across the pops.
TEST(SatArenaPushPop, RetentionFuzzAgainstBruteForce) {
  std::mt19937_64 rng(987654321);
  for (int iter = 0; iter < 60; ++iter) {
    Instance base = random_instance(rng);
    SatOptions opts = random_options(rng, static_cast<std::uint64_t>(iter));
    SatSolver s;
    s.set_options(opts);
    feed(s, base);

    EXPECT_EQ(s.solve(), brute_force(base)) << iter;

    // Two nested frames of extra clauses over the same variables.
    std::vector<Instance> frames{base};
    for (int depth = 0; depth < 2; ++depth) {
      s.push();
      Instance ext = frames.back();
      int extra = 1 + static_cast<int>(rng() % 6);
      for (int c = 0; c < extra; ++c) {
        std::vector<Lit> cl;
        int len = 1 + static_cast<int>(rng() % 3);
        for (int k = 0; k < len; ++k) {
          cl.push_back(Lit(static_cast<Var>(rng() % base.num_vars),
                           (rng() & 1) != 0));
        }
        s.add_clause(cl);
        ext.clauses.push_back(std::move(cl));
      }
      frames.push_back(std::move(ext));
      EXPECT_EQ(s.solve(), brute_force(frames.back()))
          << iter << " depth " << depth;
    }
    for (int depth = 1; depth >= 0; --depth) {
      s.pop();
      frames.pop_back();
      EXPECT_EQ(s.solve(), brute_force(frames.back()))
          << iter << " after pop to depth " << depth;
    }
    ASSERT_FALSE(::testing::Test::HasFailure()) << "iter " << iter;
  }
}

}  // namespace
}  // namespace psse::smt
