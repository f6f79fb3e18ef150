// Microbenchmarks for the SMT substrate (google-benchmark): exact
// arithmetic, CDCL search, simplex pivoting, end-to-end small solves.
// Not a paper figure — these support the ablation notes in EXPERIMENTS.md.
#include <benchmark/benchmark.h>

#include <random>
#include <string_view>
#include <vector>

#include "core/attack_model.h"
#include "grid/ieee_cases.h"
#include "screen/lp_screen.h"
#include "smt/solver.h"

using namespace psse;

namespace {

void BM_BigIntMul(benchmark::State& state) {
  smt::BigInt a = smt::BigInt::from_string(
      "123456789123456789123456789123456789");
  smt::BigInt b = smt::BigInt::from_string("987654321987654321987654321");
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_BigIntMul);

void BM_BigIntDivMod(benchmark::State& state) {
  smt::BigInt n = smt::BigInt::from_string(
      "340282366920938463463374607431768211457340282366920938463");
  smt::BigInt d = smt::BigInt::from_string("18446744073709551629");
  smt::BigInt q, r;
  for (auto _ : state) {
    smt::BigInt::div_mod(n, d, q, r);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_BigIntDivMod);

void BM_RationalArith(benchmark::State& state) {
  smt::Rational a(123457, 1000);
  smt::Rational b(-987651, 777);
  for (auto _ : state) {
    smt::Rational c = a * b + a / b - a;
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_RationalArith);

// Small-value fast-path targets: the pivot loop spends its time in exactly
// these shapes (gcd-normalised admittance-sized coefficients).
void BM_RationalSmallAdd(benchmark::State& state) {
  smt::Rational a(3, 7);
  const smt::Rational b(-5, 11);
  for (auto _ : state) {
    smt::Rational c = a;
    c += b;
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_RationalSmallAdd);

void BM_RationalSmallMul(benchmark::State& state) {
  smt::Rational a(355, 113);
  const smt::Rational b(-113, 355);
  for (auto _ : state) {
    smt::Rational c = a;
    c *= b;
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_RationalSmallMul);

void BM_BigIntSmallGcd(benchmark::State& state) {
  const smt::BigInt a(123456789);
  const smt::BigInt b(987654);
  for (auto _ : state) {
    benchmark::DoNotOptimize(smt::BigInt::gcd(a, b));
  }
}
BENCHMARK(BM_BigIntSmallGcd);

// Multi-limb gcd: the Rational::normalize hot path once numerators
// outgrow the inline form. Arg(0) runs the reference divmod-based Euclid
// chain (the pre-filter implementation, kept as the differential-test
// oracle), Arg(1) the production binary Stein gcd (shift/subtract only).
void BM_BigIntBigGcd(benchmark::State& state) {
  const bool production = state.range(0) != 0;
  const smt::BigInt a = smt::BigInt::from_string(
      "340282366920938463463374607431768211457340282366920938463");
  const smt::BigInt b = smt::BigInt::from_string(
      "618970019642690137449562111987654321123456789");
  for (auto _ : state) {
    benchmark::DoNotOptimize(production ? smt::BigInt::gcd(a, b)
                                        : smt::BigInt::reference_gcd(a, b));
  }
}
BENCHMARK(BM_BigIntBigGcd)->Arg(0)->Arg(1);

void BM_BigIntSmallMulAdd(benchmark::State& state) {
  const smt::BigInt a(774747);
  const smt::BigInt b(-12345);
  smt::BigInt acc(1);
  for (auto _ : state) {
    acc = a * b + acc;
    benchmark::DoNotOptimize(acc);
    acc = smt::BigInt(1);
  }
}
BENCHMARK(BM_BigIntSmallMulAdd);

// Rational::normalize on already-canonical values: Arg(0) integral
// operands (denominator one, the no-gcd fast path that row merges over
// integral tableaus hit on almost every term), Arg(1) fractional operands
// (the full gcd path, for before/after contrast).
void BM_RationalNormalizeCanonical(benchmark::State& state) {
  const bool fractional = state.range(0) != 0;
  const smt::Rational b = fractional ? smt::Rational(777, 13)
                                     : smt::Rational(777);
  const smt::Rational c = fractional ? smt::Rational(-444, 7)
                                     : smt::Rational(-444);
  smt::Rational acc(12345);
  for (auto _ : state) {
    acc.add_mul(b, c);
    benchmark::DoNotOptimize(acc);
    acc = smt::Rational(12345);
  }
}
BENCHMARK(BM_RationalNormalizeCanonical)->Arg(0)->Arg(1);

// Row merge over Rational terms: the simplex row-elimination step
// (LinExpr::add_scaled into a recycled scratch buffer), which moves every
// term of the row through the merge. Arg = terms per row; the rows share
// every other variable, so half the merge fuses coefficients and half
// copies them. Each iteration adds k*rhs and then -k*rhs, which restores
// the row exactly.
void BM_LinExprAddScaled(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  smt::LinExpr row, rhs;
  for (int i = 0; i < n; ++i) {
    row.add_term(2 * i, smt::Rational(3 + i, 7));
    rhs.add_term(2 * i + (i % 2), smt::Rational(-5 - i, 11));
  }
  const smt::Rational k(13, 17), minusK(-13, 17);
  std::vector<std::pair<smt::TVar, smt::Rational>> scratch;
  for (auto _ : state) {
    row.add_scaled(rhs, k, scratch);
    row.add_scaled(rhs, minusK, scratch);
    benchmark::DoNotOptimize(row);
  }
}
BENCHMARK(BM_LinExprAddScaled)->Arg(16)->Arg(64);

void BM_SatRandom3Sat(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    std::mt19937_64 rng(42);
    smt::SatSolver s;
    for (int i = 0; i < n; ++i) s.new_var();
    for (int c = 0; c < static_cast<int>(4.0 * n); ++c) {
      std::vector<smt::Lit> cl;
      for (int k = 0; k < 3; ++k) {
        cl.push_back(smt::Lit(static_cast<smt::Var>(rng() % n),
                              (rng() & 1) != 0));
      }
      s.add_clause(cl);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_SatRandom3Sat)->Arg(50)->Arg(100)->Arg(200);

// Pure boolean-constraint-propagation throughput: one unit clause triggers
// a cascade through binary implication chains with periodic 5-literal
// "conjunction" links, so solve() is one long watched-literal propagation
// pass (no decisions beyond assumptions, no conflicts). This is the
// clause-memory-layout hot path: ns/iteration tracks pointer-chasing cost
// per visited clause.
void BM_Propagation(benchmark::State& state) {
  const int len = static_cast<int>(state.range(0));
  constexpr int kChains = 16;
  for (auto _ : state) {
    state.PauseTiming();
    smt::SatSolver s;
    smt::Var root = s.new_var();
    std::vector<std::vector<smt::Var>> chain(kChains);
    for (int c = 0; c < kChains; ++c) {
      for (int i = 0; i < len; ++i) chain[c].push_back(s.new_var());
      s.add_clause({smt::Lit::neg(root), smt::Lit::pos(chain[c][0])});
      for (int i = 0; i + 1 < len; ++i) {
        s.add_clause({smt::Lit::neg(chain[c][i]),
                      smt::Lit::pos(chain[c][i + 1])});
      }
      // Every 4th link also follows from the conjunction of the previous
      // four variables: these wider clauses force genuine watch scans.
      for (int i = 4; i + 1 < len; i += 4) {
        std::vector<smt::Lit> wide;
        for (int k = 0; k < 4; ++k) {
          wide.push_back(smt::Lit::neg(chain[c][i - k]));
        }
        wide.push_back(smt::Lit::pos(chain[c][i + 1]));
        s.add_clause(wide);
      }
    }
    s.add_clause({smt::Lit::pos(root)});
    state.ResumeTiming();
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_Propagation)->Arg(256)->Arg(2048);

void BM_SimplexChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    smt::Simplex s;
    std::vector<smt::TVar> vars;
    for (int i = 0; i < n; ++i) vars.push_back(s.new_var());
    state.ResumeTiming();
    // Chain x_{i+1} - x_i == 1 via slacks, then bound both ends.
    int tag = 0;
    for (int i = 0; i + 1 < n; ++i) {
      smt::LinExpr e;
      e.add_term(vars[static_cast<std::size_t>(i + 1)], smt::Rational(1));
      e.add_term(vars[static_cast<std::size_t>(i)], smt::Rational(-1));
      smt::TVar sl = s.slack_for(e);
      s.assert_lower(sl, smt::DeltaRational(smt::Rational(1)),
                     smt::Lit::pos(tag++));
      s.assert_upper(sl, smt::DeltaRational(smt::Rational(1)),
                     smt::Lit::pos(tag++));
    }
    s.assert_lower(vars[0], smt::DeltaRational(smt::Rational(0)),
                   smt::Lit::pos(tag++));
    bool ok = s.check();
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_SimplexChain)->Arg(50)->Arg(200);

// Pivot-rule comparison on a dense feasibility problem: Arg(0) pins strict
// Bland's rule, Arg(1) uses the default heuristic (largest violation /
// largest coefficient magnitude with Bland fallback). The instance makes
// every slack start violated, so check() must genuinely pivot.
void BM_SimplexCheckFeasibility(benchmark::State& state) {
  const bool heuristic = state.range(0) != 0;
  for (auto _ : state) {
    state.PauseTiming();
    smt::Simplex s;
    smt::SimplexOptions opts;
    opts.heuristic_pivoting = heuristic;
    opts.derive_bounds = false;
    s.set_options(opts);
    const int n = 40;
    std::vector<smt::TVar> vars;
    for (int i = 0; i < n; ++i) vars.push_back(s.new_var());
    std::mt19937_64 rng(7);
    int tag = 0;
    std::vector<smt::TVar> slacks;
    for (int r = 0; r < n; ++r) {
      smt::LinExpr e;
      for (int k = 0; k < 4; ++k) {
        e.add_term(vars[rng() % n],
                   smt::Rational(1 + static_cast<int>(rng() % 5)));
      }
      if (e.is_constant()) continue;
      slacks.push_back(s.slack_for(e));
    }
    for (smt::TVar v : vars) {
      s.assert_lower(v, smt::DeltaRational(smt::Rational(1)),
                     smt::Lit::pos(tag++));
    }
    state.ResumeTiming();
    for (smt::TVar sl : slacks) {
      s.assert_upper(sl, smt::DeltaRational(smt::Rational(40)),
                     smt::Lit::pos(tag++));
    }
    benchmark::DoNotOptimize(s.check());
  }
}
BENCHMARK(BM_SimplexCheckFeasibility)->Arg(0)->Arg(1);

// The float filter's effect in isolation: the same pivot-heavy instance as
// BM_SimplexCheckFeasibility (heuristic rule in both arms), Arg(0) with the
// filter off (pure exact solver), Arg(1) with the default filtered
// configuration. Verdicts are identical by construction; the delta is the
// cost of exact DeltaRational bookkeeping the filter avoids until a
// verdict depends on it.
void BM_SimplexFloatFilter(benchmark::State& state) {
  const bool filtered = state.range(0) != 0;
  for (auto _ : state) {
    state.PauseTiming();
    smt::Simplex s;
    smt::SimplexOptions opts;
    opts.float_filter = filtered;
    opts.derive_bounds = false;
    s.set_options(opts);
    const int n = 40;
    std::vector<smt::TVar> vars;
    for (int i = 0; i < n; ++i) vars.push_back(s.new_var());
    std::mt19937_64 rng(7);
    int tag = 0;
    std::vector<smt::TVar> slacks;
    for (int r = 0; r < n; ++r) {
      smt::LinExpr e;
      for (int k = 0; k < 4; ++k) {
        e.add_term(vars[rng() % n],
                   smt::Rational(1 + static_cast<int>(rng() % 5)));
      }
      if (e.is_constant()) continue;
      slacks.push_back(s.slack_for(e));
    }
    for (smt::TVar v : vars) {
      s.assert_lower(v, smt::DeltaRational(smt::Rational(1)),
                     smt::Lit::pos(tag++));
    }
    state.ResumeTiming();
    for (smt::TVar sl : slacks) {
      s.assert_upper(sl, smt::DeltaRational(smt::Rational(40)),
                     smt::Lit::pos(tag++));
    }
    benchmark::DoNotOptimize(s.check());
  }
}
BENCHMARK(BM_SimplexFloatFilter)->Arg(0)->Arg(1);

// Builds a grid-sparse feasibility instance (banded 3-4 term rows, the
// locality pattern of transmission-system tableaus) whose slack bounds all
// start violated, so check() pivots heavily. Shared by the eta-tableau
// micro benches below.
void make_banded_instance(smt::Simplex& s, const smt::SimplexOptions& opts,
                          std::vector<smt::TVar>& slacks) {
  s.set_options(opts);
  const int n = 160;
  std::vector<smt::TVar> vars;
  for (int i = 0; i < n; ++i) vars.push_back(s.new_var());
  std::mt19937_64 rng(13);
  slacks.clear();
  for (int r = 0; r < n; ++r) {
    smt::LinExpr e;
    const int terms = 3 + static_cast<int>(rng() % 2);
    for (int k = 0; k < terms; ++k) {
      const int lo = r > 8 ? r - 8 : 0;
      const int v = lo + static_cast<int>(rng() % 9);  // within the band
      e.add_term(vars[static_cast<std::size_t>(v)],
                 smt::Rational(1 + static_cast<int>(rng() % 5)));
    }
    if (e.is_constant()) continue;
    slacks.push_back(s.slack_for(e));
  }
  int tag = 0;
  for (smt::TVar v : vars) {
    s.assert_lower(v, smt::DeltaRational(smt::Rational(1)),
                   smt::Lit::pos(tag++));
  }
}

// The eta factorisation's effect in isolation: the same banded pivot-heavy
// instance, Arg(0) with eager row substitution (eta off), Arg(1) with the
// default eta-factorised tableau. Verdicts and pivot sequences are
// identical by construction; the delta is the exact row maintenance the
// eta file defers (and, for rows no verdict reads, never pays).
void BM_SimplexFactorUpdate(benchmark::State& state) {
  const bool eta = state.range(0) != 0;
  for (auto _ : state) {
    state.PauseTiming();
    smt::Simplex s;
    smt::SimplexOptions opts;
    opts.eta_tableau = eta;
    opts.derive_bounds = false;
    std::vector<smt::TVar> slacks;
    make_banded_instance(s, opts, slacks);
    int tag = 10000;
    state.ResumeTiming();
    for (smt::TVar sl : slacks) {
      s.assert_upper(sl, smt::DeltaRational(smt::Rational(40)),
                     smt::Lit::pos(tag++));
    }
    benchmark::DoNotOptimize(s.check());
  }
}
BENCHMARK(BM_SimplexFactorUpdate)->Arg(0)->Arg(1);

// FTRAN replay vs refactorisation tradeoff: eta always on, Arg = the
// eta-file length that triggers refactorisation. Small budgets refactorise
// constantly (BTRAN-heavy), large ones replay long files wherever a verdict
// reads a stale row (FTRAN-heavy); the default (64) sits between.
void BM_Ftran(benchmark::State& state) {
  const auto budget = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    smt::Simplex s;
    smt::SimplexOptions opts;
    opts.eta_refactor_len = budget;
    opts.derive_bounds = false;
    std::vector<smt::TVar> slacks;
    make_banded_instance(s, opts, slacks);
    int tag = 10000;
    state.ResumeTiming();
    for (smt::TVar sl : slacks) {
      s.assert_upper(sl, smt::DeltaRational(smt::Rational(40)),
                     smt::Lit::pos(tag++));
    }
    benchmark::DoNotOptimize(s.check());
  }
}
BENCHMARK(BM_Ftran)->Arg(4)->Arg(64)->Arg(1024);

// LP-relaxation screen (screen::LpScreen): one warm per-family screen
// queried per delta — the analytics service's front-end hot path. Arg 0:
// an open goal the screen cannot refute (falls through to SMT); Arg 1:
// every taken measurement secured, so the relaxation pins the target and
// the screen answers Unsat by itself.
void BM_LpScreen(benchmark::State& state) {
  const bool secured = state.range(0) != 0;
  grid::Grid g = grid::cases::by_name("ieee57");
  grid::MeasurementPlan plan(g.num_lines(), g.num_buses());
  core::AttackSpec spec;
  screen::LpScreen lp(g, plan, spec);
  core::ScenarioDelta delta;
  delta.target_states = {g.num_buses() - 1};
  if (secured) {
    for (grid::MeasId m = 0; m < plan.num_potential(); ++m) {
      if (plan.taken(m)) delta.secured_measurements.push_back(m);
    }
  }
  for (auto _ : state) {
    screen::ScreenResult r = lp.screen(delta);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_LpScreen)->Arg(0)->Arg(1);

// Sparse-tableau scaling: fixed row count, Arg = non-zero terms per row.
// Rows are (index, coeff) pair vectors, so pivot cost should track the
// non-zero count, not the column count — the curve over Arg is the check
// that no dense O(columns) pass crept back into the pivot loop.
void BM_SimplexRowDensity(benchmark::State& state) {
  const int termsPerRow = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    smt::Simplex s;
    const int n = 96;
    std::vector<smt::TVar> vars;
    for (int i = 0; i < n; ++i) vars.push_back(s.new_var());
    std::mt19937_64 rng(11);
    int tag = 0;
    std::vector<smt::TVar> slacks;
    for (int r = 0; r < 24; ++r) {
      smt::LinExpr e;
      for (int k = 0; k < termsPerRow; ++k) {
        e.add_term(vars[rng() % n],
                   smt::Rational(1 + static_cast<int>(rng() % 5)));
      }
      if (e.is_constant()) continue;
      slacks.push_back(s.slack_for(e));
    }
    for (smt::TVar v : vars) {
      s.assert_lower(v, smt::DeltaRational(smt::Rational(1)),
                     smt::Lit::pos(tag++));
    }
    state.ResumeTiming();
    for (smt::TVar sl : slacks) {
      s.assert_upper(sl, smt::DeltaRational(smt::Rational(60)),
                     smt::Lit::pos(tag++));
    }
    benchmark::DoNotOptimize(s.check());
  }
}
BENCHMARK(BM_SimplexRowDensity)->Arg(4)->Arg(16)->Arg(48);

// End-to-end DPLL(T) solve with the theory-propagation hook off (Arg 0)
// and on (Arg 1): guarded intervals where each asserted guard's bound
// decides several other atoms, the shape theory propagation shortcuts.
void BM_TheoryPropagation(benchmark::State& state) {
  const bool propagate = state.range(0) != 0;
  for (auto _ : state) {
    smt::Solver s;
    smt::SatOptions o = s.sat_options();
    o.theory_propagation = propagate;
    s.set_sat_options(o);
    auto& t = s.terms();
    smt::TVar x = s.mk_real("x");
    smt::TVar y = s.mk_real("y");
    const smt::LinExpr sum = smt::LinExpr::var(x) + smt::LinExpr::var(y);
    std::vector<smt::TermRef> sel;
    for (int i = 0; i < 24; ++i) {
      smt::TermRef b = s.mk_bool();
      sel.push_back(b);
      s.assert_term(t.mk_implies(b, t.mk_ge(sum, smt::Rational(i))));
      // Once any guard asserts sum >= i, the atoms sum >= i-10 below are
      // implied and the escape booleans d never need exploring; without
      // propagation each is found unusable by a theory conflict.
      smt::TermRef d = s.mk_bool();
      s.assert_term(t.mk_or({t.mk_ge(sum, smt::Rational(i - 10)), d}));
      s.assert_term(t.mk_implies(
          d, t.mk_ge(smt::LinExpr::var(y), smt::Rational(50 + i))));
    }
    s.assert_term(t.mk_le(smt::LinExpr::var(y), smt::Rational(40)));
    s.add_at_least(sel, 6);
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_TheoryPropagation)->Arg(0)->Arg(1);

void BM_SmtGuardedIntervals(benchmark::State& state) {
  for (auto _ : state) {
    smt::Solver s;
    auto& t = s.terms();
    smt::TVar x = s.mk_real("x");
    std::vector<smt::TermRef> sel;
    for (int i = 0; i < 12; ++i) {
      smt::TermRef b = s.mk_bool();
      sel.push_back(b);
      s.assert_term(t.mk_implies(
          b, t.mk_ge(smt::LinExpr::var(x), smt::Rational(i))));
      s.assert_term(t.mk_implies(
          b, t.mk_le(smt::LinExpr::var(x), smt::Rational(i + 2))));
    }
    s.add_at_least(sel, 3);
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_SmtGuardedIntervals);

void BM_AttackModelBuild(benchmark::State& state) {
  grid::Grid g = grid::cases::ieee30();
  grid::MeasurementPlan plan(g.num_lines(), g.num_buses());
  core::AttackSpec spec;
  spec.target_states = {15};
  for (auto _ : state) {
    core::UfdiAttackModel model(g, plan, spec);
    benchmark::DoNotOptimize(&model);
  }
}
BENCHMARK(BM_AttackModelBuild);

void BM_AttackVerify14(benchmark::State& state) {
  grid::Grid g = grid::cases::ieee14();
  grid::MeasurementPlan plan = grid::cases::paper_plan14(g);
  core::AttackSpec spec;
  spec.target_states = {11};
  spec.attack_only_targets = true;
  for (auto _ : state) {
    core::UfdiAttackModel model(g, plan, spec);
    benchmark::DoNotOptimize(model.verify().result);
  }
}
BENCHMARK(BM_AttackVerify14);

}  // namespace

// Same entry-point contract as the figure benches: `--json` requests
// machine-readable output (here google-benchmark's own JSON report, which
// ci.sh validates). Other flags pass through to the benchmark library.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  static char jsonFlag[] = "--benchmark_format=json";
  for (char*& a : args) {
    if (std::string_view(a) == "--json") a = jsonFlag;
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
