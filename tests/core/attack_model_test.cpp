// Reproduction tests for the paper's Section III-I case studies plus
// coverage of every attack attribute of the UFDI verification model.
#include "core/attack_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>

#include "core/scenario.h"
#include "grid/ieee_cases.h"
#include "smt/common.h"

namespace psse::core {
namespace {

using grid::cases::ieee14;
using grid::cases::paper_plan14;
using smt::SolveResult;

std::vector<int> one_based(const std::vector<grid::MeasId>& ids) {
  std::vector<int> out;
  for (int id : ids) out.push_back(id + 1);
  std::sort(out.begin(), out.end());
  return out;
}

// --- Attack Objective 2 (unique answer, exact reproduction) ---
// "attack state 12 only": measurements 12, 32, 39, 46, 53 must be altered.

TEST(PaperObjective2, ExactMeasurementSet) {
  grid::Grid g = ieee14();
  grid::MeasurementPlan plan = paper_plan14(g);
  AttackSpec spec;
  spec.target_states = {11};  // bus 12, 0-based
  spec.attack_only_targets = true;
  UfdiAttackModel model(g, plan, spec);
  VerificationResult r = model.verify();
  ASSERT_EQ(r.result, SolveResult::Sat);
  ASSERT_TRUE(r.attack.has_value());
  EXPECT_EQ(one_based(r.attack->altered_measurements),
            (std::vector<int>{12, 32, 39, 46, 53}));
  // Only state 12 is corrupted.
  for (int j = 0; j < g.num_buses(); ++j) {
    if (j == 11) {
      EXPECT_FALSE(r.attack->delta_theta[static_cast<std::size_t>(j)]
                       .is_zero());
    } else {
      EXPECT_TRUE(
          r.attack->delta_theta[static_cast<std::size_t>(j)].is_zero());
    }
  }
}

TEST(PaperObjective2, SecuringMeasurement46BlocksIt) {
  grid::Grid g = ieee14();
  grid::MeasurementPlan plan = paper_plan14(g);
  plan.set_secured(45, true);  // measurement 46, 1-based
  AttackSpec spec;
  spec.target_states = {11};
  spec.attack_only_targets = true;
  UfdiAttackModel model(g, plan, spec);
  EXPECT_EQ(model.verify().result, SolveResult::Unsat);
}

TEST(PaperObjective2, TopologyPoisoningRevivesIt) {
  // With measurement 46 secured but topology attacks allowed, excluding
  // line 13 re-enables the attack with measurements 12,13,32,33,39,53.
  grid::Grid g = ieee14();
  grid::MeasurementPlan plan = paper_plan14(g);
  plan.set_secured(45, true);
  AttackSpec spec;
  spec.target_states = {11};
  spec.attack_only_targets = true;
  spec.allow_topology_attacks = true;
  UfdiAttackModel model(g, plan, spec);
  VerificationResult r = model.verify();
  ASSERT_EQ(r.result, SolveResult::Sat);
  ASSERT_TRUE(r.attack.has_value());
  EXPECT_EQ(r.attack->excluded_lines, (std::vector<grid::LineId>{12}));
  EXPECT_TRUE(r.attack->included_lines.empty());
  EXPECT_EQ(one_based(r.attack->altered_measurements),
            (std::vector<int>{12, 13, 32, 33, 39, 53}));
}

// --- Attack Objective 1 (feasibility boundaries) ---
// States 9 and 10, different amounts; admittances of 3, 7, 17 unknown.

AttackSpec objective1_spec(const grid::Grid& g) {
  AttackSpec spec;
  spec.set_unknown(2, g.num_lines());   // line 3
  spec.set_unknown(6, g.num_lines());   // line 7
  spec.set_unknown(16, g.num_lines());  // line 17
  spec.target_states = {8, 9};          // buses 9, 10
  spec.distinct_changes = {{8, 9}};
  return spec;
}

TEST(PaperObjective1, FeasibleWith16MeasurementsAnd7Buses) {
  grid::Grid g = ieee14();
  grid::MeasurementPlan plan = paper_plan14(g);
  AttackSpec spec = objective1_spec(g);
  spec.max_altered_measurements = 16;
  spec.max_compromised_buses = 7;
  UfdiAttackModel model(g, plan, spec);
  VerificationResult r = model.verify();
  ASSERT_EQ(r.result, SolveResult::Sat);
  ASSERT_TRUE(r.attack.has_value());
  EXPECT_LE(r.attack->altered_measurements.size(), 16u);
  EXPECT_LE(r.attack->compromised_buses.size(), 7u);
  // Both targets corrupted, by different amounts.
  EXPECT_FALSE(r.attack->delta_theta[8].is_zero());
  EXPECT_FALSE(r.attack->delta_theta[9].is_zero());
  EXPECT_NE(r.attack->delta_theta[8], r.attack->delta_theta[9]);
}

TEST(PaperObjective1, EqualAmountsNeedFewerResources) {
  // Dropping the distinct-change requirement admits a 15-measurement,
  // 6-bus attack (the paper's second solution).
  grid::Grid g = ieee14();
  grid::MeasurementPlan plan = paper_plan14(g);
  AttackSpec spec = objective1_spec(g);
  spec.distinct_changes.clear();
  spec.max_altered_measurements = 15;
  spec.max_compromised_buses = 6;
  UfdiAttackModel model(g, plan, spec);
  VerificationResult r = model.verify();
  ASSERT_EQ(r.result, SolveResult::Sat);
  EXPECT_LE(r.attack->altered_measurements.size(), 15u);
  EXPECT_LE(r.attack->compromised_buses.size(), 6u);
}

TEST(PaperObjective1, InfeasibleWith15MeasurementsAnd6Buses) {
  // The paper: "if the attacker's resources are more limited (e.g., 15
  // measurements and/or 6 buses only), then unsat is returned".
  grid::Grid g = ieee14();
  grid::MeasurementPlan plan = paper_plan14(g);
  AttackSpec spec = objective1_spec(g);
  spec.max_altered_measurements = 15;
  spec.max_compromised_buses = 6;
  UfdiAttackModel model(g, plan, spec);
  EXPECT_EQ(model.verify().result, SolveResult::Unsat);
}

TEST(PaperObjective1, TargetsCannotBeAttackedAlone) {
  // The paper notes states 9 and 10 cannot be attacked without corrupting
  // further states.
  grid::Grid g = ieee14();
  grid::MeasurementPlan plan = paper_plan14(g);
  AttackSpec spec = objective1_spec(g);
  spec.attack_only_targets = true;
  UfdiAttackModel model(g, plan, spec);
  EXPECT_EQ(model.verify().result, SolveResult::Unsat);
}

// --- Attribute coverage on small controlled grids ---

grid::Grid path3() {
  // 3 buses in a path, unit-ish admittances.
  grid::Grid g(3);
  g.add_line(0, 1, 2.0);
  g.add_line(1, 2, 4.0);
  return g;
}

TEST(AttackModel, UnlimitedAdversaryFindsAnAttack) {
  grid::Grid g = path3();
  grid::MeasurementPlan plan(g.num_lines(), g.num_buses());
  AttackSpec spec;
  UfdiAttackModel model(g, plan, spec);
  VerificationResult r = model.verify();
  ASSERT_EQ(r.result, SolveResult::Sat);
  EXPECT_FALSE(r.attack->altered_measurements.empty());
}

TEST(AttackModel, SecuringEverythingBlocksAllAttacks) {
  grid::Grid g = path3();
  grid::MeasurementPlan plan(g.num_lines(), g.num_buses());
  for (grid::MeasId m = 0; m < plan.num_potential(); ++m) {
    plan.set_secured(m, true);
  }
  UfdiAttackModel model(g, plan, AttackSpec{});
  EXPECT_EQ(model.verify().result, SolveResult::Unsat);
}

TEST(AttackModel, InaccessibleMeasurementsActLikeSecured) {
  grid::Grid g = path3();
  grid::MeasurementPlan plan(g.num_lines(), g.num_buses());
  for (grid::MeasId m = 0; m < plan.num_potential(); ++m) {
    plan.set_accessible(m, false);
  }
  UfdiAttackModel model(g, plan, AttackSpec{});
  EXPECT_EQ(model.verify().result, SolveResult::Unsat);
}

TEST(AttackModel, UntakenMeasurementsNeedNoAltering) {
  // Only injection at bus 2 (index 1) is taken besides flows of line 2;
  // attacking state 3 touches only taken meters.
  grid::Grid g = path3();
  grid::MeasurementPlan plan(g.num_lines(), g.num_buses());
  AttackSpec spec;
  spec.target_states = {2};
  spec.attack_only_targets = true;
  UfdiAttackModel model(g, plan, spec);
  VerificationResult r = model.verify();
  ASSERT_EQ(r.result, SolveResult::Sat);
  std::size_t withAll = r.attack->altered_measurements.size();

  grid::MeasurementPlan sparse(g.num_lines(), g.num_buses());
  sparse.set_taken(sparse.backward_flow(1), false);
  sparse.set_taken(sparse.injection(2), false);
  UfdiAttackModel model2(g, sparse, spec);
  VerificationResult r2 = model2.verify();
  ASSERT_EQ(r2.result, SolveResult::Sat);
  EXPECT_LT(r2.attack->altered_measurements.size(), withAll);
}

TEST(AttackModel, KnowledgeConstraintForcesEqualShift) {
  // Unknown admittance on line 2 (buses 2-3): its flow cannot be altered,
  // so attacking state 3 forces state 2 to shift by the same amount.
  grid::Grid g = path3();
  grid::MeasurementPlan plan(g.num_lines(), g.num_buses());
  AttackSpec spec;
  spec.set_unknown(1, g.num_lines());
  spec.target_states = {2};
  UfdiAttackModel model(g, plan, spec);
  VerificationResult r = model.verify();
  ASSERT_EQ(r.result, SolveResult::Sat);
  EXPECT_EQ(r.attack->delta_theta[1], r.attack->delta_theta[2]);
  // And attacking state 3 alone is impossible.
  AttackSpec only = spec;
  only.attack_only_targets = true;
  UfdiAttackModel model2(g, plan, only);
  EXPECT_EQ(model2.verify().result, SolveResult::Unsat);
}

TEST(AttackModel, ResourceLimitBoundsAlteredSet) {
  // With every potential measurement taken, the cheapest stealthy attack
  // shifts a leaf state: 2 flow meters + 2 injections = 4 alterations.
  grid::Grid g = ieee14();
  grid::MeasurementPlan plan(g.num_lines(), g.num_buses());
  AttackSpec spec;
  spec.max_altered_measurements = 4;
  UfdiAttackModel model(g, plan, spec);
  VerificationResult r = model.verify();
  ASSERT_EQ(r.result, SolveResult::Sat);
  EXPECT_EQ(r.attack->altered_measurements.size(), 4u);

  AttackSpec tight = spec;
  tight.max_altered_measurements = 3;
  UfdiAttackModel model2(g, plan, tight);
  EXPECT_EQ(model2.verify().result, SolveResult::Unsat);
}

TEST(AttackModel, BusLimitBoundsCompromisedSet) {
  grid::Grid g = ieee14();
  grid::MeasurementPlan plan(g.num_lines(), g.num_buses());
  AttackSpec spec;
  spec.max_compromised_buses = 2;
  UfdiAttackModel model(g, plan, spec);
  VerificationResult r = model.verify();
  ASSERT_EQ(r.result, SolveResult::Sat);
  EXPECT_LE(r.attack->compromised_buses.size(), 2u);
}

TEST(AttackModel, TooTightResourcesAreUnsat) {
  grid::Grid g = path3();
  grid::MeasurementPlan plan(g.num_lines(), g.num_buses());
  AttackSpec spec;
  spec.max_altered_measurements = 1;  // any state change touches >= 2 meters
  UfdiAttackModel model(g, plan, spec);
  EXPECT_EQ(model.verify().result, SolveResult::Unsat);
}

TEST(AttackModel, ReferenceBusCannotBeTargeted) {
  grid::Grid g = path3();
  grid::MeasurementPlan plan(g.num_lines(), g.num_buses());
  AttackSpec spec;
  spec.target_states = {0};
  EXPECT_THROW(UfdiAttackModel(g, plan, spec), smt::SmtError);
}

TEST(AttackModel, FixedLinesResistExclusion) {
  // All lines fixed: topology attacks allowed but nothing is excludable,
  // and nothing is open to include.
  grid::Grid g = path3();
  grid::MeasurementPlan plan(g.num_lines(), g.num_buses());
  for (grid::MeasId m = 0; m < plan.num_potential(); ++m) {
    plan.set_secured(m, true);
  }
  AttackSpec spec;
  spec.allow_topology_attacks = true;
  UfdiAttackModel model(g, plan, spec);
  EXPECT_EQ(model.verify().result, SolveResult::Unsat);
}

TEST(AttackModel, SecuredStatusBlocksExclusion) {
  // Same as PaperObjective2 topology variant but with line 13's status
  // secured: no attack.
  grid::Grid g = ieee14();
  g.line(12).status_secured = true;
  grid::MeasurementPlan plan = paper_plan14(g);
  plan.set_secured(45, true);
  AttackSpec spec;
  spec.target_states = {11};
  spec.attack_only_targets = true;
  spec.allow_topology_attacks = true;
  UfdiAttackModel model(g, plan, spec);
  EXPECT_EQ(model.verify().result, SolveResult::Unsat);
}

TEST(AttackModel, MaxTopologyChangesZeroMeansUnlimitedWhenAllowed) {
  grid::Grid g = ieee14();
  grid::MeasurementPlan plan = paper_plan14(g);
  plan.set_secured(45, true);
  AttackSpec spec;
  spec.target_states = {11};
  spec.attack_only_targets = true;
  spec.allow_topology_attacks = true;
  spec.max_topology_changes = 1;
  UfdiAttackModel model(g, plan, spec);
  EXPECT_EQ(model.verify().result, SolveResult::Sat);
}

TEST(AttackModel, InclusionAttackOnOpenLine) {
  // Path 1-2-3 plus an open chord 1-3. Securing bus 3's injection blocks
  // the pure measurement attack on state 3 — unless the adversary includes
  // the phantom chord, whose fake flow rebalances bus 3's injection.
  grid::Grid g(3);
  g.add_line(0, 1, 2.0);  // line 1
  g.add_line(1, 2, 4.0);  // line 2
  grid::Line open;
  open.from = 0;
  open.to = 2;
  open.admittance = 3.0;
  open.in_service = false;
  open.fixed = false;
  g.add_line(open);  // line 3, open
  grid::MeasurementPlan plan(g.num_lines(), g.num_buses());
  plan.set_secured(plan.injection(2), true);

  AttackSpec spec;
  spec.target_states = {2};
  spec.attack_only_targets = true;
  UfdiAttackModel m1(g, plan, spec);
  EXPECT_EQ(m1.verify().result, SolveResult::Unsat);

  AttackSpec withTopo = spec;
  withTopo.allow_topology_attacks = true;
  UfdiAttackModel m2(g, plan, withTopo);
  VerificationResult r = m2.verify();
  ASSERT_EQ(r.result, SolveResult::Sat) << "inclusion attack expected";
  EXPECT_EQ(r.attack->included_lines, (std::vector<grid::LineId>{2}));
  EXPECT_TRUE(r.attack->excluded_lines.empty());
  // The phantom line's meters and the far-end injection absorb the flow.
  auto& alt = r.attack->altered_measurements;
  EXPECT_TRUE(std::find(alt.begin(), alt.end(), plan.forward_flow(2)) !=
              alt.end());
  EXPECT_TRUE(std::find(alt.begin(), alt.end(), plan.injection(0)) !=
              alt.end());
}

TEST(AttackModel, VerifyWithSecuredBusesMatchesStaticSecuring) {
  grid::Grid g = ieee14();
  grid::MeasurementPlan plan = paper_plan14(g);
  AttackSpec spec;
  spec.target_states = {11};
  spec.attack_only_targets = true;
  UfdiAttackModel model(g, plan, spec);
  // Statically secure bus 6 (index 5): owns measurement 46.
  grid::MeasurementPlan staticPlan = plan;
  staticPlan.secure_bus(5, g);
  UfdiAttackModel staticModel(g, staticPlan, spec);
  EXPECT_EQ(staticModel.verify().result,
            model.verify_with_secured_buses({5}).result);
  // And the assumption-based query is repeatable with different sets.
  EXPECT_EQ(model.verify().result, SolveResult::Sat);
  EXPECT_EQ(model.verify_with_secured_buses({5}).result, SolveResult::Unsat);
  EXPECT_EQ(model.verify().result, SolveResult::Sat);
}

TEST(AttackModel, ConstructorValidatesInputs) {
  grid::Grid g = path3();
  grid::MeasurementPlan plan(g.num_lines(), g.num_buses());
  {
    AttackSpec spec;
    spec.reference_bus = 99;
    EXPECT_THROW(UfdiAttackModel(g, plan, spec), smt::SmtError);
  }
  {
    AttackSpec spec;
    spec.admittance_known = {true};  // wrong size
    EXPECT_THROW(UfdiAttackModel(g, plan, spec), smt::SmtError);
  }
  {
    AttackSpec spec;
    spec.target_states = {42};
    EXPECT_THROW(UfdiAttackModel(g, plan, spec), smt::SmtError);
  }
  {
    grid::MeasurementPlan wrong(1, 2);
    EXPECT_THROW(UfdiAttackModel(g, wrong, AttackSpec{}), smt::SmtError);
  }
}

TEST(AttackModel, BudgetReturnsUnknown) {
  grid::Grid g = grid::cases::ieee30();
  grid::MeasurementPlan plan(g.num_lines(), g.num_buses());
  AttackSpec spec;
  spec.max_altered_measurements = 5;  // under the 4-floor? no: unsat-hard
  UfdiAttackModel model(g, plan, spec);
  smt::Budget tiny;
  tiny.max_conflicts = 1;
  VerificationResult r = model.verify(tiny);
  EXPECT_EQ(r.result, smt::SolveResult::Unknown);
  EXPECT_FALSE(r.attack.has_value());
  // And a real budget still resolves it afterwards.
  EXPECT_NE(model.verify().result, smt::SolveResult::Unknown);
}

// A wall-clock budget must hold even where single simplex pivots are slow.
// With positive initial phase, data/ieee30_verification.scn drives the
// exact tableau dense enough that one pivot takes tens to hundreds of
// milliseconds; a pivot loop that polled the deadline only every 16th
// pivot returned seconds past a 300 ms budget. (Not labelled for the
// sanitizer presets: their slowdown would stretch every pivot.)
TEST(AttackModel, TimeBudgetHoldsThroughSlowPivots) {
  const Scenario sc = Scenario::load(std::string(PSSE_DATA_DIR) +
                                     "/ieee30_verification.scn");
  UfdiAttackModel model(sc.grid, sc.plan, sc.spec);
  smt::SatOptions positive;
  positive.default_phase = true;
  model.set_solver_options(positive);
  smt::Budget budget;
  budget.max_time = std::chrono::milliseconds(300);
  const auto start = std::chrono::steady_clock::now();
  const VerificationResult r = model.verify(budget);
  const auto took = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_NE(r.result, SolveResult::Unsat);  // the scenario is SAT
  EXPECT_LT(took, 2 * budget.max_time);
}

TEST(AttackModel, DistinctChangeWithoutTargets) {
  // Pure Eq. (26) usage: any attack where buses 2 and 3 shift differently.
  grid::Grid g = path3();
  grid::MeasurementPlan plan(g.num_lines(), g.num_buses());
  AttackSpec spec;
  spec.require_any_state_attack = false;
  spec.distinct_changes = {{1, 2}};
  UfdiAttackModel model(g, plan, spec);
  VerificationResult r = model.verify();
  ASSERT_EQ(r.result, SolveResult::Sat);
  EXPECT_NE(r.attack->delta_theta[1], r.attack->delta_theta[2]);
}

TEST(AttackModel, StatsAndTimingPopulated) {
  grid::Grid g = ieee14();
  grid::MeasurementPlan plan = paper_plan14(g);
  AttackSpec spec;
  UfdiAttackModel model(g, plan, spec);
  VerificationResult r = model.verify();
  EXPECT_GT(r.stats.num_atoms, 0u);
  EXPECT_GT(r.stats.footprint_bytes, 0u);
  EXPECT_GE(r.seconds, 0.0);
}

TEST(AttackModel, VerifyReportsTheSolversGaugesAfterTheCall) {
  // Per-call counters are deltas; the gauges describe the model as the
  // call left it — on a fresh model and on a warm, incrementally reused one.
  grid::Grid g = ieee14();
  grid::MeasurementPlan plan = paper_plan14(g);
  AttackSpec spec;
  spec.target_states = {11};
  spec.max_altered_measurements = 5;
  UfdiAttackModel model(g, plan, spec);
  for (int call = 0; call < 2; ++call) {
    const VerificationResult r =
        call == 0 ? model.verify() : model.verify_with_secured_buses({1});
    const smt::SolverStats after = model.solver_stats();
    EXPECT_EQ(r.stats.num_terms, after.num_terms) << "call " << call;
    EXPECT_EQ(r.stats.num_atoms, after.num_atoms) << "call " << call;
    EXPECT_EQ(r.stats.num_bool_vars, after.num_bool_vars) << "call " << call;
    EXPECT_EQ(r.stats.num_real_vars, after.num_real_vars) << "call " << call;
    EXPECT_EQ(r.stats.footprint_bytes, after.footprint_bytes)
        << "call " << call;
    EXPECT_EQ(r.stats.arena_capacity_bytes, after.arena_capacity_bytes)
        << "call " << call;
    EXPECT_EQ(r.stats.arena_live_bytes, after.arena_live_bytes)
        << "call " << call;
    EXPECT_EQ(r.stats.eta_file_len_max, after.eta_file_len_max)
        << "call " << call;
    EXPECT_GT(r.stats.footprint_bytes, 0u);
    EXPECT_GT(r.stats.sat.theory_checks, 0u);
  }
}

}  // namespace
}  // namespace psse::core
