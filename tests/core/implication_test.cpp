// The sweep-implication predicates (core/implication.h), without a solver:
// SAT carries up, UNSAT carries down, along every ScenarioDelta axis, with
// 0 = unlimited on each cap in both roles, secured-set overlap and
// containment, exact min_target_shift ties, and no carry at all across
// unequal goals.
#include <vector>

#include <gtest/gtest.h>

#include "core/attack_spec.h"
#include "core/attack_vector.h"
#include "core/implication.h"
#include "smt/rational.h"

namespace psse::core {
namespace {

using smt::Rational;

ScenarioDelta goal() {
  ScenarioDelta d;
  d.target_states = {4};
  d.attack_only_targets = true;
  return d;
}

/// Five altered meters at three residence buses, one excluded and one
/// included line, and an exact shift of -1/2 on target bus 4.
AttackVector witness() {
  AttackVector a;
  a.altered_measurements = {3, 7, 11, 20, 31};
  a.compromised_buses = {2, 4, 6};
  a.excluded_lines = {5};
  a.included_lines = {9};
  a.delta_theta.assign(8, Rational(0));
  a.delta_theta[4] = Rational(-1, 2);
  return a;
}

TEST(Implication, WitnessCarriesUpTheMeasurementCap) {
  const ScenarioDelta solved = goal();
  ScenarioDelta point = goal();
  for (const int cap : {5, 8, 0}) {  // equal, looser, unlimited
    point.max_altered_measurements = cap;
    EXPECT_TRUE(witness_implies(solved, witness(), point)) << cap;
  }
  point.max_altered_measurements = 4;
  EXPECT_FALSE(witness_implies(solved, witness(), point));
}

TEST(Implication, WitnessCarriesUpTheBusCap) {
  const ScenarioDelta solved = goal();
  ScenarioDelta point = goal();
  for (const int cap : {3, 4, 0}) {
    point.max_compromised_buses = cap;
    EXPECT_TRUE(witness_implies(solved, witness(), point)) << cap;
  }
  point.max_compromised_buses = 2;
  EXPECT_FALSE(witness_implies(solved, witness(), point));
}

TEST(Implication, WitnessCarriesUpTheTopologyCap) {
  const ScenarioDelta solved = goal();
  ScenarioDelta point = goal();
  for (const int cap : {2, 3, 0}) {  // one exclusion + one inclusion
    point.max_topology_changes = cap;
    EXPECT_TRUE(witness_implies(solved, witness(), point)) << cap;
  }
  point.max_topology_changes = 1;
  EXPECT_FALSE(witness_implies(solved, witness(), point));
}

TEST(Implication, WitnessMustAvoidThePointsSecuredSets) {
  const ScenarioDelta solved = goal();
  ScenarioDelta point = goal();
  point.secured_measurements = {1, 2, 8, 30};
  point.secured_buses = {0, 5};
  EXPECT_TRUE(witness_implies(solved, witness(), point));

  point.secured_measurements = {40, 20, 1};  // unsorted, hits meter 20
  EXPECT_FALSE(witness_implies(solved, witness(), point));

  point.secured_measurements = {1};
  point.secured_buses = {6};  // residence of an altered meter
  EXPECT_FALSE(witness_implies(solved, witness(), point));
}

TEST(Implication, WitnessShiftMustClearTheThresholdExactly) {
  ScenarioDelta solved = goal();
  ScenarioDelta point = goal();
  point.min_target_shift = 0.5;  // |-1/2| == 1/2: a tie clears it
  EXPECT_TRUE(witness_implies(solved, witness(), point));
  point.min_target_shift = 0.500001;
  EXPECT_FALSE(witness_implies(solved, witness(), point));
  point.min_target_shift = 0.25;
  EXPECT_TRUE(witness_implies(solved, witness(), point));

  // 0.1 is 0.1000000000000000055... as a double, above 1/10: a double
  // comparison would reject a shift of exactly 1/10, which the encoder
  // (rounding the threshold to 1/10) accepts.
  AttackVector tenth = witness();
  tenth.delta_theta[4] = Rational(1, 10);
  point.min_target_shift = 0.1;
  EXPECT_TRUE(witness_implies(solved, tenth, point));

  // A threshold on a target the witness does not shift enough.
  solved.target_states = {4, 5};
  point.target_states = {4, 5};
  point.min_target_shift = 0.25;
  EXPECT_FALSE(witness_implies(solved, witness(), point));
}

TEST(Implication, RefutationCarriesDownTheCaps) {
  ScenarioDelta refuted = goal();
  ScenarioDelta point = goal();
  refuted.max_altered_measurements = 4;
  refuted.max_compromised_buses = 3;
  refuted.max_topology_changes = 2;
  point.max_altered_measurements = 4;
  point.max_compromised_buses = 3;
  point.max_topology_changes = 2;
  EXPECT_TRUE(refutation_implies(refuted, point));
  point.max_altered_measurements = 3;
  point.max_compromised_buses = 1;
  point.max_topology_changes = 1;
  EXPECT_TRUE(refutation_implies(refuted, point));

  // Any looser cap, including unlimited, breaks the carry.
  for (const bool unlimited : {false, true}) {
    ScenarioDelta looser = point;
    looser.max_altered_measurements = unlimited ? 0 : 5;
    EXPECT_FALSE(refutation_implies(refuted, looser)) << unlimited;
    looser = point;
    looser.max_compromised_buses = unlimited ? 0 : 4;
    EXPECT_FALSE(refutation_implies(refuted, looser)) << unlimited;
    looser = point;
    looser.max_topology_changes = unlimited ? 0 : 3;
    EXPECT_FALSE(refutation_implies(refuted, looser)) << unlimited;
  }

  // An unlimited refuted cap is refuted for every cap.
  refuted.max_altered_measurements = 0;
  point.max_altered_measurements = 0;
  EXPECT_TRUE(refutation_implies(refuted, point));
  point.max_altered_measurements = 12;
  EXPECT_TRUE(refutation_implies(refuted, point));
}

TEST(Implication, RefutationCarriesUpTheTargetShift) {
  ScenarioDelta refuted = goal();
  ScenarioDelta point = goal();
  refuted.min_target_shift = 0.5;
  point.min_target_shift = 0.5;  // tie
  EXPECT_TRUE(refutation_implies(refuted, point));
  point.min_target_shift = 2.0;
  EXPECT_TRUE(refutation_implies(refuted, point));
  point.min_target_shift = 0.499999;
  EXPECT_FALSE(refutation_implies(refuted, point));
  point.min_target_shift = 0.0;
  EXPECT_FALSE(refutation_implies(refuted, point));
  refuted.min_target_shift = 0.0;
  EXPECT_TRUE(refutation_implies(refuted, point));
}

TEST(Implication, RefutationNeedsTheSecuredSetsContained) {
  ScenarioDelta refuted = goal();
  ScenarioDelta point = goal();
  refuted.secured_measurements = {3, 7};
  refuted.secured_buses = {2};
  point.secured_measurements = {7, 1, 3};  // unsorted superset
  point.secured_buses = {2, 9};
  EXPECT_TRUE(refutation_implies(refuted, point));
  point.secured_measurements = {3};
  EXPECT_FALSE(refutation_implies(refuted, point));
  point.secured_measurements = {1, 3, 7};
  point.secured_buses = {9};
  EXPECT_FALSE(refutation_implies(refuted, point));
}

TEST(Implication, UnequalGoalsNeverCarry) {
  const ScenarioDelta base = goal();
  std::vector<ScenarioDelta> others(5, base);
  others[0].target_states = {5};
  others[1].attack_only_targets = false;
  others[2].distinct_changes = {{1, 2}};
  others[3].require_any_state_attack = false;
  others[4].max_measurement_delta = 0.05;
  for (const ScenarioDelta& other : others) {
    EXPECT_FALSE(same_goal(base, other));
    // Everything else about the pair would carry.
    EXPECT_FALSE(witness_implies(base, witness(), other));
    EXPECT_FALSE(witness_implies(other, witness(), base));
    EXPECT_FALSE(refutation_implies(base, other));
    EXPECT_FALSE(refutation_implies(other, base));
  }
  EXPECT_TRUE(same_goal(base, goal()));
  EXPECT_TRUE(witness_implies(base, witness(), base));
  EXPECT_TRUE(refutation_implies(base, base));
}

}  // namespace
}  // namespace psse::core
