// UfdiAttackModel::clone() copies the model's current state: a clone of an
// unsolved model searches exactly like a fresh encode, a clone of a warm
// model keeps what the model learnt, and the two never share solver state.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "core/attack_model.h"
#include "core/scenario.h"

namespace psse::core {
namespace {

std::vector<std::string> all_scenarios() {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(PSSE_DATA_DIR)) {
    if (entry.path().extension() == ".scn") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

// The search counters two runs of the same search must agree on.
void expect_same_search(const VerificationResult& a,
                        const VerificationResult& b, const std::string& what) {
  EXPECT_EQ(a.result, b.result) << what;
  EXPECT_EQ(a.stats.sat.decisions, b.stats.sat.decisions) << what;
  EXPECT_EQ(a.stats.sat.propagations, b.stats.sat.propagations) << what;
  EXPECT_EQ(a.stats.sat.conflicts, b.stats.sat.conflicts) << what;
  EXPECT_EQ(a.stats.pivots, b.stats.pivots) << what;
}

TEST(ModelClone, UnsolvedCloneSearchesLikeAFreshEncode) {
  const std::vector<std::string> files = all_scenarios();
  ASSERT_FALSE(files.empty());
  for (const std::string& file : files) {
    const Scenario sc = Scenario::load(file);
    UfdiAttackModel fresh(sc.grid, sc.plan, sc.spec);
    const UfdiAttackModel source(sc.grid, sc.plan, sc.spec);
    std::unique_ptr<UfdiAttackModel> clone = source.clone();
    expect_same_search(fresh.verify(), clone->verify(), file);
  }
}

// The term DAG keeps its byte footprint as a running total; it must equal
// a walk over the DAG after encoding, after a solve and in a clone, whose
// copied buffers need not keep their source's capacities.
TEST(ModelClone, TermFootprintRunningTotalMatchesAWalk) {
  for (const std::string& file : all_scenarios()) {
    const Scenario sc = Scenario::load(file);
    UfdiAttackModel model(sc.grid, sc.plan, sc.spec);
    EXPECT_EQ(model.terms().footprint_bytes(),
              model.terms().walk_footprint_bytes())
        << file;
    (void)model.verify();
    EXPECT_EQ(model.terms().footprint_bytes(),
              model.terms().walk_footprint_bytes())
        << file;
    const std::unique_ptr<UfdiAttackModel> clone = model.clone();
    EXPECT_EQ(clone->terms().footprint_bytes(),
              clone->terms().walk_footprint_bytes())
        << file;
    EXPECT_GT(clone->terms().footprint_bytes(), 0u) << file;
  }
}

TEST(ModelClone, WarmCloneKeepsLearntStateAndLeavesTheSourceAlone) {
  const Scenario sc =
      Scenario::load(std::string(PSSE_DATA_DIR) + "/ieee118_refute.scn");
  UfdiAttackModel source(sc.grid, sc.plan, sc.spec);
  smt::Budget partial;
  partial.max_conflicts = 100;
  ASSERT_EQ(source.verify(partial).result, smt::SolveResult::Unknown);
  const smt::SolverStats warm = source.solver_stats();
  ASSERT_GT(warm.sat.learned_clauses, 0u);

  std::unique_ptr<UfdiAttackModel> clone = source.clone();
  const smt::SolverStats copied = clone->solver_stats();
  EXPECT_EQ(copied.sat.learned_clauses, warm.sat.learned_clauses);
  EXPECT_EQ(copied.sat.conflicts, warm.sat.conflicts);
  EXPECT_EQ(copied.arena_live_bytes, warm.arena_live_bytes);
  EXPECT_EQ(copied.pivots, warm.pivots);

  const VerificationResult fromClone = clone->verify();
  EXPECT_EQ(fromClone.result, smt::SolveResult::Unsat);
  // Solving the clone did not touch the source's solver.
  const smt::SolverStats after = source.solver_stats();
  EXPECT_EQ(after.sat.conflicts, warm.sat.conflicts);
  EXPECT_EQ(after.sat.decisions, warm.sat.decisions);
  EXPECT_EQ(after.pivots, warm.pivots);
  EXPECT_EQ(after.bigint_promotions, warm.bigint_promotions);
  // Resumed, the source runs the search the clone just ran.
  expect_same_search(source.verify(), fromClone, "source vs clone");
}

TEST(ModelClone, CloneDetachesTracingAndPhaseTiming) {
  const Scenario sc =
      Scenario::load(std::string(PSSE_DATA_DIR) + "/ieee14_objective2.scn");
  UfdiAttackModel source(sc.grid, sc.plan, sc.spec);
  source.enable_phase_timing(true);
  const VerificationResult timed = source.verify();
  ASSERT_GT(timed.phase_times.theory_us + timed.phase_times.propagate_us, 0u);

  std::unique_ptr<UfdiAttackModel> clone = source.clone();
  EXPECT_FALSE(clone->trace().enabled());
  const VerificationResult untimed = clone->verify();
  EXPECT_EQ(untimed.result, timed.result);
  EXPECT_EQ(untimed.phase_times.propagate_us, 0u);
  EXPECT_EQ(untimed.phase_times.theory_us, 0u);
}

}  // namespace
}  // namespace psse::core
