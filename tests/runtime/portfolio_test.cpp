// Portfolio verification properties: the verdict never depends on how many
// configurations race or how the instance is split into cubes, and
// deterministic mode is reproducible across thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/attack_model.h"
#include "core/scenario.h"
#include "obs/trace.h"
#include "runtime/cube.h"
#include "runtime/portfolio.h"

namespace psse {
namespace {

core::Scenario load_scenario(const char* name) {
  return core::Scenario::load(std::string(PSSE_DATA_DIR) + "/" + name);
}

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

TEST(Portfolio, LadderStartsAtBaselineAndExtends) {
  auto two = runtime::default_portfolio(2);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0].label, "baseline");
  // Member 0 is exactly the default configuration (serial anchor).
  EXPECT_EQ(two[0].options.default_phase, smt::SatOptions{}.default_phase);
  EXPECT_EQ(two[0].options.restart_base, smt::SatOptions{}.restart_base);
  auto many = runtime::default_portfolio(12);
  ASSERT_EQ(many.size(), 12u);
  const char* ladder[] = {"baseline", "fast-decay",      "lazy",
                          "pos-lazy", "random-5pct", "pos-random-5pct"};
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(many[i].label, ladder[i]);
  // Generated members beyond the built-in ladder branch randomly, each
  // with its own seed.
  for (std::size_t i = 6; i < many.size(); ++i) {
    EXPECT_GT(many[i].options.random_branch_permil, 0u) << i;
  }
  EXPECT_NE(many[10].options.seed, many[11].options.seed);
}

TEST(Portfolio, DeterministicVerdictIndependentOfThreadCount) {
  core::Scenario sc = load_scenario("ieee57_verification.scn");
  core::UfdiAttackModel model(sc.grid, sc.plan, sc.spec);
  smt::SolveResult verdicts[3];
  int winners[3];
  const std::size_t counts[3] = {1, 2, 8};
  for (int i = 0; i < 3; ++i) {
    runtime::PortfolioOptions opt;
    opt.num_threads = counts[i];
    opt.deterministic = true;
    runtime::PortfolioResult pr = runtime::verify_portfolio(model, opt);
    verdicts[i] = pr.result();
    winners[i] = pr.winner;
    // Deterministic mode runs every member to completion.
    for (const auto& m : pr.members) {
      EXPECT_NE(m.result, smt::SolveResult::Unknown) << m.label;
    }
  }
  EXPECT_EQ(verdicts[0], smt::SolveResult::Sat);
  EXPECT_EQ(verdicts[0], verdicts[1]);
  EXPECT_EQ(verdicts[0], verdicts[2]);
  // With no member budget every member is definitive, so the
  // lowest-index winner is member 0 regardless of thread count.
  EXPECT_EQ(winners[0], 0);
  EXPECT_EQ(winners[1], 0);
  EXPECT_EQ(winners[2], 0);
}

TEST(Portfolio, RacingVerdictMatchesSerialOnAllScenarios) {
  for (const std::string& file : all_scenarios()) {
    core::Scenario sc = core::Scenario::load(file);
    core::UfdiAttackModel model(sc.grid, sc.plan, sc.spec);
    core::VerificationResult serial = model.verify();
    runtime::PortfolioOptions opt;
    opt.num_threads = 4;
    // A fresh model: clones copy their source's state, and the race must
    // search cold, not on top of the serial solve's learnt clauses.
    const core::UfdiAttackModel cold(sc.grid, sc.plan, sc.spec);
    runtime::PortfolioResult pr = runtime::verify_portfolio(cold, opt);
    EXPECT_EQ(pr.result(), serial.result) << file;
    EXPECT_GE(pr.winner, 0) << file;
    if (pr.result() == smt::SolveResult::Sat) {
      // The winning member's attack vector is a genuine model.
      ASSERT_TRUE(pr.verification.attack.has_value()) << file;
    }
  }
}

TEST(Portfolio, MemberOutcomesCarryPerSolveStats) {
  core::Scenario sc = load_scenario("ieee30_verification.scn");
  core::UfdiAttackModel model(sc.grid, sc.plan, sc.spec);
  runtime::PortfolioOptions opt;
  opt.num_threads = 4;
  opt.deterministic = true;  // every member runs to completion
  runtime::PortfolioResult pr = runtime::verify_portfolio(model, opt);
  ASSERT_EQ(pr.members.size(), 4u);
  for (const auto& m : pr.members) {
    // Each clone did real search work, and the stats are per-solve deltas
    // on a fresh clone, so they must be plausible, not lifetime blowups.
    EXPECT_GT(m.stats.sat.theory_checks, 0u) << m.label;
    EXPECT_GT(m.stats.footprint_bytes, 0u) << m.label;
    EXPECT_FALSE(m.cancelled) << m.label;  // nobody is cancelled here
  }
  // The winner's outcome mirrors the returned verification stats.
  ASSERT_GE(pr.winner, 0);
  const auto& w = pr.members[static_cast<std::size_t>(pr.winner)];
  EXPECT_EQ(w.result, pr.result());
  EXPECT_EQ(w.stats.sat.decisions, pr.verification.stats.sat.decisions);
  EXPECT_EQ(w.stats.pivots, pr.verification.stats.pivots);
}

TEST(Portfolio, CancelledLosersAreMarked) {
  core::Scenario sc = load_scenario("ieee57_verification.scn");
  core::UfdiAttackModel model(sc.grid, sc.plan, sc.spec);
  runtime::PortfolioOptions opt;
  opt.num_threads = 8;
  runtime::PortfolioResult pr = runtime::verify_portfolio(model, opt);
  ASSERT_GE(pr.winner, 0);
  for (std::size_t i = 0; i < pr.members.size(); ++i) {
    const auto& m = pr.members[i];
    if (m.result == smt::SolveResult::Unknown) {
      // No member budget is set, so the only way to finish Unknown is
      // first-winner cancellation — exactly what `cancelled` records.
      EXPECT_TRUE(m.cancelled) << m.label;
    } else {
      EXPECT_FALSE(m.cancelled) << m.label;
    }
  }
  EXPECT_FALSE(pr.members[static_cast<std::size_t>(pr.winner)].cancelled);
}

TEST(Portfolio, SingleMemberWinnerAttributionMatchesAcrossModes) {
  core::Scenario sc = load_scenario("ieee14_objective1.scn");
  core::UfdiAttackModel model(sc.grid, sc.plan, sc.spec);
  runtime::PortfolioResult byMode[2];
  for (bool deterministic : {false, true}) {
    runtime::PortfolioOptions opt;
    opt.num_threads = 1;
    opt.deterministic = deterministic;
    byMode[deterministic ? 1 : 0] = runtime::verify_portfolio(model, opt);
  }
  const runtime::PortfolioResult& racing = byMode[0];
  const runtime::PortfolioResult& det = byMode[1];
  // With one member there is nothing to race: both modes must attribute
  // the win to member 0 (the baseline) with the same verdict.
  EXPECT_EQ(racing.winner, 0);
  EXPECT_EQ(det.winner, 0);
  EXPECT_EQ(racing.result(), det.result());
  ASSERT_EQ(racing.members.size(), 1u);
  ASSERT_EQ(det.members.size(), 1u);
  EXPECT_EQ(racing.members[0].label, det.members[0].label);
  EXPECT_FALSE(racing.members[0].cancelled);
  EXPECT_FALSE(det.members[0].cancelled);
}

TEST(Portfolio, TraceJournalsEveryMemberAndTheWinner) {
  const std::string path = testing::TempDir() + "portfolio_trace.jsonl";
  core::Scenario sc = load_scenario("ieee30_verification.scn");
  core::UfdiAttackModel model(sc.grid, sc.plan, sc.spec);
  runtime::PortfolioResult pr;
  {
    auto sink = obs::TraceSink::open(path);
    runtime::PortfolioOptions opt;
    opt.num_threads = 3;
    opt.deterministic = true;
    opt.trace = {sink.get()};
    pr = runtime::verify_portfolio(model, opt);
  }
  std::ifstream in(path);
  std::string line;
  int memberEvents = 0;
  int doneEvents = 0;
  while (std::getline(in, line)) {
    if (line.find("\"ev\":\"portfolio_member\"") != std::string::npos) {
      ++memberEvents;
    }
    if (line.find("\"ev\":\"portfolio_done\"") != std::string::npos) {
      ++doneEvents;
      EXPECT_NE(line.find("\"winner\":" + std::to_string(pr.winner)),
                std::string::npos)
          << line;
    }
  }
  EXPECT_EQ(memberEvents, 3);
  EXPECT_EQ(doneEvents, 1);
}

TEST(Portfolio, ExternalStopTokenCancelsTheRace) {
  core::Scenario sc = load_scenario("ieee57_verification.scn");
  core::UfdiAttackModel model(sc.grid, sc.plan, sc.spec);
  std::atomic<bool> stop{true};  // cancelled before the race starts
  runtime::PortfolioOptions opt;
  opt.num_threads = 2;
  opt.budget.stop = &stop;
  runtime::PortfolioResult pr = runtime::verify_portfolio(model, opt);
  EXPECT_EQ(pr.winner, -1);
  EXPECT_EQ(pr.result(), smt::SolveResult::Unknown);
}

TEST(CubeAndConquer, VerdictMatchesSerialOnAllScenarios) {
  for (const std::string& file : all_scenarios()) {
    core::Scenario sc = core::Scenario::load(file);
    core::UfdiAttackModel model(sc.grid, sc.plan, sc.spec);
    core::VerificationResult serial = model.verify();
    runtime::PortfolioOptions opt;
    opt.num_threads = 4;
    opt.mode = runtime::PortfolioMode::kCubeAndConquer;
    // A tiny burn-in keeps the suite fast; correctness cannot depend on
    // how warm the activity ranking is.
    opt.cube.burnin_conflicts = 40;
    // A fresh model, so the split and the cubes start cold (see above).
    const core::UfdiAttackModel cold(sc.grid, sc.plan, sc.spec);
    runtime::PortfolioResult pr = runtime::verify_portfolio(cold, opt);
    EXPECT_EQ(pr.result(), serial.result) << file;
    if (pr.result() == smt::SolveResult::Unsat && pr.cubes_generated > 0) {
      EXPECT_EQ(pr.cubes_refuted, pr.cubes_generated) << file;
    }
    if (pr.result() == smt::SolveResult::Sat) {
      ASSERT_TRUE(pr.verification.attack.has_value()) << file;
      // A SAT cube's model is a genuine attack on the original instance:
      // it replays undetected through the full estimation pipeline.
      const core::AttackReplay replay =
          core::replay_attack(sc.grid, sc.plan, *pr.verification.attack);
      EXPECT_FALSE(replay.detected) << file;
      EXPECT_LT(replay.stealth_gap, 1e-6) << file;
    }
  }
}

TEST(CubeAndConquer, UnsatRequiresEveryCubeRefuted) {
  // fig4d-style UNSAT: a resource cap below the 4-measurement floor.
  core::Scenario sc = load_scenario("ieee57_verification.scn");
  core::AttackSpec spec = sc.spec;
  spec.max_altered_measurements = 3;
  core::UfdiAttackModel model(sc.grid, sc.plan, spec);
  runtime::PortfolioOptions opt;
  opt.num_threads = 4;
  opt.mode = runtime::PortfolioMode::kCubeAndConquer;
  opt.cube.burnin_conflicts = 40;
  runtime::PortfolioResult pr = runtime::verify_portfolio(model, opt);
  EXPECT_EQ(pr.result(), smt::SolveResult::Unsat);
  // Cube-tree completeness: UNSAT is only reported once every generated
  // cube is individually refuted, and every cube has a recorded outcome.
  EXPECT_GT(pr.cubes_generated, 1u);
  EXPECT_EQ(pr.cubes_refuted, pr.cubes_generated);
  ASSERT_EQ(pr.members.size(), pr.cubes_generated);
  for (const auto& m : pr.members) {
    EXPECT_EQ(m.result, smt::SolveResult::Unsat) << m.label;
    EXPECT_FALSE(m.cancelled) << m.label;
  }
  // No cube owns the joint proof.
  EXPECT_EQ(pr.winner, -1);
}

// The ieee118 refutation from data/: UNSAT, about 0.2 s serially, and it
// splits into a full cube tree.
core::Scenario refutation() { return load_scenario("ieee118_refute.scn"); }

// The caller's stop token and deadline reach the burn-in: with a burn-in
// budget large enough to refute the whole instance on its own, a stop set
// before the call or a 1 ms deadline must still end in Unknown.
TEST(CubeAndConquer, StopTokenReachesTheBurnIn) {
  const core::Scenario sc = refutation();
  const core::UfdiAttackModel model(sc.grid, sc.plan, sc.spec);
  std::atomic<bool> stop{true};
  runtime::PortfolioOptions opt;
  opt.num_threads = 4;
  opt.mode = runtime::PortfolioMode::kCubeAndConquer;
  opt.cube.burnin_conflicts = 1'000'000;
  opt.budget.stop = &stop;
  const runtime::PortfolioResult pr = runtime::verify_portfolio(model, opt);
  EXPECT_EQ(pr.result(), smt::SolveResult::Unknown);
  EXPECT_EQ(pr.cubes_refuted, 0u);
}

TEST(CubeAndConquer, DeadlineCoversTheBurnIn) {
  const core::Scenario sc = refutation();
  const core::UfdiAttackModel model(sc.grid, sc.plan, sc.spec);
  runtime::PortfolioOptions opt;
  opt.num_threads = 4;
  opt.mode = runtime::PortfolioMode::kCubeAndConquer;
  opt.cube.burnin_conflicts = 1'000'000;
  opt.budget.max_time = std::chrono::milliseconds(1);
  const runtime::PortfolioResult pr = runtime::verify_portfolio(model, opt);
  EXPECT_EQ(pr.result(), smt::SolveResult::Unknown);
  EXPECT_EQ(pr.cubes_refuted, 0u);
}

// The burn-in's work is part of the refutation: the joint UNSAT stats are
// the burn-in plus every cube. The burn-in is one deterministic serial
// search from a copy of the same unsolved model, so a direct split
// reproduces its counts exactly.
TEST(CubeAndConquer, JointStatsIncludeTheBurnIn) {
  const core::Scenario sc = refutation();
  const core::UfdiAttackModel model(sc.grid, sc.plan, sc.spec);
  runtime::PortfolioOptions opt;
  opt.num_threads = 2;
  opt.mode = runtime::PortfolioMode::kCubeAndConquer;
  const runtime::CubeSet split = runtime::split_cubes(model, opt.cube);
  ASSERT_GT(split.cubes.size(), 1u);
  ASSERT_GT(split.burnin.sat.conflicts, 0u);
  const runtime::PortfolioResult pr = runtime::verify_portfolio(model, opt);
  ASSERT_EQ(pr.result(), smt::SolveResult::Unsat);
  EXPECT_EQ(pr.cubes_refuted, pr.cubes_generated);
  std::uint64_t cubeConflicts = 0;
  std::uint64_t cubeDecisions = 0;
  for (const auto& m : pr.members) {
    cubeConflicts += m.stats.sat.conflicts;
    cubeDecisions += m.stats.sat.decisions;
  }
  EXPECT_EQ(pr.verification.stats.sat.conflicts,
            split.burnin.sat.conflicts + cubeConflicts);
  EXPECT_EQ(pr.verification.stats.sat.decisions,
            split.burnin.sat.decisions + cubeDecisions);
}

// The warm fork's concurrency contract: four threads clone one const,
// burned-in prober at the same time and conquer its cubes on their copies.
TEST(CubeAndConquer, ThreadsForkOneWarmProberConcurrently) {
  core::Scenario sc = load_scenario("ieee57_verification.scn");
  core::AttackSpec spec = sc.spec;
  spec.max_altered_measurements = 3;  // below the 4-measurement floor
  const core::UfdiAttackModel model(sc.grid, sc.plan, spec);
  runtime::CubeOptions cube;
  cube.burnin_conflicts = 40;
  const runtime::CubeSet split = runtime::split_cubes(model, cube);
  ASSERT_GT(split.cubes.size(), 1u);
  const core::UfdiAttackModel& prober = *split.prober;

  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<smt::SolveResult>> verdicts(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      std::unique_ptr<core::UfdiAttackModel> fork = prober.clone();
      for (std::size_t k = w; k < split.cubes.size(); k += kThreads) {
        verdicts[w].push_back(
            fork->verify_with_assumptions(split.cubes[k]).result);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::size_t refuted = 0;
  for (const auto& vs : verdicts) {
    for (smt::SolveResult v : vs) {
      EXPECT_EQ(v, smt::SolveResult::Unsat);
      refuted += v == smt::SolveResult::Unsat ? 1 : 0;
    }
  }
  EXPECT_EQ(refuted, split.cubes.size());
}

TEST(CubeAndConquer, SatShortCircuitLeavesTheModelReusable) {
  core::Scenario sc = load_scenario("ieee57_verification.scn");
  core::UfdiAttackModel model(sc.grid, sc.plan, sc.spec);
  runtime::PortfolioOptions opt;
  opt.num_threads = 4;
  opt.mode = runtime::PortfolioMode::kCubeAndConquer;
  opt.cube.burnin_conflicts = 40;
  runtime::PortfolioResult first = runtime::verify_portfolio(model, opt);
  EXPECT_EQ(first.result(), smt::SolveResult::Sat);
  if (first.cubes_generated > 0) {
    // SAT short-circuits: the tree is decided by one cube, so not every
    // cube needs refuting (cancelled cubes are marked, not lost).
    EXPECT_LT(first.cubes_refuted, first.cubes_generated);
    ASSERT_GE(first.winner, 0);
    EXPECT_FALSE(
        first.members[static_cast<std::size_t>(first.winner)].cancelled);
  }
  // Cancellation must not poison the shared model: the same model object
  // serves a serial verify, another cube run, and a racing portfolio.
  EXPECT_EQ(model.verify().result, smt::SolveResult::Sat);
  runtime::PortfolioResult again = runtime::verify_portfolio(model, opt);
  EXPECT_EQ(again.result(), smt::SolveResult::Sat);
  opt.mode = runtime::PortfolioMode::kRace;
  runtime::PortfolioResult raced = runtime::verify_portfolio(model, opt);
  EXPECT_EQ(raced.result(), smt::SolveResult::Sat);
}

TEST(CubeAndConquer, DeterministicModeReportsLowestSatCube) {
  core::Scenario sc = load_scenario("ieee30_verification.scn");
  core::UfdiAttackModel model(sc.grid, sc.plan, sc.spec);
  int winners[2] = {-2, -2};
  for (int rep = 0; rep < 2; ++rep) {
    runtime::PortfolioOptions opt;
    opt.num_threads = 4;
    opt.mode = runtime::PortfolioMode::kCubeAndConquer;
    opt.cube.burnin_conflicts = 40;
    opt.deterministic = true;
    runtime::PortfolioResult pr = runtime::verify_portfolio(model, opt);
    EXPECT_EQ(pr.result(), smt::SolveResult::Sat);
    winners[rep] = pr.winner;
    // Deterministic mode runs every cube to completion: each outcome is
    // definitive, so the reported winner is the lowest SAT cube index.
    for (const auto& m : pr.members) {
      EXPECT_NE(m.result, smt::SolveResult::Unknown) << m.label;
      EXPECT_FALSE(m.cancelled) << m.label;
    }
  }
  EXPECT_EQ(winners[0], winners[1]);
}

}  // namespace
}  // namespace psse
