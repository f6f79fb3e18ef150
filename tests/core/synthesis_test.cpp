// Countermeasure-synthesis tests, including exact reproduction of the
// paper's Section IV-E scenarios.
#include "core/synthesis.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "grid/ieee_cases.h"
#include "smt/common.h"

namespace psse::core {
namespace {

using grid::cases::ieee14;

// Section IV-E measurement configuration: Table III's taken set, no static
// securing (the architecture itself provides all protection), reference
// bus 1 always secured (it hosts the reference PMU — every architecture in
// Fig. 3 contains bus 1).
grid::MeasurementPlan scenario_plan(const grid::Grid& g) {
  grid::MeasurementPlan plan(g.num_lines(), g.num_buses());
  for (int id : {5, 10, 14, 19, 22, 27, 30, 35, 43, 52}) {
    plan.set_taken(id - 1, false);
  }
  return plan;
}

SynthesisOptions base_options(int maxSB) {
  SynthesisOptions opt;
  opt.max_secured_buses = maxSB;
  opt.must_secure = {0};
  opt.time_limit_seconds = 300;
  return opt;
}

TEST(PaperScenario1, FourBusArchitectureExists) {
  grid::Grid g = ieee14();
  grid::MeasurementPlan plan = scenario_plan(g);
  AttackSpec spec;
  spec.set_unknown(2, g.num_lines());   // line 3
  spec.set_unknown(16, g.num_lines());  // line 17
  spec.max_altered_measurements = 12;
  UfdiAttackModel model(g, plan, spec);
  SecurityArchitectureSynthesizer syn(model, base_options(4));
  SynthesisResult r = syn.synthesize();
  ASSERT_EQ(r.status, SynthesisResult::Status::Found);
  EXPECT_LE(r.secured_buses.size(), 4u);
  // The architecture really blocks every attack of this model.
  EXPECT_EQ(model.verify_with_secured_buses(r.secured_buses).result,
            smt::SolveResult::Unsat);
  // And the unprotected system is attackable.
  EXPECT_EQ(model.verify().result, smt::SolveResult::Sat);
}

TEST(PaperScenario2, NeedsExactlyFiveBuses) {
  grid::Grid g = ieee14();
  grid::MeasurementPlan plan = scenario_plan(g);
  AttackSpec spec;  // full knowledge, unlimited resources
  UfdiAttackModel model(g, plan, spec);

  SecurityArchitectureSynthesizer syn4(model, base_options(4));
  EXPECT_EQ(syn4.synthesize().status,
            SynthesisResult::Status::NoArchitecture);

  SecurityArchitectureSynthesizer syn5(model, base_options(5));
  SynthesisResult r = syn5.synthesize();
  ASSERT_EQ(r.status, SynthesisResult::Status::Found);
  EXPECT_EQ(r.secured_buses.size(), 5u);
  EXPECT_EQ(model.verify_with_secured_buses(r.secured_buses).result,
            smt::SolveResult::Unsat);
  // The paper's exact Fig. 3(b) architecture {1,3,6,8,9} is valid, and the
  // paper's own enumeration strategy (exact blocking) lands exactly on it.
  EXPECT_EQ(model.verify_with_secured_buses({0, 2, 5, 7, 8}).result,
            smt::SolveResult::Unsat);
  SynthesisOptions paperOpt = base_options(5);
  paperOpt.counterexample_blocking = false;
  SecurityArchitectureSynthesizer paperSyn(model, paperOpt);
  SynthesisResult pr = paperSyn.synthesize();
  ASSERT_EQ(pr.status, SynthesisResult::Status::Found);
  EXPECT_EQ(pr.secured_buses, (std::vector<grid::BusId>{0, 2, 5, 7, 8}));
}

TEST(PaperScenario3, TopologyAttacksPushItToSixBuses) {
  grid::Grid g = ieee14();
  grid::MeasurementPlan plan = scenario_plan(g);
  AttackSpec spec;
  spec.allow_topology_attacks = true;
  // Scenario 3 is only consistent with discard semantics (DESIGN.md §4).
  spec.excluded_meters_must_read_zero = false;
  UfdiAttackModel model(g, plan, spec);

  SecurityArchitectureSynthesizer syn5(model, base_options(5));
  EXPECT_EQ(syn5.synthesize().status,
            SynthesisResult::Status::NoArchitecture);

  SecurityArchitectureSynthesizer syn6(model, base_options(6));
  SynthesisResult r = syn6.synthesize();
  ASSERT_EQ(r.status, SynthesisResult::Status::Found);
  EXPECT_EQ(r.secured_buses.size(), 6u);
  EXPECT_EQ(model.verify_with_secured_buses(r.secured_buses).result,
            smt::SolveResult::Unsat);
  // The paper's exact Fig. 3(c) architecture is among the valid ones —
  // and the paper's own enumeration strategy (exact blocking, no
  // counterexample clauses) lands exactly on it.
  EXPECT_EQ(model.verify_with_secured_buses({0, 3, 5, 7, 9, 13}).result,
            smt::SolveResult::Unsat);
  SynthesisOptions paperOpt = base_options(6);
  paperOpt.counterexample_blocking = false;
  SecurityArchitectureSynthesizer paperSyn(model, paperOpt);
  SynthesisResult pr = paperSyn.synthesize();
  ASSERT_EQ(pr.status, SynthesisResult::Status::Found);
  EXPECT_EQ(pr.secured_buses,
            (std::vector<grid::BusId>{0, 3, 5, 7, 9, 13}));
}

TEST(Synthesis, MinimalSearchFindsSmallestBudget) {
  grid::Grid g = ieee14();
  grid::MeasurementPlan plan = scenario_plan(g);
  AttackSpec spec;
  UfdiAttackModel model(g, plan, spec);
  SecurityArchitectureSynthesizer syn(model, base_options(0));
  SynthesisResult r = syn.synthesize_minimal(g.num_buses());
  ASSERT_EQ(r.status, SynthesisResult::Status::Found);
  EXPECT_EQ(r.secured_buses.size(), 5u);  // scenario 2's minimum
}

TEST(Synthesis, CannotSecureExcludesBuses) {
  grid::Grid g = ieee14();
  grid::MeasurementPlan plan = scenario_plan(g);
  AttackSpec spec;
  UfdiAttackModel model(g, plan, spec);
  SynthesisOptions opt = base_options(6);
  opt.cannot_secure = {2, 5};  // buses 3 and 6
  SecurityArchitectureSynthesizer syn(model, opt);
  SynthesisResult r = syn.synthesize();
  if (r.status == SynthesisResult::Status::Found) {
    for (grid::BusId b : {2, 5}) {
      EXPECT_EQ(std::count(r.secured_buses.begin(), r.secured_buses.end(), b),
                0);
    }
  } else {
    EXPECT_EQ(r.status, SynthesisResult::Status::NoArchitecture);
  }
}

TEST(Synthesis, AdjacencyPruningNeverSecuresBothEnds) {
  grid::Grid g = ieee14();
  grid::MeasurementPlan plan = scenario_plan(g);
  AttackSpec spec;
  UfdiAttackModel model(g, plan, spec);
  SecurityArchitectureSynthesizer syn(model, base_options(6));
  SynthesisResult r = syn.synthesize();
  ASSERT_EQ(r.status, SynthesisResult::Status::Found);
  for (grid::LineId i = 0; i < g.num_lines(); ++i) {
    const grid::Line& line = g.line(i);
    bool fromIn = std::count(r.secured_buses.begin(), r.secured_buses.end(),
                             line.from) > 0;
    bool toIn = std::count(r.secured_buses.begin(), r.secured_buses.end(),
                           line.to) > 0;
    bool guarded = plan.taken(plan.forward_flow(i)) ||
                   plan.taken(plan.backward_flow(i));
    if (guarded) {
      EXPECT_FALSE(fromIn && toIn) << "line " << i + 1;
    }
  }
}

TEST(Synthesis, ExactBlockingAlsoTerminates) {
  grid::Grid g = ieee14();
  grid::MeasurementPlan plan = scenario_plan(g);
  AttackSpec spec;  // scenario 1's limited adversary
  spec.set_unknown(2, g.num_lines());
  spec.set_unknown(16, g.num_lines());
  spec.max_altered_measurements = 12;
  UfdiAttackModel model(g, plan, spec);
  SynthesisOptions opt = base_options(4);
  opt.counterexample_blocking = false;
  opt.subset_blocking = false;  // the paper's Algorithm 1 exact blocking
  SecurityArchitectureSynthesizer syn(model, opt);
  SynthesisResult exact = syn.synthesize();
  EXPECT_EQ(exact.status, SynthesisResult::Status::Found);

  SynthesisOptions opt2 = base_options(4);
  opt2.counterexample_blocking = false;  // subset blocking only
  SecurityArchitectureSynthesizer syn2(model, opt2);
  SynthesisResult subset = syn2.synthesize();
  EXPECT_EQ(subset.status, SynthesisResult::Status::Found);
  // Subset blocking can only reduce the number of candidates examined.
  EXPECT_LE(subset.candidates_tried, exact.candidates_tried);
}

TEST(Synthesis, TimeLimitProducesTimeout) {
  grid::Grid g = ieee14();
  grid::MeasurementPlan plan = scenario_plan(g);
  AttackSpec spec;
  UfdiAttackModel model(g, plan, spec);
  SynthesisOptions opt = base_options(4);
  opt.time_limit_seconds = 1e-9;
  SecurityArchitectureSynthesizer syn(model, opt);
  EXPECT_EQ(syn.synthesize().status, SynthesisResult::Status::Timeout);
}

TEST(Synthesis, ZeroBudgetOnUnattackableSystemSucceeds) {
  // If the attacker cannot alter anything, the empty architecture works.
  grid::Grid g = ieee14();
  grid::MeasurementPlan plan = scenario_plan(g);
  for (grid::MeasId m = 0; m < plan.num_potential(); ++m) {
    plan.set_accessible(m, false);
  }
  AttackSpec spec;
  UfdiAttackModel model(g, plan, spec);
  SynthesisOptions opt;
  opt.max_secured_buses = 0;
  SecurityArchitectureSynthesizer syn(model, opt);
  SynthesisResult r = syn.synthesize();
  ASSERT_EQ(r.status, SynthesisResult::Status::Found);
  EXPECT_TRUE(r.secured_buses.empty());
}

TEST(MeasurementSynthesis, FindsBasicMeasurementSet) {
  // Against an unlimited adversary, the minimum secured-measurement set is
  // a basic (observability-spanning) set of size n-1 — Bobba et al. [6].
  grid::Grid g = ieee14();
  grid::MeasurementPlan plan(g.num_lines(), g.num_buses());
  AttackSpec spec;
  UfdiAttackModel model(g, plan, spec);
  MeasurementSecuritySynthesizer syn(model, 20, 120);
  MeasurementSynthesisResult r = syn.synthesize();
  ASSERT_TRUE(r.found());
  EXPECT_EQ(r.secured_measurements.size(), 13u);  // n - 1
  EXPECT_EQ(model.verify_with_secured_measurements(r.secured_measurements)
                .result,
            smt::SolveResult::Unsat);
}

TEST(MeasurementSynthesis, BoundaryOnSmallGrid) {
  // 3-bus path: n-1 = 2 secured measurements suffice; 1 cannot.
  grid::Grid g(3);
  g.add_line(0, 1, 2.0);
  g.add_line(1, 2, 4.0);
  grid::MeasurementPlan plan(g.num_lines(), g.num_buses());
  AttackSpec spec;
  UfdiAttackModel model(g, plan, spec);
  MeasurementSecuritySynthesizer one(model, 1, 60);
  EXPECT_EQ(one.synthesize().status,
            SynthesisResult::Status::NoArchitecture);
  MeasurementSecuritySynthesizer two(model, 2, 60);
  MeasurementSynthesisResult r = two.synthesize();
  ASSERT_TRUE(r.found());
  EXPECT_EQ(r.secured_measurements.size(), 2u);
}

TEST(MeasurementSynthesis, MinimalSearchOnSmallGrid) {
  grid::Grid g(4);
  g.add_line(0, 1, 2.0);
  g.add_line(1, 2, 4.0);
  g.add_line(2, 3, 3.0);
  g.add_line(3, 0, 5.0);
  grid::MeasurementPlan plan(g.num_lines(), g.num_buses());
  AttackSpec spec;
  UfdiAttackModel model(g, plan, spec);
  MeasurementSecuritySynthesizer syn(model, 0, 120);
  MeasurementSynthesisResult r = syn.synthesize_minimal(plan.num_potential());
  ASSERT_TRUE(r.found());
  EXPECT_EQ(r.secured_measurements.size(), 3u);  // n - 1
}

TEST(MeasurementSynthesis, LimitedAdversaryNeedsFewer) {
  grid::Grid g = ieee14();
  grid::MeasurementPlan plan(g.num_lines(), g.num_buses());
  AttackSpec weak;
  for (grid::LineId i = 0; i < g.num_lines(); i += 2) {
    weak.set_unknown(i, g.num_lines());
  }
  UfdiAttackModel model(g, plan, weak);
  MeasurementSecuritySynthesizer syn(model, 12, 120);
  MeasurementSynthesisResult r = syn.synthesize();
  ASSERT_TRUE(r.found());
  EXPECT_LT(r.secured_measurements.size(), 13u);
}

TEST(MeasurementSynthesis, RejectsIneligibleMeasurements) {
  grid::Grid g = ieee14();
  grid::MeasurementPlan plan = grid::cases::paper_plan14(g);
  AttackSpec spec;
  UfdiAttackModel model(g, plan, spec);
  // Measurement 5 (1-based) is untaken; measurement 1 is statically
  // secured: neither is a valid dynamic candidate.
  EXPECT_THROW(model.verify_with_secured_measurements({4}), smt::SmtError);
  EXPECT_THROW(model.verify_with_secured_measurements({0}), smt::SmtError);
  // The attackable universe excludes them.
  auto universe = model.attackable_measurements();
  EXPECT_TRUE(std::find(universe.begin(), universe.end(), 4) ==
              universe.end());
  EXPECT_TRUE(std::find(universe.begin(), universe.end(), 0) ==
              universe.end());
}

TEST(Synthesis, CandidateFootprintReported) {
  grid::Grid g = ieee14();
  grid::MeasurementPlan plan = scenario_plan(g);
  AttackSpec spec;
  UfdiAttackModel model(g, plan, spec);
  SecurityArchitectureSynthesizer syn(model, base_options(5));
  SynthesisResult r = syn.synthesize();
  EXPECT_GT(r.candidate_footprint_bytes, 0u);
  EXPECT_GT(r.candidates_tried, 0);
}

}  // namespace
}  // namespace psse::core
