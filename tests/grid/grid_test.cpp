// Tests for the grid model, measurement plan, topology processor, IEEE
// cases, DC power flow, and Jacobian construction.
#include "grid/grid.h"

#include <gtest/gtest.h>

#include <numeric>

#include "grid/dc_powerflow.h"
#include "grid/ieee_cases.h"
#include "grid/jacobian.h"
#include "grid/measurement.h"
#include "grid/topology_processor.h"

namespace psse::grid {
namespace {

TEST(Grid, ConstructionAndValidation) {
  Grid g(3);
  EXPECT_EQ(g.num_buses(), 3);
  LineId l = g.add_line(0, 1, 5.0);
  EXPECT_EQ(l, 0);
  EXPECT_THROW(g.add_line(0, 0, 1.0), GridError);   // self loop
  EXPECT_THROW(g.add_line(0, 5, 1.0), GridError);   // out of range
  EXPECT_THROW(g.add_line(0, 1, -1.0), GridError);  // bad admittance
  EXPECT_THROW(Grid(0), GridError);
}

TEST(Grid, ConnectivityAndDegree) {
  Grid g(4);
  g.add_line(0, 1, 1.0);
  g.add_line(1, 2, 1.0);
  EXPECT_FALSE(g.is_connected());  // bus 3 isolated
  g.add_line(2, 3, 1.0);
  EXPECT_TRUE(g.is_connected());
  EXPECT_EQ(g.in_service_degree(1), 2);
  EXPECT_DOUBLE_EQ(g.average_degree(), 6.0 / 4.0);
}

TEST(Grid, OutOfServiceLineBreaksConnectivity) {
  Grid g(3);
  g.add_line(0, 1, 1.0);
  Line l;
  l.from = 1;
  l.to = 2;
  l.admittance = 1.0;
  l.in_service = false;
  l.fixed = false;
  g.add_line(l);
  EXPECT_FALSE(g.is_connected());
}

TEST(Grid, ValidateRejectsOpenFixedLine) {
  Grid g(2);
  Line l;
  l.from = 0;
  l.to = 1;
  l.admittance = 1.0;
  l.in_service = false;
  l.fixed = true;
  g.add_line(l);
  EXPECT_THROW(g.validate(), GridError);
}

TEST(IeeeCases, Paper14BusMatchesTableII) {
  Grid g = cases::ieee14();
  EXPECT_EQ(g.num_buses(), 14);
  EXPECT_EQ(g.num_lines(), 20);
  EXPECT_TRUE(g.is_connected());
  // Spot checks against Table II.
  EXPECT_EQ(g.line(0).from, 0);
  EXPECT_EQ(g.line(0).to, 1);
  EXPECT_DOUBLE_EQ(g.line(0).admittance, 16.90);
  EXPECT_DOUBLE_EQ(g.line(6).admittance, 23.75);  // line 7: 4-5
  EXPECT_EQ(g.line(19).from, 12);
  EXPECT_EQ(g.line(19).to, 13);
  // Lines 5 and 13 are switchable, everything else core.
  for (LineId i = 0; i < g.num_lines(); ++i) {
    EXPECT_EQ(g.line(i).fixed, i != 4 && i != 12) << i;
  }
}

TEST(IeeeCases, Plan14MatchesTableIII) {
  Grid g = cases::ieee14();
  MeasurementPlan plan = cases::paper_plan14(g);
  EXPECT_EQ(plan.num_potential(), 54);
  EXPECT_EQ(plan.num_taken(), 44);
  for (int id : {5, 10, 14, 19, 22, 27, 30, 35, 43, 52}) {
    EXPECT_FALSE(plan.taken(id - 1)) << id;
  }
  for (int id : {1, 2, 6, 15, 25, 41}) {
    EXPECT_TRUE(plan.secured(id - 1)) << id;
  }
  EXPECT_FALSE(plan.secured(31));  // 32: paper-inconsistent, see DESIGN.md
}

TEST(IeeeCases, AllStandardCasesAreSane) {
  for (const std::string& name : cases::standard_names()) {
    Grid g = cases::by_name(name);
    EXPECT_TRUE(g.is_connected()) << name;
    g.validate();
    // The paper cites avg degree ~3 for real grids.
    EXPECT_GT(g.average_degree(), 2.0) << name;
    EXPECT_LT(g.average_degree(), 4.5) << name;
  }
  EXPECT_EQ(cases::ieee30().num_buses(), 30);
  EXPECT_EQ(cases::ieee30().num_lines(), 41);
  EXPECT_EQ(cases::ieee57().num_buses(), 57);
  EXPECT_EQ(cases::ieee57().num_lines(), 80);
  EXPECT_EQ(cases::ieee118_like().num_buses(), 118);
  EXPECT_EQ(cases::ieee300_like().num_buses(), 300);
  EXPECT_THROW(cases::by_name("ieee9000"), GridError);
}

TEST(IeeeCases, SyntheticIsDeterministic) {
  Grid a = cases::synthetic(50, 75, 42);
  Grid b = cases::synthetic(50, 75, 42);
  ASSERT_EQ(a.num_lines(), b.num_lines());
  for (LineId i = 0; i < a.num_lines(); ++i) {
    EXPECT_EQ(a.line(i).from, b.line(i).from);
    EXPECT_EQ(a.line(i).to, b.line(i).to);
    EXPECT_DOUBLE_EQ(a.line(i).admittance, b.line(i).admittance);
  }
}

TEST(MeasurementPlan, IndexingAndResidence) {
  Grid g = cases::ieee14();
  MeasurementPlan plan(g.num_lines(), g.num_buses());
  EXPECT_EQ(plan.forward_flow(0), 0);
  EXPECT_EQ(plan.backward_flow(0), 20);
  EXPECT_EQ(plan.injection(0), 40);
  MeasInfo info = plan.decode(21);
  EXPECT_EQ(info.type, MeasType::BackwardFlow);
  EXPECT_EQ(info.line, 1);
  // Residence (paper's objective-1 cross-check): fwd at from, bwd at to.
  EXPECT_EQ(plan.residence_bus(7, g), 3);    // meas 8: fwd line 8 (4-7)
  EXPECT_EQ(plan.residence_bus(27, g), 6);   // meas 28: bwd line 8
  EXPECT_EQ(plan.residence_bus(43, g), 3);   // meas 44: injection bus 4
  EXPECT_THROW((void)plan.decode(54), GridError);
  EXPECT_THROW((void)plan.forward_flow(20), GridError);
}

TEST(MeasurementPlan, SecureBusClosure) {
  Grid g = cases::ieee14();
  MeasurementPlan plan(g.num_lines(), g.num_buses());
  plan.secure_bus(5, g);  // bus 6: lines 10 (5-6), 11, 12, 13
  EXPECT_TRUE(plan.secured(plan.injection(5)));
  EXPECT_TRUE(plan.secured(plan.backward_flow(9)));   // to-bus of line 10
  EXPECT_TRUE(plan.secured(plan.forward_flow(10)));   // from-bus of line 11
  EXPECT_TRUE(plan.secured(plan.forward_flow(12)));
  EXPECT_FALSE(plan.secured(plan.forward_flow(9)));   // resides at bus 5
  EXPECT_FALSE(plan.secured(plan.injection(4)));
}

TEST(MeasurementPlan, KeepFraction) {
  Grid g = cases::ieee30();
  MeasurementPlan plan(g.num_lines(), g.num_buses());
  plan.keep_fraction(0.8, 123);
  EXPECT_EQ(plan.num_taken(),
            static_cast<int>(0.8 * plan.num_potential()));
  EXPECT_THROW(plan.keep_fraction(1.5, 1), GridError);
}

TEST(TopologyProcessor, TruthfulMapping) {
  Grid g = cases::ieee14();
  MappedTopology topo =
      TopologyProcessor::map(g, BreakerTelemetry::truthful(g));
  EXPECT_EQ(topo.num_mapped(), g.num_lines());
  EXPECT_TRUE(TopologyProcessor::connected(g, topo));
}

TEST(TopologyProcessor, ExclusionAttackRules) {
  Grid g = cases::ieee14();
  BreakerTelemetry t = BreakerTelemetry::truthful(g);
  // Line 13 (index 12) is switchable: exclusion works.
  apply_exclusion_attack(g, t, 12);
  MappedTopology topo = TopologyProcessor::map(g, t);
  EXPECT_FALSE(topo.includes(12));
  EXPECT_EQ(topo.num_mapped(), g.num_lines() - 1);
  // Fixed lines refuse.
  BreakerTelemetry t2 = BreakerTelemetry::truthful(g);
  EXPECT_THROW(apply_exclusion_attack(g, t2, 0), GridError);
  // Secured statuses refuse and ignore tampering.
  g.line(4).fixed = false;
  g.line(4).status_secured = true;
  EXPECT_THROW(apply_exclusion_attack(g, t2, 4), GridError);
  t2.closed[4] = false;  // tamper anyway
  EXPECT_TRUE(TopologyProcessor::map(g, t2).includes(4));
}

TEST(TopologyProcessor, InclusionAttackRules) {
  Grid g(3);
  g.add_line(0, 1, 1.0);
  g.add_line(1, 2, 1.0);
  Line open;
  open.from = 0;
  open.to = 2;
  open.admittance = 1.0;
  open.in_service = false;
  open.fixed = false;
  g.add_line(open);
  BreakerTelemetry t = BreakerTelemetry::truthful(g);
  EXPECT_THROW(apply_inclusion_attack(g, t, 0), GridError);  // in service
  apply_inclusion_attack(g, t, 2);
  EXPECT_TRUE(TopologyProcessor::map(g, t).includes(2));
}

TEST(DcPowerFlow, TwoBusAnalytic) {
  Grid g(2);
  g.add_line(0, 1, 10.0);
  Vector inj{1.0, -1.0};
  DcPowerFlow pf(g, 0);
  DcPowerFlowResult r = pf.solve(inj);
  EXPECT_DOUBLE_EQ(r.theta[0], 0.0);
  // Injection at bus1 = -flow(0->1) = -10*(th0-th1) = -1  => th1 = -0.1.
  EXPECT_NEAR(r.theta[1], -0.1, 1e-12);
  EXPECT_NEAR(r.line_flows[0], 1.0, 1e-12);
}

TEST(DcPowerFlow, FlowsBalanceAtEveryBus) {
  Grid g = cases::ieee14();
  DcPowerFlow pf(g, 0);
  DcPowerFlowResult r = pf.solve();
  // At every non-reference bus, net outflow == injection.
  for (BusId j = 1; j < g.num_buses(); ++j) {
    double net = 0.0;
    for (LineId i : g.lines_at(j)) {
      const Line& l = g.line(i);
      net += (l.from == j ? 1.0 : -1.0) *
             r.line_flows[static_cast<std::size_t>(i)];
    }
    EXPECT_NEAR(net, g.bus(j).injection, 1e-9) << "bus " << j + 1;
  }
}

TEST(Jacobian, RowsMatchMeasurementDefinition) {
  Grid g = cases::ieee14();
  MeasurementPlan plan = cases::paper_plan14(g);
  JacobianModel model = build_jacobian(g, plan);
  EXPECT_EQ(model.h.rows(), 44u);
  EXPECT_EQ(model.h.cols(), 14u);
  // Forward flow of line 1 (1-2): +16.9, -16.9.
  int row = model.meas_row[0];
  ASSERT_GE(row, 0);
  EXPECT_DOUBLE_EQ(model.h(static_cast<std::size_t>(row), 0), 16.90);
  EXPECT_DOUBLE_EQ(model.h(static_cast<std::size_t>(row), 1), -16.90);
  // Untaken measurement 5 has no row.
  EXPECT_EQ(model.meas_row[4], -1);
  // H * theta equals the exact telemetry on taken rows.
  DcPowerFlow pf(g, 0);
  DcPowerFlowResult op = pf.solve();
  Telemetry exact = exact_telemetry(g, op.theta, plan);
  Vector predicted = model.h * op.theta;
  Vector zrows = restrict_to_rows(model, exact.values);
  for (std::size_t r2 = 0; r2 < predicted.size(); ++r2) {
    EXPECT_NEAR(predicted[r2], zrows[r2], 1e-9);
  }
}

TEST(Jacobian, ExcludedLineZeroesItsRowsAndInjections) {
  Grid g = cases::ieee14();
  MeasurementPlan plan(g.num_lines(), g.num_buses());
  BreakerTelemetry t = BreakerTelemetry::truthful(g);
  apply_exclusion_attack(g, t, 12);  // line 13 (6-13)
  JacobianModel model = build_jacobian(g, plan, TopologyProcessor::map(g, t));
  int row = model.meas_row[12];  // fwd flow of line 13
  for (std::size_t c = 0; c < model.h.cols(); ++c) {
    EXPECT_DOUBLE_EQ(model.h(static_cast<std::size_t>(row), c), 0.0);
  }
  // Bus 6 injection row no longer references bus 13.
  int injRow = model.meas_row[plan.injection(5)];
  EXPECT_DOUBLE_EQ(model.h(static_cast<std::size_t>(injRow), 12), 0.0);
}

}  // namespace
}  // namespace psse::grid
