// Tests for the estimation substrate: chi-square statistics, WLS, bad-data
// detection, and observability analysis.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "estimation/bad_data.h"
#include "estimation/chi2.h"
#include "estimation/observability.h"
#include "estimation/wls.h"
#include "grid/dc_powerflow.h"
#include "grid/ieee_cases.h"
#include "grid/jacobian.h"

namespace psse::est {
namespace {

using grid::Vector;

TEST(Chi2, GammaFunctionsKnownValues) {
  // P(1, x) = 1 - exp(-x).
  for (double x : {0.1, 0.5, 1.0, 2.0, 5.0}) {
    EXPECT_NEAR(gamma_p(1.0, x), 1.0 - std::exp(-x), 1e-12);
  }
  EXPECT_DOUBLE_EQ(gamma_p(3.0, 0.0), 0.0);
  EXPECT_NEAR(gamma_p(0.5, 100.0), 1.0, 1e-12);
  EXPECT_NEAR(gamma_p(2.5, 1.0) + gamma_q(2.5, 1.0), 1.0, 1e-12);
  EXPECT_THROW((void)gamma_p(-1.0, 1.0), std::invalid_argument);
}

TEST(Chi2, CdfKnownValues) {
  // chi2 with 2 dof: CDF(x) = 1 - exp(-x/2).
  for (double x : {0.5, 1.0, 3.0, 10.0}) {
    EXPECT_NEAR(chi2_cdf(x, 2.0), 1.0 - std::exp(-x / 2.0), 1e-12);
  }
  // Median of chi2_1 is ~0.4549.
  EXPECT_NEAR(chi2_cdf(0.454936, 1.0), 0.5, 1e-5);
}

TEST(Chi2, QuantileInvertsCdf) {
  for (double k : {1.0, 4.0, 10.0, 40.0, 100.0}) {
    for (double p : {0.01, 0.5, 0.95, 0.99, 0.999}) {
      double x = chi2_quantile(p, k);
      EXPECT_NEAR(chi2_cdf(x, k), p, 1e-9) << "k=" << k << " p=" << p;
    }
  }
  // Classic table value: chi2_{0.95, 10} ~= 18.307.
  EXPECT_NEAR(chi2_quantile(0.95, 10.0), 18.307, 1e-3);
  EXPECT_THROW((void)chi2_quantile(0.0, 3.0), std::invalid_argument);
}

TEST(Chi2, NormalCdfAndQuantile) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.959964), 0.975, 1e-6);
  EXPECT_NEAR(normal_quantile(0.975), 1.959964, 1e-5);
}

grid::JacobianModel model14(const grid::Grid& g,
                            const grid::MeasurementPlan& plan) {
  return grid::build_jacobian(g, plan);
}

TEST(Wls, RecoversExactStateFromNoiselessTelemetry) {
  grid::Grid g = grid::cases::ieee14();
  grid::MeasurementPlan plan = grid::cases::paper_plan14(g);
  grid::DcPowerFlow pf(g, 0);
  grid::DcPowerFlowResult op = pf.solve();
  grid::JacobianModel model = model14(g, plan);
  WlsEstimator est(model, 0.01);
  grid::Telemetry z = grid::exact_telemetry(g, op.theta, plan);
  WlsResult r = est.estimate(grid::restrict_to_rows(model, z.values));
  for (std::size_t j = 0; j < op.theta.size(); ++j) {
    EXPECT_NEAR(r.theta[j], op.theta[j], 1e-9);
  }
  EXPECT_NEAR(r.objective, 0.0, 1e-9);
}

TEST(Wls, NoiseProducesChi2ScaleObjective) {
  grid::Grid g = grid::cases::ieee14();
  grid::MeasurementPlan plan = grid::cases::paper_plan14(g);
  grid::DcPowerFlow pf(g, 0);
  grid::DcPowerFlowResult op = pf.solve();
  grid::JacobianModel model = model14(g, plan);
  const double sigma = 0.02;
  WlsEstimator est(model, sigma);
  // Average objective over trials ~ m - n (chi-square mean).
  std::mt19937_64 rng(99);
  double total = 0.0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    grid::Telemetry z = grid::generate_telemetry(g, op.theta, plan, sigma, rng);
    total += est.estimate(grid::restrict_to_rows(model, z.values)).objective;
  }
  double dof = est.num_measurements() - est.num_states();
  EXPECT_NEAR(total / trials, dof, 0.35 * dof);
}

TEST(Wls, RejectsUnderdeterminedAndUnobservable) {
  grid::Grid g(3);
  g.add_line(0, 1, 1.0);
  g.add_line(1, 2, 1.0);
  grid::MeasurementPlan plan(g.num_lines(), g.num_buses());
  // Take only line 1's meters: bus 3 unobservable.
  for (grid::MeasId m = 0; m < plan.num_potential(); ++m) {
    plan.set_taken(m, false);
  }
  plan.set_taken(plan.forward_flow(0), true);
  plan.set_taken(plan.backward_flow(0), true);
  grid::JacobianModel model = grid::build_jacobian(g, plan);
  WlsEstimator est(model, 0.01);
  EXPECT_THROW(est.estimate(Vector(2)), EstimationError);
  EXPECT_THROW(WlsEstimator(grid::build_jacobian(
                                g,
                                [] {
                                  grid::MeasurementPlan p(2, 3);
                                  for (grid::MeasId m = 0; m < 7; ++m) {
                                    p.set_taken(m, false);
                                  }
                                  p.set_taken(0, true);
                                  return p;
                                }()),
                            0.01),
               EstimationError);
}

TEST(BadData, GrossErrorIsDetectedAndIdentified) {
  grid::Grid g = grid::cases::ieee14();
  grid::MeasurementPlan plan = grid::cases::paper_plan14(g);
  grid::DcPowerFlow pf(g, 0);
  grid::DcPowerFlowResult op = pf.solve();
  grid::JacobianModel model = model14(g, plan);
  const double sigma = 0.01;
  WlsEstimator est(model, sigma);
  BadDataDetector detector(est, 0.01);

  std::mt19937_64 rng(7);
  grid::Telemetry z = grid::generate_telemetry(g, op.theta, plan, sigma, rng);
  Vector zr = grid::restrict_to_rows(model, z.values);
  // Clean data passes.
  WlsResult clean = est.estimate(zr);
  EXPECT_FALSE(detector.chi2_test(clean).bad_data);
  EXPECT_FALSE(detector.lnr_test(clean).bad_data);

  // A gross error on measurement row 3 (forward flow of line 4).
  std::size_t badRow = 3;
  zr[badRow] += 1.0;  // 100-sigma error
  WlsResult dirty = est.estimate(zr);
  Chi2TestResult chi = detector.chi2_test(dirty);
  EXPECT_TRUE(chi.bad_data);
  EXPECT_GT(chi.objective, chi.threshold);
  LnrTestResult lnr = detector.lnr_test(dirty);
  EXPECT_TRUE(lnr.bad_data);
  EXPECT_EQ(lnr.suspect_row, static_cast<int>(badRow));
}

TEST(BadData, NaiveStateAttackIsDetectedButUfdiIsNot) {
  // The paper's core premise: a = H c evades BDD, a random 'a' does not.
  grid::Grid g = grid::cases::ieee14();
  grid::MeasurementPlan plan = grid::cases::paper_plan14(g);
  grid::DcPowerFlow pf(g, 0);
  grid::DcPowerFlowResult op = pf.solve();
  grid::JacobianModel model = model14(g, plan);
  const double sigma = 0.01;
  WlsEstimator est(model, sigma);
  BadDataDetector detector(est, 0.01);
  std::mt19937_64 rng(11);
  grid::Telemetry z = grid::generate_telemetry(g, op.theta, plan, sigma, rng);
  Vector zr = grid::restrict_to_rows(model, z.values);

  // UFDI: a = H*c with c a state shift on buses 9..14.
  Vector c(static_cast<std::size_t>(g.num_buses()));
  for (std::size_t j = 8; j < c.size(); ++j) c[j] = 0.05;
  Vector a = model.h * c;
  Vector attacked = zr + a;
  WlsResult ufdi = est.estimate(attacked);
  EXPECT_FALSE(detector.chi2_test(ufdi).bad_data);
  // The estimate moved by ~c.
  EXPECT_NEAR(ufdi.theta[13] - op.theta[13], 0.05, 1e-3);

  // Naive attack: bump the same measurements by the same magnitudes but
  // in a model-inconsistent pattern.
  Vector naive = zr;
  for (std::size_t i = 0; i < naive.size(); ++i) {
    if (a[i] != 0.0) naive[i] += std::fabs(a[i]);
  }
  WlsResult bad = est.estimate(naive);
  EXPECT_TRUE(detector.chi2_test(bad).bad_data);
}

TEST(BadData, RequiresRedundancy) {
  grid::Grid g(2);
  g.add_line(0, 1, 1.0);
  grid::MeasurementPlan plan(g.num_lines(), g.num_buses());
  for (grid::MeasId m = 0; m < plan.num_potential(); ++m) {
    plan.set_taken(m, false);
  }
  plan.set_taken(0, true);  // exactly n - 1 = 1 measurement
  grid::JacobianModel model = grid::build_jacobian(g, plan);
  WlsEstimator est(model, 0.01);
  EXPECT_THROW(BadDataDetector(est, 0.01), EstimationError);
}

TEST(Observability, FullPlanIsObservable) {
  for (const char* name : {"ieee14", "ieee30", "ieee57"}) {
    grid::Grid g = grid::cases::by_name(name);
    grid::MeasurementPlan plan(g.num_lines(), g.num_buses());
    ObservabilityReport rep = check_observability(g, plan);
    EXPECT_TRUE(rep.observable) << name;
    EXPECT_EQ(rep.rank, rep.required) << name;
    EXPECT_TRUE(flow_spanning_tree_exists(g, plan)) << name;
  }
}

TEST(Observability, PaperPlanIsObservable) {
  grid::Grid g = grid::cases::ieee14();
  grid::MeasurementPlan plan = grid::cases::paper_plan14(g);
  EXPECT_TRUE(check_observability(g, plan).observable);
}

TEST(Observability, StrippedPlanLosesObservability) {
  grid::Grid g = grid::cases::ieee14();
  grid::MeasurementPlan plan(g.num_lines(), g.num_buses());
  // Remove every measurement that can see bus 8 (only line 14 reaches it).
  plan.set_taken(plan.forward_flow(13), false);
  plan.set_taken(plan.backward_flow(13), false);
  plan.set_taken(plan.injection(7), false);
  plan.set_taken(plan.injection(6), false);  // bus 7 injection sees line 14
  ObservabilityReport rep = check_observability(g, plan);
  EXPECT_FALSE(rep.observable);
  EXPECT_EQ(rep.rank, rep.required - 1);
  EXPECT_FALSE(flow_spanning_tree_exists(g, plan));
}

}  // namespace
}  // namespace psse::est
