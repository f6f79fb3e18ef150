// AnalyticsService end-to-end: verdicts match fresh solves, sweeps share
// sessions, memoisation answers repeats, failures come back in-band, and
// the obs instrumentation (trace events, percentile stats) holds up.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/attack_model.h"
#include "core/scenario.h"
#include "grid/ieee_cases.h"
#include "obs/trace.h"
#include "service/analytics_service.h"
#include "../obs/json_validate.h"

namespace psse::service {
namespace {

using grid::cases::ieee14;
using grid::cases::paper_plan14;
using smt::SolveResult;

ServiceOptions options(unsigned threads) {
  ServiceOptions o;
  o.threads = threads;
  return o;
}

core::Scenario objective2(int maxMeasurements = 0) {
  core::Scenario sc;
  sc.grid = ieee14();
  sc.plan = paper_plan14(sc.grid);
  sc.spec.target_states = {11};
  sc.spec.attack_only_targets = true;
  sc.spec.max_altered_measurements = maxMeasurements;
  return sc;
}

TEST(AnalyticsService, VerifyMatchesFreshSolve) {
  AnalyticsService svc(options(2));
  ServiceRequest req;
  req.id = "obj2";
  req.scenario = objective2();
  ServiceResponse r = svc.submit(std::move(req)).get();
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.verdict, SolveResult::Sat);
  EXPECT_EQ(r.altered_measurements, (std::vector<int>{12, 32, 39, 46, 53}));
  EXPECT_EQ(r.id, "obj2");
  EXPECT_NE(r.family, 0u);
  EXPECT_NE(r.fingerprint, 0u);
  EXPECT_FALSE(r.memo_hit);
}

TEST(AnalyticsService, MemoAnswersExactRepeats) {
  AnalyticsService svc(options(1));
  ServiceRequest req;
  req.id = "first";
  req.scenario = objective2();
  ServiceResponse first = svc.submit(std::move(req)).get();
  ASSERT_TRUE(first.ok());

  ServiceRequest again;
  again.id = "again";
  again.scenario = objective2();
  ServiceResponse second = svc.submit(std::move(again)).get();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.memo_hit);
  EXPECT_EQ(second.verdict, first.verdict);
  EXPECT_EQ(second.altered_measurements, first.altered_measurements);
  EXPECT_EQ(second.fingerprint, first.fingerprint);

  // Opting out of the memo forces a real (warm) solve.
  ServiceRequest fresh;
  fresh.id = "no-memo";
  fresh.scenario = objective2();
  fresh.use_memo = false;
  ServiceResponse third = svc.submit(std::move(fresh)).get();
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third.memo_hit);
  EXPECT_TRUE(third.session_hit);
  EXPECT_EQ(third.verdict, first.verdict);
}

TEST(AnalyticsService, SweepSharesOneFamilyAndMatchesFresh) {
  AnalyticsService svc(options(2));
  SweepRequest sweep;
  sweep.id = "tcz";
  sweep.scenario = objective2();
  sweep.axis = SweepAxis::kMaxMeasurements;
  sweep.values = {3, 4, 5, 6};
  std::vector<std::future<ServiceResponse>> futures =
      svc.submit_sweep(sweep);
  ASSERT_EQ(futures.size(), 4u);
  for (std::size_t k = 0; k < futures.size(); ++k) {
    ServiceResponse r = futures[k].get();
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.sweep_index, static_cast<int>(k));
    EXPECT_EQ(r.id, "tcz[" + std::to_string(k) + "]");
    const core::Scenario expected =
        objective2(static_cast<int>(sweep.values[k]));
    core::UfdiAttackModel fresh(expected.grid, expected.plan, expected.spec);
    EXPECT_EQ(r.verdict, fresh.verify().result)
        << "T_CZ=" << sweep.values[k];
  }
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.sessions.families, 1u);
  EXPECT_EQ(stats.requests, 4u);
  // The sweep runs as one chain on one session even with two workers, and
  // T_CZ 6 is answered by T_CZ 5's five-meter witness without a solve.
  EXPECT_EQ(stats.sessions.misses, 1u);
  EXPECT_EQ(stats.sessions.hits, 0u);
  EXPECT_GE(stats.implied, 1u);
}

TEST(AnalyticsService, SecuredSweepTogglesVerdict) {
  AnalyticsService svc(options(1));
  SweepRequest sweep;
  sweep.id = "sec";
  sweep.scenario = objective2();
  sweep.axis = SweepAxis::kSecureMeasurement;
  sweep.values = {46, 1};  // securing 46 kills objective 2; securing 1 not
  std::vector<std::future<ServiceResponse>> futures =
      svc.submit_sweep(sweep);
  EXPECT_EQ(futures[0].get().verdict, SolveResult::Unsat);
  EXPECT_EQ(futures[1].get().verdict, SolveResult::Sat);
  // Statically-secured plans land in the same family as the unsecured
  // scenario: secured bits travel as delta assumptions.
  EXPECT_EQ(svc.stats().sessions.families, 1u);
}

TEST(AnalyticsService, PortfolioRequestReportsWinner) {
  AnalyticsService svc(options(2));
  ServiceRequest req;
  req.id = "race";
  req.scenario = objective2();
  req.portfolio = 2;
  ServiceResponse r = svc.submit(std::move(req)).get();
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.verdict, SolveResult::Sat);
  EXPECT_FALSE(r.winner.empty());
  EXPECT_FALSE(r.session_hit);  // portfolio bypasses the session cache
}

TEST(AnalyticsService, ErrorsComeBackInBand) {
  AnalyticsService svc(options(1));
  ServiceRequest req;
  req.id = "bad";
  req.scenario = objective2();
  req.scenario.spec.target_states = {99};  // out of range for ieee14
  ServiceResponse r = svc.submit(std::move(req)).get();
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(svc.stats().errors, 1u);
}

TEST(AnalyticsService, StatsPercentilesAndCounters) {
  AnalyticsService svc(options(2));
  std::vector<std::future<ServiceResponse>> futures;
  for (int cap = 3; cap <= 8; ++cap) {
    ServiceRequest req;
    req.id = "q" + std::to_string(cap);
    req.scenario = objective2(cap);
    futures.push_back(svc.submit(std::move(req)));
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.requests, 6u);
  EXPECT_EQ(s.errors, 0u);
  EXPECT_EQ(s.sat + s.unsat, 6u);
  EXPECT_GT(s.solve_p50_us, 0u);
  EXPECT_LE(s.solve_p50_us, s.solve_p95_us);
  EXPECT_LE(s.solve_p95_us, s.solve_p99_us);
  EXPECT_LE(s.total_p50_us, s.total_p95_us);
  EXPECT_GE(s.sessions.hits + s.sessions.misses, 6u);
}

TEST(AnalyticsService, TraceEventsAreValidJson) {
  const std::string path = ::testing::TempDir() + "service_trace.jsonl";
  {
    std::unique_ptr<obs::TraceSink> sink = obs::TraceSink::open(path);
    ServiceOptions options;
    options.threads = 2;
    options.trace = obs::Config{sink.get()};
    AnalyticsService svc(options);
    SweepRequest sweep;
    sweep.id = "traced";
    sweep.scenario = objective2();
    sweep.axis = SweepAxis::kMaxMeasurements;
    sweep.values = {4, 5};
    for (auto& f : svc.submit_sweep(sweep)) ASSERT_TRUE(f.get().ok());
    svc.emit_stats();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int requestEvents = 0;
  int statsEvents = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(test_json::Validator(line).valid()) << line;
    if (line.find("\"ev\":\"service_request\"") != std::string::npos) {
      ++requestEvents;
      EXPECT_NE(line.find("\"family\":"), std::string::npos);
      EXPECT_NE(line.find("\"fp\":"), std::string::npos);
      EXPECT_NE(line.find("\"queue_us\":"), std::string::npos);
      EXPECT_NE(line.find("\"solve_us\":"), std::string::npos);
      EXPECT_NE(line.find("\"implied\":"), std::string::npos);
    }
    if (line.find("\"ev\":\"service_stats\"") != std::string::npos) {
      ++statsEvents;
      EXPECT_NE(line.find("\"solve_p99_us\":"), std::string::npos);
      EXPECT_NE(line.find("\"session_hits\":"), std::string::npos);
      EXPECT_NE(line.find("\"implied\":"), std::string::npos);
    }
  }
  std::remove(path.c_str());
  EXPECT_EQ(requestEvents, 2);
  EXPECT_EQ(statsEvents, 1);
}

TEST(AnalyticsService, CancelAllOnlyAffectsPriorSubmissions) {
  AnalyticsService svc(options(1));
  svc.cancel_all();  // nothing in flight: must not poison later requests
  ServiceRequest req;
  req.id = "after-cancel";
  req.scenario = objective2();
  ServiceResponse r = svc.submit(std::move(req)).get();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.verdict, SolveResult::Sat);
}

TEST(AnalyticsService, ScreenedVerdictsAreBitIdentical) {
  // The conservativeness contract at the service boundary: the same
  // request list, screening on vs off, memoisation disabled so every
  // point does real work — verdicts must agree on every point, and the
  // screen must have answered at least the blocked one.
  auto run = [](bool screen) {
    ServiceOptions opt = options(1);
    opt.memo_capacity = 0;
    opt.screen = screen;
    AnalyticsService svc(opt);
    std::vector<ServiceResponse> out;
    for (const int meas : {46, 1}) {  // securing 46 blocks objective 2
      core::Scenario sc = objective2();
      sc.plan.set_secured(meas - 1, true);
      ServiceRequest req;
      req.id = "m" + std::to_string(meas);
      req.scenario = std::move(sc);
      req.use_memo = false;
      out.push_back(svc.submit(std::move(req)).get());
    }
    EXPECT_EQ(svc.stats().screened, screen ? 1u : 0u);
    return out;
  };
  const std::vector<ServiceResponse> on = run(true);
  const std::vector<ServiceResponse> off = run(false);
  ASSERT_EQ(on.size(), off.size());
  for (std::size_t i = 0; i < on.size(); ++i) {
    ASSERT_TRUE(on[i].ok() && off[i].ok());
    EXPECT_EQ(on[i].verdict, off[i].verdict) << on[i].id;
  }
  EXPECT_EQ(on[0].verdict, SolveResult::Unsat);
  EXPECT_TRUE(on[0].screened);
  EXPECT_FALSE(off[0].screened);
  EXPECT_FALSE(on[1].screened);  // Sat point: screen claims nothing

  // A screened verdict is memoised like a solved one: a repeat on a
  // memo-enabled service answers from the memo, not the screen.
  ServiceOptions memoOpt = options(1);
  AnalyticsService memoSvc(memoOpt);
  core::Scenario sc = objective2();
  sc.plan.set_secured(45, true);
  ServiceRequest first;
  first.id = "first";
  first.scenario = sc;
  ASSERT_TRUE(memoSvc.submit(std::move(first)).get().screened);
  ServiceRequest again;
  again.id = "again";
  again.scenario = sc;
  const ServiceResponse hit = memoSvc.submit(std::move(again)).get();
  EXPECT_TRUE(hit.memo_hit);
  EXPECT_EQ(hit.verdict, SolveResult::Unsat);
}

TEST(AnalyticsService, RequestCanOptOutOfScreening) {
  ServiceOptions opt = options(1);
  opt.memo_capacity = 0;
  AnalyticsService svc(opt);
  core::Scenario sc = objective2();
  sc.plan.set_secured(45, true);
  ServiceRequest req;
  req.id = "opt-out";
  req.scenario = std::move(sc);
  req.use_memo = false;
  req.use_screen = false;
  const ServiceResponse r = svc.submit(std::move(req)).get();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.verdict, SolveResult::Unsat);  // solved, not screened
  EXPECT_FALSE(r.screened);
  EXPECT_EQ(svc.stats().screened, 0u);
}

TEST(AnalyticsService, SweepRangeMatchesExplicitValues) {
  AnalyticsService svc(options(2));
  SweepRequest byValues;
  byValues.id = "v";
  byValues.scenario = objective2();
  byValues.axis = SweepAxis::kMaxMeasurements;
  byValues.values = {3, 4, 5, 6};
  SweepRequest byRange;
  byRange.id = "r";
  byRange.scenario = objective2();
  byRange.axis = SweepAxis::kMaxMeasurements;
  byRange.has_range = true;
  byRange.range_from = 3;
  byRange.range_to = 6;
  byRange.range_step = 1;
  std::vector<std::future<ServiceResponse>> vf = svc.submit_sweep(byValues);
  std::vector<std::future<ServiceResponse>> rf = svc.submit_sweep(byRange);
  ASSERT_EQ(vf.size(), rf.size());
  for (std::size_t k = 0; k < vf.size(); ++k) {
    const ServiceResponse a = vf[k].get();
    const ServiceResponse b = rf[k].get();
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.verdict, b.verdict) << "point " << k;
  }
}

TEST(AnalyticsService, DegenerateSweepRangesThrowBeforeDispatch) {
  AnalyticsService svc(options(1));
  SweepRequest bad;
  bad.id = "deg";
  bad.scenario = objective2();
  bad.axis = SweepAxis::kMaxMeasurements;
  bad.has_range = true;
  bad.range_from = 1;
  bad.range_to = 5;
  bad.range_step = 0;  // zero step
  EXPECT_THROW((void)svc.submit_sweep(bad), core::ScenarioError);
  bad.range_step = -1;  // walks away from "to"
  EXPECT_THROW((void)svc.submit_sweep(bad), core::ScenarioError);
  bad.has_range = false;  // empty values list
  EXPECT_THROW((void)svc.submit_sweep(bad), core::ScenarioError);
  EXPECT_EQ(svc.stats().requests, 0u);  // nothing was dispatched
}

}  // namespace
}  // namespace psse::service
