// Sweeps as ordered chains: every point of every sweep axis answers what a
// fresh full-model verify() answers, at one worker and at four, whether it
// was solved, screened or implied by an earlier point; every implied SAT
// witness holds up on its own; a sweep holds exactly one session; an
// Unknown answer settles nothing; and cancel_all mid-chain stops the chain
// answering from earlier points without spoiling the session it held.
#include <stdio.h>

#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/attack_model.h"
#include "core/scenario.h"
#include "obs/trace.h"
#include "service/analytics_service.h"

namespace psse::service {
namespace {

using smt::SolveResult;

struct SweepCase {
  const char* file;
  SweepAxis axis;
  std::vector<double> values;
  /// The chain must answer at least one point by implication. Left off
  /// where that hangs on which witness the session finds: with several
  /// workers, which sweeps a session served before differs run to run.
  bool must_imply;
};

/// Every sweep axis on shipped scenarios. Values deliberately run both up
/// and down an axis, so SAT carries up, UNSAT carries down, and a point a
/// rule must not cover comes after an answer it would wrongly carry: T_CZ
/// 4 after objective 2's five-meter witness at 8, a target shift of 0.004
/// rad after a refutation at 0.006 (ieee14_magnitude turns UNSAT in
/// between), securing meter 12 after a witness that alters it.
const std::vector<SweepCase>& cases() {
  static const std::vector<SweepCase> kCases = {
      {"ieee14_objective2.scn",
       SweepAxis::kMaxMeasurements,
       {8, 4, 2, 5, 6, 12, 3, 1},
       true},
      {"ieee14_objective2.scn",
       SweepAxis::kSecureMeasurement,
       {46, 3, 4, 7, 12, 8, 9, 32, 11},
       true},
      {"ieee14_objective2_topology.scn",
       SweepAxis::kMaxTopologyChanges,
       {1, 2, 0, 3},
       true},
      {"ieee14_magnitude.scn",
       SweepAxis::kMinTargetShift,
       {0.006, 0.004, 0.002, 0.001, 0.0005, 0.003, 0.008, 0.0001},
       true},
      {"ieee30_verification.scn",
       SweepAxis::kMaxBuses,
       {8, 2, 3, 1, 4, 6, 2},
       true},
      {"ieee30_verification.scn",
       SweepAxis::kSecureBus,
       {2, 6, 10, 15, 22, 27, 30},
       false},
      // A repeated target has an equal goal, yet the target axis never
      // carries.
      {"ieee30_verification.scn",
       SweepAxis::kTarget,
       {5, 12, 20, 30, 5},
       false},
      {"ieee57_verification.scn",
       SweepAxis::kMaxMeasurements,
       {4, 8, 12, 16, 20, 24, 28},
       true},
  };
  return kCases;
}

SweepRequest sweep_of(const SweepCase& c, const std::string& id,
                      bool screen) {
  SweepRequest sweep;
  sweep.id = id;
  sweep.scenario = core::Scenario::load(std::string(PSSE_DATA_DIR) + "/" +
                                        c.file);
  sweep.axis = c.axis;
  sweep.values = c.values;
  sweep.use_memo = false;  // every point is solved, screened or implied
  sweep.use_screen = screen;
  return sweep;
}

/// The verdict of a fresh full-model encode of each point.
std::vector<SolveResult> fresh_verdicts(const SweepRequest& sweep) {
  std::vector<SolveResult> out;
  for (const ServiceRequest& point : expand_sweep(sweep)) {
    const core::Scenario& sc = point.scenario;
    core::UfdiAttackModel model(sc.grid, sc.plan, sc.spec);
    out.push_back(model.verify().result);
  }
  return out;
}

/// An implied SAT witness, checked against the point alone: its meters are
/// taken, accessible and unsecured there and fit the point's T_CZ and T_CB,
/// and a fresh model of the point stays SAT with every other attackable
/// meter secured.
void expect_witness_holds(const core::Scenario& sc,
                          const ServiceResponse& r) {
  ASSERT_FALSE(r.altered_measurements.empty()) << r.id;
  std::set<grid::MeasId> meters;
  std::set<grid::BusId> buses;
  for (const int id : r.altered_measurements) {
    ASSERT_TRUE(id >= 1 && id <= sc.plan.num_potential()) << r.id;
    const grid::MeasId m = id - 1;
    EXPECT_TRUE(sc.plan.taken(m) && sc.plan.accessible(m)) << r.id;
    EXPECT_FALSE(sc.plan.secured(m)) << r.id << " alters secured " << id;
    meters.insert(m);
    buses.insert(sc.plan.residence_bus(m, sc.grid));
  }
  const int tcz = sc.spec.max_altered_measurements;
  const int tcb = sc.spec.max_compromised_buses;
  EXPECT_TRUE(tcz == 0 || static_cast<int>(meters.size()) <= tcz) << r.id;
  EXPECT_TRUE(tcb == 0 || static_cast<int>(buses.size()) <= tcb) << r.id;

  core::UfdiAttackModel model(sc.grid, sc.plan, sc.spec);
  std::vector<grid::MeasId> others;
  for (const grid::MeasId m : model.attackable_measurements()) {
    if (meters.count(m) == 0) others.push_back(m);
  }
  EXPECT_EQ(model.verify_with_secured_measurements(others).result,
            SolveResult::Sat)
      << r.id << ": the witness's meters alone admit no attack";
}

/// With the screen off, points it would refute reach the implication
/// rules instead; with it on, screened refutations seed the chain.
void run_differential(std::size_t threads, bool screen) {
  ServiceOptions opt;
  opt.threads = threads;
  AnalyticsService svc(opt);
  std::vector<SweepRequest> sweeps;
  std::vector<std::vector<std::future<ServiceResponse>>> futures;
  for (std::size_t i = 0; i < cases().size(); ++i) {
    sweeps.push_back(sweep_of(cases()[i], "s" + std::to_string(i), screen));
    futures.push_back(svc.submit_sweep(sweeps.back()));
  }
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    const SweepCase& c = cases()[i];
    SCOPED_TRACE(std::string(c.file) + " " + sweep_axis_name(c.axis) +
                 " at " + std::to_string(threads) + " workers");
    const std::vector<ServiceRequest> points = expand_sweep(sweeps[i]);
    const std::vector<SolveResult> fresh = fresh_verdicts(sweeps[i]);
    int implied = 0;
    for (std::size_t k = 0; k < points.size(); ++k) {
      const ServiceResponse r = futures[i][k].get();
      ASSERT_TRUE(r.ok()) << r.error;
      EXPECT_EQ(r.verdict, fresh[k]) << r.id;
      if (!r.implied) {
        EXPECT_EQ(r.implied_by, -1) << r.id;
        continue;
      }
      ++implied;
      EXPECT_NE(c.axis, SweepAxis::kTarget) << r.id;
      EXPECT_TRUE(r.implied_by >= 0 && r.implied_by < static_cast<int>(k))
          << r.id;
      EXPECT_FALSE(r.session_hit || r.screened || r.memo_hit) << r.id;
      EXPECT_EQ(r.decisions + r.conflicts + r.pivots, 0u) << r.id;
      if (r.verdict == SolveResult::Sat) {
        expect_witness_holds(points[k].scenario, r);
      }
    }
    if (c.must_imply) {
      EXPECT_GE(implied, 1);
    }
  }
  // Each sweep leases at most once, however many workers there are.
  const ServiceStats stats = svc.stats();
  EXPECT_LE(stats.sessions.hits + stats.sessions.misses, sweeps.size());
  if (threads == 1) {
    // One chain at a time: each family encodes once and is reused.
    EXPECT_EQ(stats.sessions.misses, stats.sessions.families);
  }
}

TEST(SweepChain, EveryAxisMatchesFreshSolvesAtOneWorker) {
  run_differential(1, /*screen=*/false);
}

TEST(SweepChain, EveryAxisMatchesFreshSolvesAtFourWorkers) {
  run_differential(4, /*screen=*/true);
}

TEST(SweepChain, OneSweepHoldsOneSessionAtFourWorkers) {
  ServiceOptions opt;
  opt.threads = 4;
  AnalyticsService svc(opt);
  const SweepCase& c = cases().back();  // ieee57 T_CZ; verdicts checked above
  for (std::future<ServiceResponse>& f :
       svc.submit_sweep(sweep_of(c, "tcz", true))) {
    const ServiceResponse r = f.get();
    ASSERT_TRUE(r.ok()) << r.error;
  }
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.sessions.misses, 1u);
  EXPECT_EQ(stats.sessions.hits, 0u);
  EXPECT_GE(stats.implied, 1u);
}

TEST(SweepChain, UnknownNeverSeedsTheChain) {
  ServiceOptions opt;
  opt.threads = 1;
  opt.memo_capacity = 0;
  AnalyticsService svc(opt);
  // T_CZ 4 is UNSAT on ieee57_verification but takes milliseconds to
  // refute, far past a 1 ms budget; had its Unknown seeded the chain as a
  // refutation, T_CZ 2 would be implied from it.
  SweepRequest sweep;
  sweep.id = "budget";
  sweep.scenario = core::Scenario::load(std::string(PSSE_DATA_DIR) +
                                        "/ieee57_verification.scn");
  sweep.axis = SweepAxis::kMaxMeasurements;
  sweep.values = {4, 2};
  sweep.time_limit_seconds = 0.001;
  sweep.use_screen = false;
  std::vector<std::future<ServiceResponse>> futures = svc.submit_sweep(sweep);
  const ServiceResponse first = futures[0].get();
  const ServiceResponse second = futures[1].get();
  ASSERT_TRUE(first.ok() && second.ok());
  if (first.verdict != SolveResult::Unknown) {
    GTEST_SKIP() << "T_CZ 4 was refuted within 1 ms; nothing to check";
  }
  EXPECT_FALSE(second.implied);
  EXPECT_NE(second.verdict, SolveResult::Sat);
}

/// A trace stream whose first "service_request" line blocks its writer
/// until release(): it parks a sweep's chain right after its first point
/// is answered, so cancel_all lands mid-chain deterministically.
class ParkingTrace {
 public:
  ParkingTrace() {
    cookie_io_functions_t io{};
    io.write = &ParkingTrace::write;
    FILE* file = fopencookie(this, "w", io);
    sink_ = std::make_unique<obs::TraceSink>(file, true);
  }
  ParkingTrace(const ParkingTrace&) = delete;
  ParkingTrace& operator=(const ParkingTrace&) = delete;

  [[nodiscard]] obs::Config config() const { return obs::Config{sink_.get()}; }

  void wait_parked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return parked_; });
  }

  void release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  static ssize_t write(void* cookie, const char* buf, size_t size) {
    auto* self = static_cast<ParkingTrace*>(cookie);
    std::unique_lock<std::mutex> lock(self->mu_);
    if (!self->parked_ && std::string_view(buf, size).find(
                              "\"service_request\"") != std::string::npos) {
      self->parked_ = true;
      self->cv_.notify_all();
      self->cv_.wait(lock, [&] { return self->released_; });
    }
    return static_cast<ssize_t>(size);
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool parked_ = false;
  bool released_ = false;
  std::unique_ptr<obs::TraceSink> sink_;
};

TEST(SweepChain, CancelAllMidChainAnswersUnknownAndKeepsTheSession) {
  ParkingTrace trace;
  ServiceOptions opt;
  opt.threads = 1;
  opt.memo_capacity = 0;
  opt.trace = trace.config();
  AnalyticsService svc(opt);
  // Objective 2 needs five meters: T_CZ 5 is SAT, and its witness would
  // settle T_CZ 6 and 8 without a solve.
  SweepRequest sweep;
  sweep.id = "cut";
  sweep.scenario =
      core::Scenario::load(std::string(PSSE_DATA_DIR) + "/ieee14_objective2.scn");
  sweep.axis = SweepAxis::kMaxMeasurements;
  sweep.values = {5, 6, 8};
  std::vector<std::future<ServiceResponse>> cut = svc.submit_sweep(sweep);
  trace.wait_parked();  // point 0 answered, its trace line in flight
  svc.cancel_all();
  trace.release();

  const ServiceResponse first = cut[0].get();
  ASSERT_TRUE(first.ok()) << first.error;
  EXPECT_EQ(first.verdict, SolveResult::Sat);
  for (std::size_t k = 1; k < cut.size(); ++k) {
    const ServiceResponse r = cut[k].get();
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.verdict, SolveResult::Unknown) << r.id;
    EXPECT_FALSE(r.implied) << r.id;
    EXPECT_EQ(r.implied_by, -1) << r.id;
  }
  EXPECT_EQ(svc.stats().implied, 0u);
  EXPECT_EQ(svc.stats().unknown, 2u);

  // The session the cancelled chain held comes back warm and answers the
  // same sweep afresh; the new chain carries only its own answers.
  sweep.id = "again";
  std::vector<std::future<ServiceResponse>> again = svc.submit_sweep(sweep);
  for (std::size_t k = 0; k < again.size(); ++k) {
    const ServiceResponse r = again[k].get();
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.verdict, SolveResult::Sat) << r.id;
    if (k == 0) {
      EXPECT_TRUE(r.session_hit);
      EXPECT_FALSE(r.implied);
    } else {
      EXPECT_TRUE(r.implied) << r.id;
      EXPECT_EQ(r.implied_by, 0) << r.id;
    }
  }
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.sessions.misses, 1u);
  EXPECT_EQ(stats.sessions.hits, 1u);
  EXPECT_EQ(stats.implied, 2u);
}

}  // namespace
}  // namespace psse::service
