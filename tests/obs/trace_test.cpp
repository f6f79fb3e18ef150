// Golden tests for the structured trace stream: a real CEGIS run must
// produce a journal that parses line-by-line and reconstructs the run's
// summary statistics exactly.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/synthesis.h"
#include "grid/ieee_cases.h"
#include "json_validate.h"

namespace psse {
namespace {

// Section IV-E measurement configuration (same as synthesis_test.cpp).
grid::MeasurementPlan scenario_plan(const grid::Grid& g) {
  grid::MeasurementPlan plan(g.num_lines(), g.num_buses());
  for (int id : {5, 10, 14, 19, 22, 27, 30, 35, 43, 52}) {
    plan.set_taken(id - 1, false);
  }
  return plan;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Value of `"key":<token>` in a flat JSON line, raw (unquoted strings are
/// returned without quotes). Empty when the key is absent. Good enough for
/// the flat single-object lines the sink emits; the structural check is
/// done by the independent validator.
std::string field_of(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  std::size_t start = at + needle.size();
  if (line[start] == '"') {
    ++start;
    const std::size_t end = line.find('"', start);
    return line.substr(start, end - start);
  }
  if (line[start] == '[') {
    const std::size_t end = line.find(']', start);
    return line.substr(start, end - start + 1);
  }
  std::size_t end = start;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(start, end - start);
}

std::string temp_trace_path(const char* name) {
  return testing::TempDir() + name;
}

TEST(TraceGolden, CegisJournalReconstructsTheRun) {
  const std::string path = temp_trace_path("cegis_ieee14.jsonl");
  grid::Grid g = grid::cases::ieee14();
  grid::MeasurementPlan plan = scenario_plan(g);
  core::AttackSpec spec;  // full knowledge, unlimited resources
  core::UfdiAttackModel model(g, plan, spec);
  const std::uint64_t pivotsBefore = model.solver_stats().pivots;

  core::SynthesisResult r;
  {
    auto sink = obs::TraceSink::open(path);
    core::SynthesisOptions opt;
    opt.max_secured_buses = 5;
    opt.must_secure = {0};
    opt.time_limit_seconds = 300;
    opt.trace = {sink.get()};
    core::SecurityArchitectureSynthesizer syn(model, opt);
    r = syn.synthesize();
  }
  ASSERT_EQ(r.status, core::SynthesisResult::Status::Found);

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_FALSE(lines.empty());

  int iters = 0;
  int unsatVerdicts = 0;
  int doneEvents = 0;
  std::uint64_t journalPivots = 0;
  int lastIter = 0;
  for (const std::string& line : lines) {
    ASSERT_TRUE(test_json::is_valid_json(line)) << line;
    const std::string ev = field_of(line, "ev");
    ASSERT_FALSE(ev.empty()) << line;
    EXPECT_FALSE(field_of(line, "t_us").empty()) << line;
    if (ev == "cegis_iter") {
      ++iters;
      lastIter = std::stoi(field_of(line, "iter"));
      const std::string verdict = field_of(line, "verdict");
      EXPECT_TRUE(verdict == "sat" || verdict == "unsat") << line;
      if (verdict == "unsat") ++unsatVerdicts;
      journalPivots += std::stoull(field_of(line, "pivots"));
      EXPECT_FALSE(field_of(line, "candidate").empty()) << line;
      EXPECT_FALSE(field_of(line, "blocking").empty()) << line;
    } else if (ev == "cegis_done") {
      ++doneEvents;
      EXPECT_EQ(field_of(line, "status"), "found");
      EXPECT_EQ(std::stoi(field_of(line, "candidates_tried")),
                r.candidates_tried);
    }
  }

  // The journal reconstructs the run exactly: one line per candidate,
  // iterations numbered 1..N, the one blocking architecture is the single
  // UNSAT verdict, and the per-iteration pivot deltas sum to the solver's
  // lifetime pivot growth.
  EXPECT_EQ(iters, r.candidates_tried);
  EXPECT_EQ(lastIter, r.candidates_tried);
  EXPECT_EQ(unsatVerdicts, 1);
  EXPECT_EQ(doneEvents, 1);
  EXPECT_EQ(journalPivots, model.solver_stats().pivots - pivotsBefore);
}

TEST(TraceGolden, VerifyEmitsOneSolveEventPerCall) {
  const std::string path = temp_trace_path("verify_ieee14.jsonl");
  grid::Grid g = grid::cases::ieee14();
  grid::MeasurementPlan plan(g.num_lines(), g.num_buses());
  core::AttackSpec spec;
  core::UfdiAttackModel model(g, plan, spec);
  {
    auto sink = obs::TraceSink::open(path);
    model.set_trace({sink.get()});
    EXPECT_EQ(model.verify().result, smt::SolveResult::Sat);
    EXPECT_EQ(model.verify().result, smt::SolveResult::Sat);
  }
  model.set_trace({});  // detach before the sink goes away

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    ASSERT_TRUE(test_json::is_valid_json(line)) << line;
    EXPECT_EQ(field_of(line, "ev"), "solve");
    EXPECT_EQ(field_of(line, "verdict"), "sat");
    // Phase timing is enabled alongside tracing; a full solve spends
    // nonzero time somewhere, and theory time includes simplex time.
    EXPECT_FALSE(field_of(line, "encode_us").empty());
    EXPECT_GE(std::stoll(field_of(line, "theory_us")),
              std::stoll(field_of(line, "simplex_us")));
  }
}

TEST(TraceSinkTest, OpenFailureThrows) {
  EXPECT_THROW(obs::TraceSink::open("/nonexistent-dir/x/y/trace.jsonl"),
               std::runtime_error);
}

TEST(TraceSinkTest, ConcurrentWritersNeverInterleaveMidLine) {
  const std::string path = temp_trace_path("concurrent.jsonl");
  {
    auto sink = obs::TraceSink::open(path);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&sink, t] {
        for (int i = 0; i < 200; ++i) {
          obs::Event("tick").field("thread", t).field("i", i).emit(*sink);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 800u);
  for (const std::string& line : lines) {
    ASSERT_TRUE(test_json::is_valid_json(line)) << line;
    ASSERT_EQ(field_of(line, "ev"), "tick");
  }
}

}  // namespace
}  // namespace psse
