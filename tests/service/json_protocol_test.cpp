// JSON protocol: request parsing (happy paths, every rejection), response
// encoding validated against an independent JSON checker.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/scenario.h"
#include "grid/ieee_cases.h"
#include "obs/json_writer.h"
#include "service/json_protocol.h"
#include "../obs/json_validate.h"

namespace psse::service {
namespace {

/// Inline scenario text for requests (JSON-escaped newlines applied by the
/// test where embedded).
const char kScenario[] =
    "case ieee14\\ntarget-only 12\\nmax-measurements 6\\n";

TEST(JsonProtocol, ParsesVerifyRequest) {
  const std::string line =
      std::string("{\"op\":\"verify\",\"id\":\"q1\",\"scenario\":\"") +
      kScenario + "\",\"time_limit\":2.5,\"portfolio\":3,\"memo\":false}";
  ParsedRequest req = parse_request(line);
  EXPECT_EQ(req.op, ParsedRequest::Op::kVerify);
  EXPECT_EQ(req.id, "q1");
  EXPECT_EQ(req.verify.id, "q1");
  EXPECT_EQ(req.verify.time_limit_seconds, 2.5);
  EXPECT_EQ(req.verify.portfolio, 3u);
  EXPECT_FALSE(req.verify.use_memo);
  EXPECT_EQ(req.verify.scenario.case_name, "ieee14");
  EXPECT_EQ(req.verify.scenario.spec.target_states,
            (std::vector<grid::BusId>{11}));
  EXPECT_EQ(req.verify.scenario.spec.max_altered_measurements, 6);
}

TEST(JsonProtocol, ParsesSweepRequest) {
  const std::string line =
      std::string("{\"op\":\"sweep\",\"id\":\"s\",\"scenario\":\"") +
      kScenario +
      "\",\"axis\":\"max-measurements\",\"values\":[4,6,8]}";
  ParsedRequest req = parse_request(line);
  EXPECT_EQ(req.op, ParsedRequest::Op::kSweep);
  EXPECT_EQ(req.sweep.axis, SweepAxis::kMaxMeasurements);
  EXPECT_EQ(req.sweep.values, (std::vector<double>{4, 6, 8}));
  EXPECT_TRUE(req.sweep.use_memo);
  std::vector<ServiceRequest> points = expand_sweep(req.sweep);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].id, "s[0]");
  EXPECT_EQ(points[2].scenario.spec.max_altered_measurements, 8);
  EXPECT_EQ(points[2].sweep_index, 2);
}

TEST(JsonProtocol, ParsesStatsRequest) {
  EXPECT_EQ(parse_request("{\"op\":\"stats\"}").op,
            ParsedRequest::Op::kStats);
}

TEST(JsonProtocol, DecodesStringEscapes) {
  // A = 'A', é = 'é' (two UTF-8 bytes), plus the simple escapes.
  ParsedRequest req = parse_request(
      "{\"op\":\"stats\",\"id\":\"\\u0041\\u00e9\\t\\\"x\\\\\"}");
  EXPECT_EQ(req.id, "A\xc3\xa9\t\"x\\");
}

TEST(JsonProtocol, RejectsMalformedRequests) {
  EXPECT_THROW((void)parse_request("not json"), ProtocolError);
  EXPECT_THROW((void)parse_request("{\"op\":\"verify\""), ProtocolError);
  EXPECT_THROW((void)parse_request("[1,2]"), ProtocolError);
  EXPECT_THROW((void)parse_request("{}"), ProtocolError);  // no op
  EXPECT_THROW((void)parse_request("{\"op\":\"nope\"}"), ProtocolError);
  // verify without any scenario source, or with both.
  EXPECT_THROW((void)parse_request("{\"op\":\"verify\",\"id\":\"x\"}"),
               ProtocolError);
  EXPECT_THROW(
      (void)parse_request(
          "{\"op\":\"verify\",\"scenario\":\"case ieee14\\n\","
          "\"scenario_file\":\"also.scn\"}"),
      ProtocolError);
  // sweep problems: missing axis, unknown axis, bad values.
  const std::string scn = "\"scenario\":\"case ieee14\\n\"";
  EXPECT_THROW((void)parse_request("{\"op\":\"sweep\"," + scn + "}"),
               ProtocolError);
  EXPECT_THROW((void)parse_request("{\"op\":\"sweep\"," + scn +
                                   ",\"axis\":\"bogus\",\"values\":[1]}"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_request("{\"op\":\"sweep\"," + scn +
                                   ",\"axis\":\"target\",\"values\":[]}"),
               ProtocolError);
  EXPECT_THROW(
      (void)parse_request("{\"op\":\"sweep\"," + scn +
                          ",\"axis\":\"target\",\"values\":[\"a\"]}"),
      ProtocolError);
  // mistyped fields.
  EXPECT_THROW((void)parse_request("{\"op\":\"verify\"," + scn +
                                   ",\"portfolio\":-1}"),
               ProtocolError);
  EXPECT_THROW((void)parse_request("{\"op\":\"verify\"," + scn +
                                   ",\"memo\":\"yes\"}"),
               ProtocolError);
  // bad scenario text surfaces as ScenarioError, not a crash.
  EXPECT_THROW(
      (void)parse_request("{\"op\":\"verify\",\"scenario\":\"caze x\\n\"}"),
      core::ScenarioError);
}

TEST(JsonProtocol, ExpandSweepRejectsBadAxisValues) {
  SweepRequest sweep;
  sweep.id = "s";
  sweep.scenario.grid = grid::cases::ieee14();
  sweep.scenario.plan =
      grid::cases::paper_plan14(sweep.scenario.grid);
  sweep.axis = SweepAxis::kMaxMeasurements;
  sweep.values = {4.5};
  EXPECT_THROW((void)expand_sweep(sweep), core::ScenarioError);
  sweep.axis = SweepAxis::kSecureMeasurement;
  sweep.values = {0};
  EXPECT_THROW((void)expand_sweep(sweep), core::ScenarioError);
  sweep.values = {1000};
  EXPECT_THROW((void)expand_sweep(sweep), core::ScenarioError);
  sweep.axis = SweepAxis::kTarget;
  sweep.values = {15};  // ieee14 has buses 1..14
  EXPECT_THROW((void)expand_sweep(sweep), core::ScenarioError);
  sweep.axis = SweepAxis::kMinTargetShift;
  sweep.values = {-0.1};
  EXPECT_THROW((void)expand_sweep(sweep), core::ScenarioError);
}

TEST(JsonProtocol, EncodesResponses) {
  ServiceResponse r;
  r.id = "q\"1";  // forces escaping
  r.verdict = smt::SolveResult::Sat;
  r.altered_measurements = {12, 32, 39};
  r.solve_seconds = 0.25;
  r.session_hit = true;
  r.family = 0xdeadbeef12345678ULL;
  r.fingerprint = 0x0123456789abcdefULL;
  r.winner = "luby";
  r.decisions = 10;
  r.sweep_index = 2;
  const std::string line = encode_response(r);
  EXPECT_TRUE(test_json::Validator(line).valid()) << line;
  EXPECT_NE(line.find("\"verdict\":\"sat\""), std::string::npos);
  EXPECT_NE(line.find("\"altered\":[12,32,39]"), std::string::npos);
  EXPECT_NE(line.find("\"family\":\"deadbeef12345678\""), std::string::npos);
  EXPECT_NE(line.find("\"fp\":\"0123456789abcdef\""), std::string::npos);
  EXPECT_NE(line.find("\"winner\":\"luby\""), std::string::npos);
  EXPECT_NE(line.find("\"sweep_index\":2"), std::string::npos);

  ServiceResponse err;
  err.id = "bad";
  err.error = "no such file: \"x.scn\"";
  const std::string errLine = encode_response(err);
  EXPECT_TRUE(test_json::Validator(errLine).valid()) << errLine;
  EXPECT_NE(errLine.find("\"ok\":false"), std::string::npos);
  EXPECT_EQ(errLine.find("\"verdict\""), std::string::npos);
}

TEST(JsonProtocol, EncodesStatsAndErrors) {
  ServiceStats s;
  s.requests = 7;
  s.solve_p99_us = 1234;
  const std::string line = encode_stats(s);
  EXPECT_TRUE(test_json::Validator(line).valid()) << line;
  EXPECT_NE(line.find("\"requests\":7"), std::string::npos);
  EXPECT_NE(line.find("\"solve_p99_us\":1234"), std::string::npos);

  const std::string err = encode_error("id1", "boom\n");
  EXPECT_TRUE(test_json::Validator(err).valid()) << err;
  EXPECT_NE(err.find("\"error\":\"boom\\n\""), std::string::npos);
}

TEST(JsonProtocol, RejectsNonFiniteAndOverflowingNumbers) {
  // strtod turns 1e999 into +inf without setting a parse error; the
  // protocol must reject the token in-band instead of admitting an
  // infinite deadline (or, worse, feeding inf into integer casts).
  const std::string head =
      std::string("{\"op\":\"verify\",\"id\":\"x\",\"scenario\":\"") +
      kScenario + "\",";
  EXPECT_THROW((void)parse_request(head + "\"time_limit\":1e999}"),
               ProtocolError);
  EXPECT_THROW((void)parse_request(head + "\"time_limit\":-1e999}"),
               ProtocolError);
  EXPECT_THROW((void)parse_request(head + "\"time_limit\":-0.5}"),
               ProtocolError);
  // Out-of-range portfolio values used to hit an undefined double->size_t
  // cast before the range check; now the range check comes first.
  EXPECT_THROW((void)parse_request(head + "\"portfolio\":1e300}"),
               ProtocolError);
  EXPECT_THROW((void)parse_request(head + "\"portfolio\":3.5}"),
               ProtocolError);
  EXPECT_THROW((void)parse_request(head + "\"portfolio\":-1}"),
               ProtocolError);
  EXPECT_THROW((void)parse_request(head + "\"portfolio\":4097}"),
               ProtocolError);
  EXPECT_NO_THROW((void)parse_request(head + "\"portfolio\":4096}"));
  const std::string sweep =
      std::string("{\"op\":\"sweep\",\"scenario\":\"") + kScenario +
      "\",\"axis\":\"max-measurements\",";
  EXPECT_THROW((void)parse_request(sweep + "\"values\":[4,1e999]}"),
               ProtocolError);
}

TEST(JsonProtocol, ParsesSweepRangeForm) {
  const std::string sweep =
      std::string("{\"op\":\"sweep\",\"id\":\"r\",\"scenario\":\"") +
      kScenario + "\",\"axis\":\"max-measurements\",";
  ParsedRequest req =
      parse_request(sweep + "\"from\":4,\"to\":8,\"step\":2}");
  ASSERT_TRUE(req.sweep.has_range);
  std::vector<ServiceRequest> points = expand_sweep(req.sweep);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].scenario.spec.max_altered_measurements, 4);
  EXPECT_EQ(points[2].scenario.spec.max_altered_measurements, 8);
  // Descending ranges walk with a negative step.
  req = parse_request(sweep + "\"from\":8,\"to\":4,\"step\":-2}");
  points = expand_sweep(req.sweep);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].scenario.spec.max_altered_measurements, 8);
  // values XOR range, and the range needs all three fields.
  EXPECT_THROW((void)parse_request(sweep +
                                   "\"values\":[1],\"from\":1,\"to\":2,"
                                   "\"step\":1}"),
               ProtocolError);
  EXPECT_THROW((void)parse_request(sweep + "\"from\":1,\"to\":2}"),
               ProtocolError);
}

TEST(JsonProtocol, SweepRangeDegenerateAxesErrorInBand) {
  // Zero step, a step walking away from "to", and an empty expansion must
  // come back as in-band errors — never an infinite loop, never a silent
  // empty sweep, never a crash.
  const std::string sweep =
      std::string("{\"op\":\"sweep\",\"id\":\"d\",\"scenario\":\"") +
      kScenario + "\",\"axis\":\"max-measurements\",";
  EXPECT_THROW(
      (void)expand_sweep(
          parse_request(sweep + "\"from\":1,\"to\":5,\"step\":0}").sweep),
      core::ScenarioError);
  EXPECT_THROW(
      (void)expand_sweep(
          parse_request(sweep + "\"from\":5,\"to\":1,\"step\":1}").sweep),
      core::ScenarioError);
  EXPECT_THROW(
      (void)expand_sweep(
          parse_request(sweep + "\"from\":0,\"to\":1e9,\"step\":0.001}")
              .sweep),
      core::ScenarioError);
  // Programmatic callers can still hand over an empty values list; the
  // expansion names the sweep in its error instead of yielding nothing.
  SweepRequest empty;
  empty.id = "empty";
  empty.axis = SweepAxis::kMaxMeasurements;
  EXPECT_THROW((void)expand_sweep(empty), core::ScenarioError);
}

TEST(JsonProtocol, ScreenFlagRoundTrips) {
  const std::string head =
      std::string("{\"op\":\"verify\",\"id\":\"x\",\"scenario\":\"") +
      kScenario + "\",";
  EXPECT_TRUE(parse_request(head + "\"memo\":true}").verify.use_screen);
  EXPECT_FALSE(
      parse_request(head + "\"screen\":false}").verify.use_screen);
  const std::string sweep =
      std::string("{\"op\":\"sweep\",\"scenario\":\"") + kScenario +
      "\",\"axis\":\"target\",\"values\":[2],\"screen\":false}";
  const SweepRequest sr = parse_request(sweep).sweep;
  EXPECT_FALSE(sr.use_screen);
  EXPECT_FALSE(expand_sweep(sr)[0].use_screen);

  ServiceResponse resp;
  resp.id = "s";
  resp.verdict = smt::SolveResult::Unsat;
  resp.screened = true;
  resp.screen_seconds = 0.001;
  const std::string line = encode_response(resp);
  EXPECT_TRUE(test_json::Validator(line).valid()) << line;
  EXPECT_NE(line.find("\"screened\":true"), std::string::npos);
  EXPECT_NE(line.find("\"screen_s\":"), std::string::npos);
}

TEST(JsonProtocol, EncodesImpliedSweepPoints) {
  ServiceResponse resp;
  resp.id = "s[3]";
  resp.sweep_index = 3;
  resp.verdict = smt::SolveResult::Sat;
  resp.altered_measurements = {12, 32, 39, 46, 53};
  resp.implied = true;
  resp.implied_by = 2;
  std::string line = encode_response(resp);
  EXPECT_TRUE(test_json::Validator(line).valid()) << line;
  EXPECT_NE(line.find("\"implied\":true"), std::string::npos) << line;
  EXPECT_NE(line.find("\"implied_by\":2"), std::string::npos) << line;

  resp.implied = false;
  resp.implied_by = -1;
  line = encode_response(resp);
  EXPECT_NE(line.find("\"implied\":false"), std::string::npos) << line;
  EXPECT_EQ(line.find("implied_by"), std::string::npos) << line;

  ServiceStats stats;
  stats.implied = 7;
  line = encode_stats(stats);
  EXPECT_TRUE(test_json::Validator(line).valid()) << line;
  EXPECT_NE(line.find("\"implied\":7"), std::string::npos) << line;
}

TEST(JsonProtocol, RoundTripsThroughScenarioToString) {
  // A programmatic scenario serialised with Scenario::to_string survives
  // JSON embedding (escape + parse) intact.
  core::Scenario sc;
  sc.grid = grid::cases::ieee14();
  sc.plan = grid::cases::paper_plan14(sc.grid);
  sc.spec.target_states = {11};
  sc.spec.attack_only_targets = true;
  const std::string text = sc.to_string();
  const std::string line =
      "{\"op\":\"verify\",\"id\":\"rt\",\"scenario\":\"" +
      obs::json_escape(text) + "\"}";
  ParsedRequest req = parse_request(line);
  EXPECT_EQ(core::scenario_fingerprint(req.verify.scenario),
            core::scenario_fingerprint(sc));
}

}  // namespace
}  // namespace psse::service
