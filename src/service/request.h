// Request/response vocabulary of the attack-analytics service.
//
// A ServiceRequest carries one full scenario (the same object the scenario
// files parse into); the service splits it into a *family base* — grid,
// measurement layout with secured bits cleared, strip_delta(spec) — and a
// core::ScenarioDelta, so related requests share a warm solver session
// (see SolverSessionCache). A SweepRequest is the server-side form of a
// fig4/fig5 axis: one scenario plus an axis and its values, expanded into
// a delta family by expand_sweep() so the whole sweep runs on one session
// without the client chattering N scenarios across the wire.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "smt/solver.h"

namespace psse::service {

struct ServiceRequest {
  /// Client-chosen correlation id, echoed into the response and the
  /// "service_request" trace event.
  std::string id;
  core::Scenario scenario;
  /// Per-request deadline; 0 falls back to ServiceOptions::
  /// default_time_limit_seconds (0 there too = unlimited).
  double time_limit_seconds = 0;
  /// >0: race a diversified portfolio of this many members on fresh clones
  /// instead of reusing a warm session (trades delta reuse for race
  /// parallelism on hard single queries).
  std::size_t portfolio = 0;
  /// Portfolio strategy when portfolio > 0: false races full copies,
  /// true splits the instance with cube-and-conquer
  /// (runtime::PortfolioMode::kCubeAndConquer) — the right choice for
  /// hard all-UNSAT queries, where racing just repeats one proof N times.
  /// Protocol field "portfolio_mode": "race" | "cube".
  bool portfolio_cube = false;
  /// Consult/populate the result memo for this request.
  bool use_memo = true;
  /// Run the LP-relaxation screen (screen::LpScreen) before dispatching to
  /// a solver; a provably infeasible relaxation answers Unsat without an
  /// SMT call. Verdicts are identical either way — this is the per-request
  /// form of the service-wide ServiceOptions::screen switch.
  bool use_screen = true;
  /// Position within an expanded sweep; -1 for standalone requests.
  int sweep_index = -1;
};

/// The sweepable axes a SweepRequest can expand server-side. Mirrors the
/// fig4/fig5 experiment families: resource limits (fig4c/fig5c), secured
/// toggles (the synthesis inner loop), target stepping, and the magnitude
/// extension.
enum class SweepAxis {
  kMaxMeasurements,   // T_CZ values
  kMaxBuses,          // T_CB values
  kMaxTopologyChanges,
  kSecureMeasurement,  // 1-based measurement id secured on top of scenario
  kSecureBus,          // 1-based bus id secured on top of scenario
  kTarget,             // 1-based bus id replacing the target set
  kMinTargetShift,     // radians
};

/// Parses the protocol's axis name ("max-measurements", "max-buses",
/// "max-topology-changes", "secure-measurement", "secure-bus", "target",
/// "min-target-shift"); throws std::invalid_argument on anything else.
[[nodiscard]] SweepAxis parse_sweep_axis(const std::string& name);
[[nodiscard]] const char* sweep_axis_name(SweepAxis axis);

struct SweepRequest {
  std::string id;
  core::Scenario scenario;
  SweepAxis axis = SweepAxis::kMaxMeasurements;
  /// Axis values; for the id-valued axes these are 1-based ids (matching
  /// the scenario file format) and must be integral. Mutually exclusive
  /// with the range form below.
  std::vector<double> values;
  /// Range form: values from, from+step, ... up to and including `to`
  /// (inclusive whenever it lands exactly). expand_sweep validates the
  /// axis: a zero step, a step pointing away from `to`, or a non-finite
  /// endpoint is an error, never a silently empty sweep.
  bool has_range = false;
  double range_from = 0;
  double range_to = 0;
  double range_step = 0;
  double time_limit_seconds = 0;
  bool use_memo = true;
  bool use_screen = true;
};

/// Expands a sweep into per-value requests (ids "<id>[<k>]", sweep_index
/// k). Id-valued axes are range-checked here; a bad value, a degenerate
/// range, or an expansion with no points throws core::ScenarioError naming
/// the problem — callers see an in-band error instead of a sweep that
/// quietly answers nothing.
[[nodiscard]] std::vector<ServiceRequest> expand_sweep(
    const SweepRequest& sweep);

struct ServiceResponse {
  std::string id;
  /// Non-empty on failure; every other field except queue_seconds is then
  /// meaningless.
  std::string error;
  smt::SolveResult verdict = smt::SolveResult::Unknown;
  /// Altered measurement ids (1-based, sorted) of the witness when SAT.
  std::vector<int> altered_measurements;
  double solve_seconds = 0;
  double queue_seconds = 0;
  /// Warm-session reuse and memoisation attribution for this request.
  bool session_hit = false;
  bool memo_hit = false;
  /// True when the LP-relaxation screen proved the scenario Unsat and the
  /// SMT solve was skipped; screen_seconds is the screening cost either
  /// way (0 when screening was off or the memo answered first).
  bool screened = false;
  double screen_seconds = 0;
  /// Sweep points only: an earlier point of the same sweep settled this
  /// one (a SAT witness that fits it, or a refutation of a point at most as
  /// constrained; core/implication.h), so no session was leased. A SAT
  /// answer returns the implying witness's meters. implied_by is the
  /// implying point's sweep_index, -1 when not implied.
  bool implied = false;
  int implied_by = -1;
  /// Family (session-cache key) and full scenario fingerprint — the same
  /// values emitted into trace events, so service responses join against
  /// traces from any tool.
  std::uint64_t family = 0;
  std::uint64_t fingerprint = 0;
  /// Winning portfolio member label (portfolio requests only).
  std::string winner;
  /// Per-call solver effort (zero unless this request was solved).
  std::uint64_t decisions = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t pivots = 0;
  int sweep_index = -1;

  [[nodiscard]] bool ok() const { return error.empty(); }
};

}  // namespace psse::service
