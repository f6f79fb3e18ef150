// Shared helpers for the figure/table reproduction benches.
//
// Each bench binary regenerates one table or figure of the paper's
// evaluation (Section V) and prints the series as aligned columns plus the
// paper's qualitative expectation, so paper-vs-measured comparison is a
// side-by-side read (EXPERIMENTS.md records one such run).
#pragma once

#include <chrono>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "core/attack_model.h"
#include "core/attack_spec.h"
#include "core/synthesis.h"
#include "estimation/observability.h"
#include "grid/ieee_cases.h"
#include "grid/measurement.h"
#include "obs/json_writer.h"
#include "obs/trace.h"
#include "screen/lp_screen.h"

namespace psse::bench {

/// The attacker's target states for the Fig. 4(a) "three experiments":
/// deterministic spread-out choices (#1 near the far end, #2 mid-grid,
/// #3 a pair of adjacent states).
inline std::vector<core::AttackSpec> standard_targets(const grid::Grid& g) {
  const int b = g.num_buses();
  core::AttackSpec far;
  far.target_states = {b - 1};
  core::AttackSpec mid;
  mid.target_states = {b / 2};
  core::AttackSpec pair;
  pair.target_states = {b / 3, b / 3 + 1};
  return {far, mid, pair};
}

/// A measurement plan with `fraction` of the potential measurements taken,
/// re-seeded until the configuration stays observable (the paper sweeps
/// 70%-100%, where a blind draw is occasionally unobservable).
inline grid::MeasurementPlan observable_fraction_plan(const grid::Grid& g,
                                                      double fraction,
                                                      std::uint64_t seed) {
  for (std::uint64_t attempt = 0; attempt < 50; ++attempt) {
    grid::MeasurementPlan plan(g.num_lines(), g.num_buses());
    plan.keep_fraction(fraction, seed + attempt * 1000003);
    if (est::check_observability(g, plan).observable) return plan;
  }
  throw grid::GridError("observable_fraction_plan: no observable draw");
}

/// One full verification run (the model is rebuilt each time, as the
/// paper's per-run measurements do); the result carries timing and the
/// solver statistics (pivot count, footprint) for machine-readable output.
inline core::VerificationResult verify_run(const grid::Grid& g,
                                           const grid::MeasurementPlan& p,
                                           const core::AttackSpec& spec,
                                           double timeLimitSeconds = 600,
                                           const obs::Config& trace = {},
                                           bool exactSimplex = false,
                                           bool etaTableau = true) {
  core::UfdiAttackModel model(g, p, spec);
  model.set_trace(trace);
  // Phase timing stays on regardless of tracing: the --json rows report the
  // encode/simplex/tprop split, so a filter regression is attributable
  // without a separate trace pass.
  model.enable_phase_timing(true);
  if (exactSimplex || !etaTableau) {
    smt::SimplexOptions so = model.simplex_options();
    if (exactSimplex) so.float_filter = false;
    so.eta_tableau = etaTableau;
    model.set_simplex_options(so);
  }
  smt::Budget budget;
  budget.max_time = std::chrono::milliseconds(
      static_cast<long>(timeLimitSeconds * 1000));
  return model.verify(budget);
}

/// Milliseconds of a verification run.
inline double verify_ms(const grid::Grid& g, const grid::MeasurementPlan& p,
                        const core::AttackSpec& spec,
                        double timeLimitSeconds = 600,
                        const obs::Config& trace = {},
                        bool exactSimplex = false, bool etaTableau = true) {
  return verify_run(g, p, spec, timeLimitSeconds, trace, exactSimplex,
                    etaTableau)
             .seconds * 1000.0;
}

/// True when the bench was invoked with `--json`: each case then emits one
/// machine-readable line alongside the human-readable columns, so runs can
/// be recorded and diffed (BENCH_smt.json keeps the before/after baseline).
inline bool json_enabled(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json") return true;
  }
  return false;
}

/// Builder for one JSON result line:
///   {"bench":"fig4a","case":"ieee57","ms":6.8,"pivots":1042}
/// Keys and string values are escaped per RFC 8259 (scenario names come
/// from the command line and may contain anything); emit() prints the line
/// iff enabled.
class JsonLine {
 public:
  JsonLine(bool enabled, std::string_view bench, std::string_view caseName)
      : enabled_(enabled) {
    writer_.field("bench", bench);
    writer_.field("case", caseName);
  }

  JsonLine& field(std::string_view key, double v) {
    writer_.field(key, v);
    return *this;
  }

  JsonLine& field(std::string_view key, std::uint64_t v) {
    writer_.field(key, v);
    return *this;
  }

  JsonLine& field(std::string_view key, std::string_view v) {
    writer_.field(key, v);
    return *this;
  }

  void emit() {
    if (!enabled_) return;
    std::printf("%s\n", writer_.str().c_str());
    std::fflush(stdout);
  }

 private:
  bool enabled_;
  obs::JsonWriter writer_;
};

/// True when invoked with `--exact-simplex`: the fig4 benches then disable
/// the theory solver's float filter (SimplexOptions::float_filter) — ci.sh
/// runs the fig4a smoke both ways and asserts verdict equality.
inline bool exact_simplex_enabled(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--exact-simplex") return true;
  }
  return false;
}

/// True when invoked with `--no-eta`: the fig4 benches then disable the
/// eta-factorised tableau (SimplexOptions::eta_tableau), reverting to eager
/// row substitution — ci.sh cross-checks the two modes for verdict
/// equality.
inline bool no_eta_enabled(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--no-eta") return true;
  }
  return false;
}

/// True when invoked with `--synthetic`: fig4a additionally runs the large
/// synthetic grids (600/1000/1500 buses) after the IEEE cases — the scaling
/// series DESIGN/EXPERIMENTS track, kept opt-in so the default smoke stays
/// fast.
inline bool synthetic_enabled(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--synthetic") return true;
  }
  return false;
}

/// True when invoked with `--no-screen`: benches and tools that run the
/// LP-relaxation screen in front of verification then skip it (the escape
/// hatch ci.sh uses for the screened-vs-unscreened verdict cross-check).
inline bool no_screen_enabled(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--no-screen") return true;
  }
  return false;
}

/// Runs the LP-relaxation screen over one experiment and appends its
/// verdict and cost to the row ("screened" = the screen alone proved the
/// scenario unsat; the SMT verdict in the same row must then agree).
/// `enabled` false records screened=false at zero cost.
inline JsonLine& screen_fields(JsonLine& line, const grid::Grid& g,
                               const grid::MeasurementPlan& p,
                               const core::AttackSpec& spec, bool enabled) {
  bool screened = false;
  double us = 0;
  if (enabled) {
    screen::LpScreen s(g, p, spec);
    const screen::ScreenResult r = s.screen(core::ScenarioDelta::of(spec));
    screened = r.verdict == screen::ScreenVerdict::kInfeasible;
    us = r.seconds * 1e6;
  }
  line.field("screened", screened ? std::uint64_t{1} : std::uint64_t{0})
      .field("screen_us", static_cast<std::uint64_t>(us));
  return line;
}

/// Accumulates one run's phase split into a cell aggregate (for benches
/// whose JSON rows summarise several runs).
inline void accumulate_phases(obs::PhaseTimes& into,
                              const obs::PhaseTimes& run) {
  into.encode_us += run.encode_us;
  into.propagate_us += run.propagate_us;
  into.simplex_us += run.simplex_us;
  into.tprop_us += run.tprop_us;
  into.theory_us += run.theory_us;
  into.ftran_us += run.ftran_us;
  into.btran_us += run.btran_us;
}

/// Appends the per-phase wall-time split of one verification run to a JSON
/// row (microseconds; zero when the phase never ran).
inline JsonLine& phase_fields(JsonLine& line, const obs::PhaseTimes& pt) {
  line.field("encode_us", static_cast<std::uint64_t>(pt.encode_us))
      .field("propagate_us", static_cast<std::uint64_t>(pt.propagate_us))
      .field("simplex_us", static_cast<std::uint64_t>(pt.simplex_us))
      .field("tprop_us", static_cast<std::uint64_t>(pt.tprop_us))
      .field("theory_us", static_cast<std::uint64_t>(pt.theory_us))
      .field("ftran_us", static_cast<std::uint64_t>(pt.ftran_us))
      .field("btran_us", static_cast<std::uint64_t>(pt.btran_us));
  return line;
}

/// `--trace <file>` support for the benches: returns an open sink when the
/// flag is present (nullptr otherwise). Callers hold the unique_ptr for the
/// bench's lifetime and pass {sink.get()} as the obs::Config.
inline std::unique_ptr<obs::TraceSink> trace_sink(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == "--trace") {
      return obs::TraceSink::open(argv[i + 1]);
    }
  }
  return nullptr;
}

inline double mean(const std::vector<double>& xs) {
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

inline double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

inline void header(const char* figure, const char* claim) {
  std::printf("== %s ==\npaper's expectation: %s\n\n", figure, claim);
}

}  // namespace psse::bench
