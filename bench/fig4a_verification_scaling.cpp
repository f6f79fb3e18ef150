// Fig. 4(a): UFDI verification time vs bus-system size.
//
// Three experiments per IEEE system (different attacked states) plus the
// average — the series the paper plots as bars + line. With --json each
// experiment additionally emits one machine-readable line carrying the
// verdict, the search counters (decisions, conflicts, propagations, theory
// propagations), the simplex pivot/filter/eta counters, and the per-phase
// wall-time split. --exact-simplex disables the float filter and --no-eta
// the eta-factorised tableau (ci.sh cross-checks that these modes run the
// same search); --synthetic appends the large synthetic grids
// (600/1000/1500 buses at realistic measurement density) to the series.
#include "bench_util.h"
#include "grid/synthetic.h"

using namespace psse;

int main(int argc, char** argv) {
  const bool json = bench::json_enabled(argc, argv);
  const bool exact = bench::exact_simplex_enabled(argc, argv);
  const bool eta = !bench::no_eta_enabled(argc, argv);
  const bool screen = !bench::no_screen_enabled(argc, argv);
  auto sink = bench::trace_sink(argc, argv);
  const obs::Config trace{sink.get()};
  bench::header("Fig. 4(a) - verification time vs problem size",
                "growth between linear and quadratic in the bus count; "
                "different target choices give different times");
  std::printf("%-10s %10s %10s %10s %10s\n", "system", "exp1(ms)", "exp2(ms)",
              "exp3(ms)", "avg(ms)");
  std::vector<std::string> names = grid::cases::standard_names();
  if (bench::synthetic_enabled(argc, argv)) {
    for (const std::string& n : grid::cases::synthetic_names()) {
      names.push_back(n);
    }
  }
  for (const std::string& name : names) {
    const bool synth = name.rfind("synth", 0) == 0;
    grid::Grid g = synth ? grid::cases::synthetic_by_name(name)
                         : grid::cases::by_name(name);
    // IEEE cases take every potential measurement (the paper's setup); the
    // synthetic cases run at their recorded realistic density.
    grid::MeasurementPlan plan =
        synth ? bench::observable_fraction_plan(
                    g, grid::cases::synthetic_spec(name).meas_fraction,
                    grid::cases::synthetic_spec(name).meas_seed)
              : grid::MeasurementPlan(g.num_lines(), g.num_buses());
    std::vector<double> times;
    int exp = 0;
    for (const core::AttackSpec& spec : bench::standard_targets(g)) {
      core::VerificationResult r =
          bench::verify_run(g, plan, spec, 600, trace, exact, eta);
      times.push_back(r.seconds * 1000.0);
      bench::JsonLine line(json, "fig4a",
                           name + "/exp" + std::to_string(++exp));
      line.field("ms", r.seconds * 1000.0)
          .field("decisions", r.stats.sat.decisions)
          .field("conflicts", r.stats.sat.conflicts)
          .field("propagations", r.stats.sat.propagations)
          .field("theory_propagations", r.stats.sat.theory_propagations)
          .field("pivots", r.stats.pivots)
          .field("float_pivots", r.stats.float_pivots)
          .field("exact_recomputes", r.stats.exact_recomputes)
          .field("filter_fallbacks", r.stats.filter_fallbacks)
          .field("eta_updates", r.stats.eta_updates)
          .field("refactorisations", r.stats.refactorisations)
          .field("eta_file_len_max", r.stats.eta_file_len_max)
          .field("verdict", r.feasible() ? "sat" : "unsat");
      bench::screen_fields(line, g, plan, spec, screen && json);
      bench::phase_fields(line, r.phase_times).emit();
    }
    std::printf("%-10s %10.1f %10.1f %10.1f %10.1f\n", name.c_str(),
                times[0], times[1], times[2], bench::mean(times));
    std::fflush(stdout);
    bench::JsonLine(json, "fig4a", name)
        .field("ms", bench::mean(times))
        .emit();
  }
  return 0;
}
