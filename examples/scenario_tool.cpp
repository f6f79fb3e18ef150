// scenario_tool: the paper's "input file" interface as a CLI.
//
//   scenario_tool verify <file.scn>      run the UFDI verification model
//   scenario_tool synthesize <file.scn>  run countermeasure synthesis
//   scenario_tool print <file.scn>       parse and echo the scenario
//
// An optional `--trace FILE` (after the scenario file) journals structured
// solver/CEGIS events to FILE, one JSON object per line (see obs/trace.h).
// `--no-screen` disables the LP-relaxation front-end (the screen that can
// answer UNSAT without an SMT solve in verify mode, and the graph-seeded
// candidate order in synthesize mode); verdicts are identical either way.
// `--portfolio N` verifies through an N-thread portfolio instead of one
// solver; `--portfolio-mode race|cube` picks racing clones or
// cube-and-conquer. Verdicts are identical across every mode. A malformed
// count (anything but a whole number in 0..4096) is a usage error (exit 2).
// Scenario files live in data/ (see data/README for the format).
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cli_args.h"
#include "core/attack_model.h"
#include "core/scenario.h"
#include "core/synthesis.h"
#include "obs/trace.h"
#include "runtime/portfolio.h"
#include "screen/lp_screen.h"

using namespace psse;

int main(int argc, char** argv) {
  std::string trace_path;
  std::size_t portfolio = 0;
  bool portfolio_cube = false;
  bool screen = true;
  {
    std::vector<char*> args(argv, argv + argc);
    auto take_value = [&](std::size_t i, std::string& out) {
      if (i + 1 >= args.size()) return false;
      out = args[i + 1];
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      return true;
    };
    for (std::size_t i = 1; i < args.size();) {
      if (std::strcmp(args[i], "--no-screen") == 0) {
        screen = false;
        args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (std::strcmp(args[i], "--trace") == 0 &&
                 i + 1 < args.size()) {
        if (!take_value(i, trace_path)) ++i;
      } else if (std::strcmp(args[i], "--portfolio") == 0 &&
                 i + 1 < args.size()) {
        std::string v;
        if (!take_value(i, v)) {
          ++i;
        } else if (!cli::parse_count(v, portfolio)) {
          std::fprintf(stderr,
                       "error: --portfolio takes a whole number in 0..%zu\n",
                       cli::kMaxCount);
          return 2;
        }
      } else if (std::strcmp(args[i], "--portfolio-mode") == 0 &&
                 i + 1 < args.size()) {
        std::string v;
        if (!take_value(i, v)) {
          ++i;
        } else if (v == "cube") {
          portfolio_cube = true;
        } else if (v != "race") {
          std::fprintf(stderr,
                       "error: --portfolio-mode must be race or cube\n");
          return 2;
        }
      } else {
        ++i;
      }
    }
    argc = static_cast<int>(args.size());
    for (std::size_t i = 0; i < args.size(); ++i) argv[i] = args[i];
  }
  if (argc != 3) {
    std::fprintf(stderr,
                 "usage: %s verify|synthesize|print <scenario-file> "
                 "[--trace FILE] [--no-screen] [--portfolio N] "
                 "[--portfolio-mode race|cube]\n",
                 argv[0]);
    return 2;
  }
  const std::string mode = argv[1];
  core::Scenario sc;
  try {
    sc = core::Scenario::load(argv[2]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  if (mode == "print") {
    std::printf("%s", sc.to_string().c_str());
    return 0;
  }

  std::unique_ptr<obs::TraceSink> sink;
  if (!trace_path.empty()) {
    try {
      sink = obs::TraceSink::open(trace_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  const obs::Config trace{sink.get()};

  core::UfdiAttackModel model(sc.grid, sc.plan, sc.spec);
  model.set_trace(trace);
  if (mode == "verify") {
    if (screen) {
      // LP-relaxation front-end: a provably infeasible relaxation means no
      // attack exists under ANY resource caps, so the SMT solve is skipped
      // outright. Anything else (feasible, inconclusive, or a scenario the
      // screen cannot model) falls through to the full verification.
      try {
        screen::LpScreen lp(sc.grid, sc.plan, sc.spec);
        const screen::ScreenResult sr =
            lp.screen(core::ScenarioDelta::of(sc.spec));
        if (sr.verdict == screen::ScreenVerdict::kInfeasible) {
          std::printf(
              "UNSAT: no attack satisfies the scenario "
              "(LP screen, %.3fs)\n",
              sr.seconds);
          return 0;
        }
      } catch (const std::exception&) {
        // Not screenable -> verify normally.
      }
    }
    core::VerificationResult r;
    if (portfolio > 0) {
      runtime::PortfolioOptions popts;
      popts.num_threads = portfolio;
      popts.trace = trace;
      popts.mode = portfolio_cube ? runtime::PortfolioMode::kCubeAndConquer
                                  : runtime::PortfolioMode::kRace;
      runtime::PortfolioResult port = runtime::verify_portfolio(model, popts);
      r = std::move(port.verification);
      r.seconds = port.seconds;
    } else {
      r = model.verify();
    }
    switch (r.result) {
      case smt::SolveResult::Sat:
        std::printf("SAT: an undetected attack exists (%.3fs)\n%s",
                    r.seconds, r.attack->summary().c_str());
        return 0;
      case smt::SolveResult::Unsat:
        std::printf("UNSAT: no attack satisfies the scenario (%.3fs)\n",
                    r.seconds);
        return 0;
      default:
        std::printf("UNKNOWN: budget exhausted\n");
        return 3;
    }
  }
  if (mode == "synthesize") {
    core::SynthesisOptions opt = sc.synthesis;
    if (opt.max_secured_buses == 0) {
      opt.max_secured_buses = sc.grid.num_buses();
    }
    opt.trace = trace;
    opt.graph_seeding = screen;
    core::SecurityArchitectureSynthesizer syn(model, opt);
    core::SynthesisResult r = syn.synthesize();
    switch (r.status) {
      case core::SynthesisResult::Status::Found: {
        std::printf("architecture found in %.2fs after %d candidates:\n"
                    "secure buses:",
                    r.seconds, r.candidates_tried);
        for (grid::BusId b : r.secured_buses) std::printf(" %d", b + 1);
        std::printf("\n");
        return 0;
      }
      case core::SynthesisResult::Status::NoArchitecture:
        std::printf("no architecture within budget %d (%.2fs, %d "
                    "candidates)\n",
                    opt.max_secured_buses, r.seconds, r.candidates_tried);
        return 0;
      default:
        std::printf("timeout\n");
        return 3;
    }
  }
  std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
  return 2;
}
