// portfolio_scaling: portfolio verification speedup vs. member count.
//
// For every scenario file in the data directory (data/*.scn, in name
// order), runs the serial verify() baseline and then one racing portfolio
// per member count: 1, 2, 4 and 8 members (or the --threads list), drawn
// from runtime::default_portfolio's ladder. Speedup is serial_ms /
// portfolio_ms for the same scenario. Every row solves a freshly encoded
// model: portfolio clones copy their source's state, so racing the model
// the serial row already solved would start from its learnt clauses.
// Because all members are sound and complete, the verdict column must be
// constant down each scenario's block, a cheap cross-check that racing
// does not change the answer. On a single-core host the speedup measures
// diversification, not parallelism; with real cores the effects combine.
//
// --mode cube switches to the cube-and-conquer comparison instead: for
// all-UNSAT fig4d-style instances (full measurement plan, mid-grid target,
// max_altered_measurements below the 4-measurement floor) on ieee57,
// ieee118, ieee300 and synth1000, it prints what one encode and one clone
// (a copy of the encoded model) cost, then runs the serial baseline, an
// 8-member racing portfolio, and the cube-and-conquer portfolio once per
// --threads entry (default 8; e.g. --threads 1,2,4 for the worker curve;
// conquer never runs more workers than hardware threads). Racing cannot
// beat serial on UNSAT — every member must re-refute the whole space, so
// the race finishes with the single fastest member — while cubes
// partition the space into disjoint subproblems whose refutations run
// (and finish) in parallel. The verdict column must still be constant
// down each block. A cube row's `decided` column says what answered:
// `cubes` (the cube tree), `burn-in` (the split's burn-in on its own) or
// the label of the ladder member that won the burn-in race. --only NAME
// restricts the run to one system.
//
// --json adds one machine-readable line per row (BENCH_smt.json keeps the
// before/after baseline).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/scenario.h"
#include "grid/synthetic.h"
#include "runtime/portfolio.h"

using namespace psse;

namespace {

/// What answered a cube-and-conquer call: the cube tree, the burn-in on
/// its own, or the deciding member's label (a burn-in racer, or a member
/// of the race fallback); "-" when nothing did.
std::string decided_by(const runtime::PortfolioResult& pr) {
  if (pr.cubes_generated > 0) return "cubes";
  if (pr.winner >= 0) {
    return pr.members[static_cast<std::size_t>(pr.winner)].label;
  }
  return pr.result() == smt::SolveResult::Unknown ? "-" : "burn-in";
}

const char* verdict_name(smt::SolveResult r) {
  switch (r) {
    case smt::SolveResult::Sat:
      return "SAT";
    case smt::SolveResult::Unsat:
      return "UNSAT";
    default:
      return "UNKNOWN";
  }
}

constexpr double kTimeLimitSeconds = 300;

smt::Budget bench_budget() {
  smt::Budget b;
  b.max_time = std::chrono::milliseconds(
      static_cast<long>(kTimeLimitSeconds * 1000));
  return b;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// The cube-and-conquer comparison: all-UNSAT instances where racing is
/// structurally pointless and partitioning is the only parallel win.
int run_cube_mode(bool json, const obs::Config& trace,
                  const std::string& only,
                  const std::vector<std::size_t>& threadCounts) {
  bench::header("Cube-and-conquer vs racing on UNSAT verification",
                "racing repeats one refutation per member; cubes split the "
                "space so the refutation itself parallelises");
  std::printf("%-12s %-10s %10s %8s %8s %6s %-14s\n", "system", "mode",
              "ms", "speedup", "verdict", "cubes", "decided");

  for (const char* name : {"ieee57", "ieee118", "ieee300", "synth1000"}) {
    if (!only.empty() && only != name) continue;
    grid::Grid g = std::strncmp(name, "synth", 5) == 0
                       ? grid::cases::synthetic_by_name(name)
                       : grid::cases::by_name(name);
    grid::MeasurementPlan plan(g.num_lines(), g.num_buses());
    core::AttackSpec spec;
    spec.target_states = {g.num_buses() / 2};
    spec.max_altered_measurements = 3;  // below the 4-measurement floor

    // Every row gets its own fresh model (see the file comment); the
    // first one also prices an encode against a clone.
    const auto t0 = std::chrono::steady_clock::now();
    core::UfdiAttackModel model(g, plan, spec);
    const double encodeMs = ms_since(t0);
    const auto t1 = std::chrono::steady_clock::now();
    const std::unique_ptr<core::UfdiAttackModel> copy = model.clone();
    const double cloneMs = ms_since(t1);
    std::printf("%-12s encode %.2f ms, clone %.2f ms\n", name, encodeMs,
                cloneMs);
    bench::JsonLine(json, "portfolio_cube", name)
        .field("mode", "setup")
        .field("encode_ms", encodeMs)
        .field("clone_ms", cloneMs)
        .emit();

    core::VerificationResult serial = model.verify(bench_budget());
    const double serialMs = serial.seconds * 1000.0;
    std::printf("%-12s %-10s %10.1f %8.2f %8s %6s %-14s\n", name, "serial",
                serialMs, 1.0, verdict_name(serial.result), "-", "serial");
    std::fflush(stdout);
    bench::JsonLine(json, "portfolio_cube", name)
        .field("mode", "serial")
        .field("threads", std::uint64_t{0})
        .field("ms", serialMs)
        .field("speedup", 1.0)
        .field("verdict", verdict_name(serial.result))
        .emit();

    double raceMs = 0;
    {
      const core::UfdiAttackModel fresh(g, plan, spec);
      runtime::PortfolioOptions popt;
      popt.num_threads = 8;
      popt.budget = bench_budget();
      runtime::PortfolioResult pr = runtime::verify_portfolio(fresh, popt);
      raceMs = pr.seconds * 1000.0;
      std::printf("%-12s %-10s %10.1f %8.2f %8s %6s %-14s\n", name, "race",
                  raceMs, raceMs > 0 ? serialMs / raceMs : 0.0,
                  verdict_name(pr.result()), "-", "none");
      std::fflush(stdout);
      bench::JsonLine(json, "portfolio_cube", name)
          .field("mode", "race")
          .field("threads", std::uint64_t{8})
          .field("ms", raceMs)
          .field("speedup", raceMs > 0 ? serialMs / raceMs : 0.0)
          .field("verdict", verdict_name(pr.result()))
          .emit();
    }

    for (std::size_t threads : threadCounts) {
      const core::UfdiAttackModel fresh(g, plan, spec);
      runtime::PortfolioOptions popt;
      popt.num_threads = threads;
      popt.budget = bench_budget();
      popt.mode = runtime::PortfolioMode::kCubeAndConquer;
      popt.trace = trace;
      runtime::PortfolioResult pr = runtime::verify_portfolio(fresh, popt);
      const double ms = pr.seconds * 1000.0;
      char cubes[32];
      std::snprintf(cubes, sizeof cubes, "%llu/%llu",
                    static_cast<unsigned long long>(pr.cubes_refuted),
                    static_cast<unsigned long long>(pr.cubes_generated));
      char mode[16];
      std::snprintf(mode, sizeof mode, "cube-%zu", threads);
      const std::string decided = decided_by(pr);
      std::printf("%-12s %-10s %10.1f %8.2f %8s %6s %-14s vs-race %.2fx\n",
                  name, mode, ms, ms > 0 ? serialMs / ms : 0.0,
                  verdict_name(pr.result()), cubes, decided.c_str(),
                  ms > 0 ? raceMs / ms : 0.0);
      std::fflush(stdout);
      bench::JsonLine(json, "portfolio_cube", name)
          .field("mode", "cube")
          .field("threads", static_cast<std::uint64_t>(threads))
          .field("ms", ms)
          .field("speedup", ms > 0 ? serialMs / ms : 0.0)
          .field("speedup_vs_race", ms > 0 ? raceMs / ms : 0.0)
          .field("cubes_generated", pr.cubes_generated)
          .field("cubes_refuted", pr.cubes_refuted)
          .field("decided", decided)
          .field("verdict", verdict_name(pr.result()))
          .emit();
    }
  }
  return 0;
}

/// Parses a --threads list such as "1,2,4"; empty on a malformed list.
std::vector<std::size_t> parse_counts(const std::string& list) {
  std::vector<std::size_t> counts;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = std::min(list.find(',', pos), list.size());
    const std::string item = list.substr(pos, comma - pos);
    char* end = nullptr;
    const unsigned long n = std::strtoul(item.c_str(), &end, 10);
    if (item.empty() || *end != '\0' || n == 0) return {};
    counts.push_back(static_cast<std::size_t>(n));
    pos = comma + 1;
  }
  return counts;
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = bench::json_enabled(argc, argv);
  auto sink = bench::trace_sink(argc, argv);
  std::string dataDir = PSSE_DATA_DIR;
  std::string only;
  bool cubeMode = false;
  std::vector<std::size_t> threadCounts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--mode" && i + 1 < argc) {
      cubeMode = std::string(argv[++i]) == "cube";
    } else if (arg == "--only" && i + 1 < argc) {
      only = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      threadCounts = parse_counts(argv[++i]);
      if (threadCounts.empty()) {
        std::fprintf(stderr,
                     "error: --threads takes a list of positive counts, "
                     "e.g. 1,2,4\n");
        return 2;
      }
    } else if (arg == "--trace" && i + 1 < argc) {
      ++i;  // consumed by bench::trace_sink
    } else if (arg != "--json") {
      dataDir = arg;
    }
  }
  if (cubeMode) {
    if (threadCounts.empty()) threadCounts = {8};
    return run_cube_mode(json, obs::Config{sink.get()}, only, threadCounts);
  }
  std::vector<std::string> scenarios;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(dataDir, ec)) {
    if (entry.path().extension() == ".scn") {
      scenarios.push_back(entry.path().stem().string());
    }
  }
  if (scenarios.empty()) {
    std::fprintf(stderr, "error: no .scn files in %s\n", dataDir.c_str());
    return 1;
  }
  std::sort(scenarios.begin(), scenarios.end());
  if (threadCounts.empty()) threadCounts = {1, 2, 4, 8};

  bench::header("Portfolio verification scaling",
                "racing diversified members shortens wall time without "
                "changing the verdict");
  std::printf("%-28s %8s %10s %8s %8s %-18s\n", "scenario", "members", "ms",
              "speedup", "verdict", "winner");

  for (const std::string& name : scenarios) {
    core::Scenario sc;
    try {
      sc = core::Scenario::load(dataDir + "/" + name + ".scn");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    core::UfdiAttackModel model(sc.grid, sc.plan, sc.spec);

    core::VerificationResult serial = model.verify(bench_budget());
    const double serialMs = serial.seconds * 1000.0;
    std::printf("%-28s %8s %10.1f %8.2f %8s %-18s\n", name.c_str(), "serial",
                serialMs, 1.0, verdict_name(serial.result), "serial");
    bench::JsonLine(json, "portfolio_scaling", name)
        .field("threads", std::uint64_t{0})
        .field("ms", serialMs)
        .field("speedup", 1.0)
        .field("verdict", verdict_name(serial.result))
        .field("winner", "serial")
        .emit();

    for (std::size_t n : threadCounts) {
      const core::UfdiAttackModel fresh(sc.grid, sc.plan, sc.spec);
      runtime::PortfolioOptions popt;
      popt.num_threads = n;
      popt.budget = bench_budget();
      runtime::PortfolioResult pr = runtime::verify_portfolio(fresh, popt);
      const double ms = pr.seconds * 1000.0;
      const std::string winner =
          pr.winner >= 0 ? pr.members[static_cast<std::size_t>(pr.winner)].label
                         : "none";
      std::printf("%-28s %8zu %10.1f %8.2f %8s %-18s\n", name.c_str(), n, ms,
                  ms > 0 ? serialMs / ms : 0.0, verdict_name(pr.result()),
                  winner.c_str());
      std::fflush(stdout);
      bench::JsonLine(json, "portfolio_scaling", name)
          .field("threads", static_cast<std::uint64_t>(n))
          .field("ms", ms)
          .field("speedup", ms > 0 ? serialMs / ms : 0.0)
          .field("verdict", verdict_name(pr.result()))
          .field("winner", winner)
          .emit();
    }
  }
  return 0;
}
