// batch_runner: fan a directory of scenario files across the analytics
// service.
//
//   batch_runner [--threads N] [--portfolio M] [--portfolio-mode race|cube]
//                [--time-limit S] [--trace FILE] <dir>
//
// Every `.scn` file under <dir> (sorted, non-recursive) becomes one
// service request; each prints exactly one JSON line to stdout, in file
// order, so the output is directly `jq`-able:
//
//   {"scenario":"ieee14_verification","verdict":"SAT","seconds":0.012,
//    "decisions":1201,"conflicts":54,"pivots":3310,
//    "fingerprint":"91c5ad3e2f08b1d4"}
//
// Routing through service::AnalyticsService means scenarios sharing a
// family (same grid/plan/base spec, different resource caps or secured
// sets) reuse one warm solver session, and repeated scenarios answer from
// the result memo. With --portfolio M each request races an M-member
// diversified portfolio (runtime::verify_portfolio) on fresh clones
// instead, and the line additionally reports the winning configuration;
// --portfolio-mode cube splits each instance with cube-and-conquer rather
// than racing full copies (verdicts are identical either way).
// With --trace FILE the service journals one "service_request" event per
// scenario plus a closing "service_stats" event to FILE.
//
// Scenarios that fail to parse or solve produce an "error" line instead of
// aborting the batch; the exit status is 1 when *any* line carried an
// error, so CI pipelines fail loudly instead of trusting a half-empty
// batch. A malformed count (anything but a whole number in 1..4096) is a
// usage error (exit 2).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cli_args.h"
#include "core/scenario.h"
#include "obs/json_writer.h"
#include "obs/trace.h"
#include "service/analytics_service.h"

using namespace psse;

namespace {

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

struct Config {
  std::size_t threads = 4;
  std::size_t portfolio = 0;  // 0 = warm single-session verify per scenario
  bool portfolio_cube = false;  // cube-and-conquer instead of racing
  double time_limit_seconds = 0;
  std::string trace_path;
  std::string dir;
  bool screen = true;  // LP-relaxation screen in front of each solve
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--threads N] [--portfolio M] "
               "[--portfolio-mode race|cube] [--time-limit S] "
               "[--trace FILE] [--no-screen] <scenario-dir>\n",
               argv0);
  return 2;
}

std::string fp_hex(std::uint64_t fp) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto num = [&](std::size_t& out) {
      return i + 1 < argc && cli::parse_count(argv[++i], out) && out > 0;
    };
    if (arg == "--threads") {
      if (!num(cfg.threads)) return usage(argv[0]);
    } else if (arg == "--portfolio") {
      if (!num(cfg.portfolio)) return usage(argv[0]);
    } else if (arg == "--portfolio-mode") {
      if (i + 1 >= argc) return usage(argv[0]);
      const std::string mode = argv[++i];
      if (mode == "cube") {
        cfg.portfolio_cube = true;
      } else if (mode != "race") {
        return usage(argv[0]);
      }
    } else if (arg == "--time-limit") {
      if (i + 1 >= argc) return usage(argv[0]);
      cfg.time_limit_seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      if (i + 1 >= argc) return usage(argv[0]);
      cfg.trace_path = argv[++i];
    } else if (arg == "--no-screen") {
      cfg.screen = false;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else if (cfg.dir.empty()) {
      cfg.dir = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (cfg.dir.empty()) return usage(argv[0]);

  std::vector<std::filesystem::path> files;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(cfg.dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".scn") {
      files.push_back(entry.path());
    }
  }
  if (ec) {
    std::fprintf(stderr, "error: cannot read directory %s: %s\n",
                 cfg.dir.c_str(), ec.message().c_str());
    return 1;
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::fprintf(stderr, "error: no .scn files in %s\n", cfg.dir.c_str());
    return 1;
  }

  std::unique_ptr<obs::TraceSink> sink;
  if (!cfg.trace_path.empty()) {
    try {
      sink = obs::TraceSink::open(cfg.trace_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  service::ServiceOptions options;
  options.threads = cfg.threads;
  options.default_time_limit_seconds = cfg.time_limit_seconds;
  options.screen = cfg.screen;
  options.trace = obs::Config{sink.get()};
  service::AnalyticsService svc(options);

  // Load + submit everything first (parse failures become error lines with
  // no service round-trip), then print responses in file order.
  struct Job {
    std::string name;
    std::string parse_error;
    std::future<service::ServiceResponse> response;
  };
  std::vector<Job> jobs;
  jobs.reserve(files.size());
  for (const std::filesystem::path& path : files) {
    Job job;
    job.name = path.stem().string();
    try {
      service::ServiceRequest req;
      req.id = job.name;
      req.scenario = core::Scenario::load(path.string());
      req.time_limit_seconds = cfg.time_limit_seconds;
      req.portfolio = cfg.portfolio;
      req.portfolio_cube = cfg.portfolio_cube;
      job.response = svc.submit(std::move(req));
    } catch (const std::exception& e) {
      job.parse_error = e.what();
    }
    jobs.push_back(std::move(job));
  }

  bool anyError = false;
  for (Job& job : jobs) {
    obs::JsonWriter w;
    w.field("scenario", job.name);
    if (!job.parse_error.empty()) {
      w.field("error", std::string_view(job.parse_error));
      anyError = true;
    } else {
      const service::ServiceResponse r = job.response.get();
      if (!r.ok()) {
        w.field("error", std::string_view(r.error));
        anyError = true;
      } else {
        w.field("verdict", verdict_name(r.verdict));
        w.field("seconds", r.solve_seconds);
        if (r.screened) w.field("screened", true);
        w.field("decisions", r.decisions);
        w.field("conflicts", r.conflicts);
        w.field("pivots", r.pivots);
        if (!r.winner.empty()) w.field("winner", r.winner);
        w.field("fingerprint", fp_hex(r.fingerprint));
      }
    }
    std::puts(w.str().c_str());
  }
  svc.emit_stats();
  return anyError ? 1 : 0;
}
