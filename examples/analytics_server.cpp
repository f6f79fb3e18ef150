// analytics_server: the attack-analytics service behind a line-oriented
// JSON protocol on stdin/stdout (DESIGN.md §6f).
//
//   analytics_server [--threads N] [--max-sessions K] [--memo N]
//                    [--time-limit S] [--portfolio-mode race|cube]
//                    [--trace FILE] [--stats-json]
//
// Each input line is one request (see service/json_protocol.h):
//
//   {"op":"verify","id":"q1","scenario_file":"data/ieee14_objective2.scn"}
//   {"op":"sweep","id":"s1","scenario_file":"data/ieee57_verification.scn",
//    "axis":"max-measurements","values":[4,8,12,16,20]}
//   {"op":"stats"}
//
// Responses come back one JSON line each, in *request order* (a printer
// thread joins futures FIFO), while solves themselves run concurrently on
// the service pool — so a cheap memoised query still waits for its turn on
// stdout but never for a solver. EOF drains everything in flight; with
// --stats-json a final service-stats line (p50/p95/p99 latencies, session
// and memo hit rates) follows the last response, and with --trace FILE the
// service journals per-request "service_request" events plus a closing
// "service_stats" event. --portfolio-mode cube switches every portfolio
// verify request to cube-and-conquer, letting clients written against the
// racing default be rerun under splitting without edits (a request that
// already asked for "portfolio_mode":"cube" is unaffected; verdicts are
// identical in either mode). A malformed count (anything but a whole
// number up to 4096) is a usage error (exit 2).
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <future>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "cli_args.h"
#include "obs/trace.h"
#include "service/analytics_service.h"
#include "service/json_protocol.h"

using namespace psse;

namespace {

struct Config {
  std::size_t threads = 4;
  std::size_t max_sessions = 32;
  std::size_t memo = 4096;
  double time_limit_seconds = 0;
  std::string trace_path;
  bool stats_json = false;
  bool screen = true;  // LP-relaxation screen in front of each solve
  bool portfolio_cube = false;  // force cube mode on portfolio requests
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--threads N] [--max-sessions K] [--memo N] "
               "[--time-limit S] [--portfolio-mode race|cube] "
               "[--trace FILE] [--stats-json] [--no-screen]\n",
               argv0);
  return 2;
}

/// FIFO of deferred response renderers: the reader thread enqueues one
/// renderer per expected output line, the printer thread runs them in
/// order. Renderers that wait on a future block only the printer, never
/// the reader, so request intake keeps ahead of solving.
class ResponsePrinter {
 public:
  void enqueue(std::function<std::string()> render) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(render));
    }
    cv_.notify_one();
  }

  void run() {
    while (true) {
      std::function<std::string()> render;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return done_ || !queue_.empty(); });
        if (queue_.empty()) return;
        render = std::move(queue_.front());
        queue_.pop_front();
      }
      const std::string line = render();
      std::fputs(line.c_str(), stdout);
      std::fputc('\n', stdout);
      std::fflush(stdout);
    }
  }

  void finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<std::string()>> queue_;
  bool done_ = false;
};

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto num = [&](std::size_t& out) {
      return i + 1 < argc && cli::parse_count(argv[++i], out);
    };
    if (arg == "--threads") {
      if (!num(cfg.threads) || cfg.threads == 0) return usage(argv[0]);
    } else if (arg == "--max-sessions") {
      if (!num(cfg.max_sessions) || cfg.max_sessions == 0) {
        return usage(argv[0]);
      }
    } else if (arg == "--memo") {
      if (!num(cfg.memo)) return usage(argv[0]);
    } else if (arg == "--time-limit") {
      if (i + 1 >= argc) return usage(argv[0]);
      cfg.time_limit_seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--portfolio-mode") {
      if (i + 1 >= argc) return usage(argv[0]);
      const std::string mode = argv[++i];
      if (mode == "cube") {
        cfg.portfolio_cube = true;
      } else if (mode != "race") {
        return usage(argv[0]);
      }
    } else if (arg == "--trace") {
      if (i + 1 >= argc) return usage(argv[0]);
      cfg.trace_path = argv[++i];
    } else if (arg == "--stats-json") {
      cfg.stats_json = true;
    } else if (arg == "--no-screen") {
      cfg.screen = false;
    } else {
      return usage(argv[0]);
    }
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
  options.max_sessions = cfg.max_sessions;
  options.memo_capacity = cfg.memo;
  options.default_time_limit_seconds = cfg.time_limit_seconds;
  options.screen = cfg.screen;
  options.trace = obs::Config{sink.get()};
  service::AnalyticsService svc(options);

  ResponsePrinter printer;
  std::thread printerThread([&] { printer.run(); });

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      service::ParsedRequest req = service::parse_request(line);
      switch (req.op) {
        case service::ParsedRequest::Op::kStats:
          // Runs at print time, i.e. after every earlier response has been
          // rendered — the snapshot covers all preceding requests.
          printer.enqueue(
              [&svc] { return service::encode_stats(svc.stats()); });
          break;
        case service::ParsedRequest::Op::kVerify: {
          if (cfg.portfolio_cube) req.verify.portfolio_cube = true;
          std::shared_future<service::ServiceResponse> fut =
              svc.submit(std::move(req.verify)).share();
          printer.enqueue(
              [fut] { return service::encode_response(fut.get()); });
          break;
        }
        case service::ParsedRequest::Op::kSweep: {
          for (std::future<service::ServiceResponse>& f :
               svc.submit_sweep(req.sweep)) {
            std::shared_future<service::ServiceResponse> fut = f.share();
            printer.enqueue(
                [fut] { return service::encode_response(fut.get()); });
          }
          break;
        }
      }
    } catch (const std::exception& e) {
      const std::string message = e.what();
      printer.enqueue(
          [message] { return service::encode_error("", message); });
    }
  }

  printer.finish();
  printerThread.join();
  if (cfg.stats_json) {
    std::fputs(service::encode_stats(svc.stats()).c_str(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
  }
  svc.emit_stats();
  return 0;
}
