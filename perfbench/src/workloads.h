#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  /// false: the end-to-end metrics; true: a run split into an untraced and
  /// a traced replay of the same operations, reporting per-layer metrics.
  bool trace = false;
  std::string manifest;
  /// Directory the span file goes to (traced runs).
  std::string out_dir;
  /// Cube-and-conquer workers: the core count.
  unsigned nproc = 1;
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// One JSON object describing the run (seed, nproc, build type, counts,
  /// tail percentile, layer self times).
  std::string info;
};

/// Runs one named workload; throws std::invalid_argument on an unknown
/// name and std::runtime_error when set-up fails.
[[nodiscard]] RunResult run_workload(const RunOptions& options);

}  // namespace perfbench
