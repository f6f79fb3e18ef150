// perfbench: the repository's seeded end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --manifest <manifest.tsv> --out <dir>
//   perfbench --write-manifest <manifest.tsv>
//
// Prints one JSON line describing the run ({"info": ...}) and, as the last
// line, {"correct", "attempted", "failed", "metrics"}; a failed answer
// check shows as "correct": false. Exits 1 without a result when set-up
// fails or the speed probe cannot be trusted, 2 on usage errors. perfbench/run.py
// builds this binary and is the command BENCHMARK.json names.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "make_manifest.h"
#include "obs/json_writer.h"
#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --manifest <path> --out <dir>\n"
               "       perfbench --write-manifest <path>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  o.nproc = std::max(1U, std::thread::hardware_concurrency());
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
        return argv[++i];
      };
      if (a == "--write-manifest") {
        return perfbench::write_manifest_main(value());
      } else if (a == "--workload") {
        o.workload = value();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        o.trace = value() != "0";
      } else if (a == "--manifest") {
        o.manifest = value();
      } else if (a == "--out") {
        o.out_dir = value();
      } else {
        throw std::invalid_argument("unknown argument " + a);
      }
    }
    if (o.workload.empty() || o.manifest.empty() || o.out_dir.empty() ||
        !(o.seconds > 0)) {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return usage();
  }

  perfbench::RunResult r;
  try {
    r = perfbench::run_workload(o);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
    return 1;
  }

  psse::obs::JsonWriter metrics;
  for (const auto& [name, m] : r.metrics) {
    psse::obs::JsonWriter one;
    char v[40];
    std::snprintf(v, sizeof v, "%.17g", m.value);
    one.field_raw("value", v).field("unit", m.unit);
    metrics.field_raw(name, one.str());
  }
  psse::obs::JsonWriter info;
  info.field_raw("info", r.info);
  std::printf("%s\n", info.str().c_str());
  psse::obs::JsonWriter out;
  out.field("correct", r.correct)
      .field("attempted", r.attempted)
      .field("failed", r.failed)
      .field_raw("metrics", metrics.str());
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  return 0;
}
