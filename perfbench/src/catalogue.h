// The benchmark's scenario catalogue and expected-verdict manifest.
//
// Every scenario a workload can run is one line of perfbench/manifest.tsv:
// the parameters that rebuild it (grid, plan share and seed, target, caps)
// plus the verdict plain serial verify()/synthesize() gave for it when the
// manifest was written (`perfbench --write-manifest`). A run's --seed draws
// its sample and order from this catalogue, so every UNSAT or
// NoArchitecture answer a run can meet has a manifest entry to match.
// SAT witnesses are additionally replayed (see workloads.cpp).
//
// A line also carries a hash of the rebuilt scenario, so a change to how
// grids or plans are generated is caught at set-up instead of silently
// checking answers against the verdicts of different scenarios.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/attack_spec.h"
#include "core/synthesis.h"
#include "grid/grid.h"
#include "grid/measurement.h"
#include "service/request.h"

namespace perfbench {

using namespace psse;

/// One manifest line. Fields a kind does not use hold 0 / empty.
struct Entry {
  std::string kind;   // oneshot | sweep | synth | refute
  std::string grid;   // ieee57 | ieee118 | ieee300
  int pct = 100;      // share of potential measurements taken
  std::uint64_t plan_seed = 0;
  int target = -1;    // 0-based bus; -1 = untargeted
  int tcz = 0;        // T_CZ, 0 = unlimited
  std::string klass;  // stratum within the kind (see workloads.cpp)
  int param = 0;      // sweep: poisoned line; synth: bus budget
  std::vector<int> values;  // sweep axis values (1-based ids or caps)
  /// Expected outcome: S/U per verify or sweep point, F (architecture
  /// found) / N (NoArchitecture) per synthesis job.
  std::string expected;
  double ms = 0;      // serial time when the manifest was written
  std::uint64_t hash = 0;

  /// Stratum key: workloads sample evenly across strata.
  [[nodiscard]] std::string stratum() const { return grid + "/" + klass; }
};

[[nodiscard]] std::vector<Entry> read_manifest(const std::string& path);
void write_manifest(const std::string& path, const std::vector<Entry>& es);

/// FNV-1a over the grid's lines, the plan's attribute bits and the spec's
/// goal and caps: the identity the manifest's verdicts were computed for.
[[nodiscard]] std::uint64_t scenario_hash(const grid::Grid& g,
                                          const grid::MeasurementPlan& p,
                                          const core::AttackSpec& spec);

/// Deterministic 64-bit generator (splitmix64): identical draws on every
/// standard library, unlike the std:: distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [0, n).
  int below(int n) {
    return static_cast<int>(next() % static_cast<std::uint64_t>(n));
  }

 private:
  std::uint64_t s_;
};

/// Grids and plans shared by the scenarios of one set-up. Loads each named
/// grid once and each (grid, share, seed) plan once.
class World {
 public:
  const grid::Grid& grid(const std::string& name);
  /// Observable plan with `pct`% of potential measurements taken.
  const grid::MeasurementPlan& plan(const std::string& gridName, int pct,
                                    std::uint64_t seed);
  /// Milliseconds spent in grid::cases::by_name.
  [[nodiscard]] double grid_load_ms() const { return grid_load_ms_; }

 private:
  std::map<std::string, std::unique_ptr<grid::Grid>> grids_;
  std::map<std::string, std::unique_ptr<grid::MeasurementPlan>> plans_;
  double grid_load_ms_ = 0;
};

/// A rebuilt one-shot or refutation query.
struct Query {
  const Entry* entry = nullptr;
  const grid::Grid* grid = nullptr;
  const grid::MeasurementPlan* plan = nullptr;
  core::AttackSpec spec;
};

/// A rebuilt synthesis job: the adversary the architecture must resist and
/// the synthesiser's options.
struct Job {
  const Entry* entry = nullptr;
  const grid::Grid* grid = nullptr;
  const grid::MeasurementPlan* plan = nullptr;
  core::AttackSpec spec;
  core::SynthesisOptions options;
};

/// A rebuilt sweep: the request the service receives. service::
/// expand_sweep gives each point's scenario for a cold serial verify().
struct Sweep {
  const Entry* entry = nullptr;
  service::SweepRequest request;
};

[[nodiscard]] Query build_query(World& w, const Entry& e);
[[nodiscard]] Job build_job(World& w, const Entry& e);
[[nodiscard]] Sweep build_sweep(World& w, const Entry& e);

/// The hash a rebuilt entry must match.
[[nodiscard]] std::uint64_t entry_hash(World& w, const Entry& e);

}  // namespace perfbench
