#include "catalogue.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "estimation/observability.h"
#include "grid/ieee_cases.h"

namespace perfbench {

namespace {

std::vector<int> parse_ints(const std::string& s) {
  std::vector<int> out;
  if (s == "-") return out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(std::stoi(item));
  return out;
}

std::string join_ints(const std::vector<int>& v) {
  if (v.empty()) return "-";
  std::string s;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ',';
    s += std::to_string(v[i]);
  }
  return s;
}

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
};

}  // namespace

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<Entry> read_manifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open manifest " + path);
  std::vector<Entry> out;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::stringstream ss(line);
    Entry e;
    std::string values, hash;
    if (!(ss >> e.kind >> e.grid >> e.pct >> e.plan_seed >> e.target >>
          e.tcz >> e.klass >> e.param >> values >> e.expected >> e.ms >>
          hash)) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) +
                               ": malformed manifest line");
    }
    e.values = parse_ints(values);
    e.hash = std::stoull(hash, nullptr, 16);
    out.push_back(std::move(e));
  }
  return out;
}

void write_manifest(const std::string& path, const std::vector<Entry>& es) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write manifest " + path);
  out << "# kind grid pct plan_seed target tcz class param values expected "
         "ms hash\n"
         "# Written by `perfbench --write-manifest` from plain serial "
         "verify()/synthesize();\n"
         "# see perfbench/src/catalogue.h.\n";
  for (const Entry& e : es) {
    char ms[32];
    std::snprintf(ms, sizeof ms, "%.2f", e.ms);
    char hash[32];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(e.hash));
    out << e.kind << ' ' << e.grid << ' ' << e.pct << ' ' << e.plan_seed
        << ' ' << e.target << ' ' << e.tcz << ' ' << e.klass << ' '
        << e.param << ' ' << join_ints(e.values) << ' ' << e.expected << ' '
        << ms << ' ' << hash << '\n';
  }
}

std::uint64_t scenario_hash(const grid::Grid& g,
                            const grid::MeasurementPlan& p,
                            const core::AttackSpec& spec) {
  Fnv f;
  f.mix(static_cast<std::uint64_t>(g.num_buses()));
  for (const grid::Line& l : g.lines()) {
    f.mix(static_cast<std::uint64_t>(l.from));
    f.mix(static_cast<std::uint64_t>(l.to));
    f.mix(static_cast<std::uint64_t>(l.admittance * 1e6));
    f.mix((l.in_service ? 1U : 0U) | (l.fixed ? 2U : 0U) |
          (l.status_secured ? 4U : 0U));
  }
  for (grid::MeasId m = 0; m < p.num_potential(); ++m) {
    f.mix((p.taken(m) ? 1U : 0U) | (p.secured(m) ? 2U : 0U) |
          (p.accessible(m) ? 4U : 0U));
  }
  for (grid::BusId t : spec.target_states) f.mix(static_cast<std::uint64_t>(t));
  f.mix(static_cast<std::uint64_t>(spec.max_altered_measurements));
  f.mix(static_cast<std::uint64_t>(spec.max_compromised_buses));
  f.mix(spec.require_any_state_attack ? 1U : 0U);
  return f.h;
}

const grid::Grid& World::grid(const std::string& name) {
  auto it = grids_.find(name);
  if (it == grids_.end()) {
    const auto t0 = std::chrono::steady_clock::now();
    auto g = std::make_unique<grid::Grid>(grid::cases::by_name(name));
    grid_load_ms_ += std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    it = grids_.emplace(name, std::move(g)).first;
  }
  return *it->second;
}

const grid::MeasurementPlan& World::plan(const std::string& gridName,
                                         int pct, std::uint64_t seed) {
  const std::string key =
      gridName + "/" + std::to_string(pct) + "/" + std::to_string(seed);
  auto it = plans_.find(key);
  if (it != plans_.end()) return *it->second;
  const grid::Grid& g = grid(gridName);
  auto plan = std::make_unique<grid::MeasurementPlan>(g.num_lines(),
                                                      g.num_buses());
  if (pct < 100) {
    // Re-draw until observable, as the fig4b/fig5b benches do: a blind
    // draw at 80% occasionally leaves the estimate underdetermined.
    bool observable = false;
    for (std::uint64_t attempt = 0; attempt < 50 && !observable; ++attempt) {
      *plan = grid::MeasurementPlan(g.num_lines(), g.num_buses());
      plan->keep_fraction(pct / 100.0, seed + attempt * 1000003);
      observable = est::check_observability(g, *plan).observable;
    }
    if (!observable) {
      throw std::runtime_error("no observable plan for " + key);
    }
  }
  return *plans_.emplace(key, std::move(plan)).first->second;
}

Query build_query(World& w, const Entry& e) {
  Query q;
  q.entry = &e;
  q.grid = &w.grid(e.grid);
  q.plan = &w.plan(e.grid, e.pct, e.plan_seed);
  if (e.target >= 0) q.spec.target_states = {e.target};
  q.spec.max_altered_measurements = e.tcz;
  return q;
}

Job build_job(World& w, const Entry& e) {
  Job j;
  j.entry = &e;
  j.grid = &w.grid(e.grid);
  j.plan = &w.plan(e.grid, e.pct, e.plan_seed);
  if (e.target >= 0) j.spec.target_states = {e.target};
  j.spec.max_altered_measurements = e.tcz;
  // The fig5 setup: the reference bus is always secured, and the budget is
  // either the whole grid or (fig5d) a size below the minimum architecture.
  j.options.must_secure = {0};
  j.options.max_secured_buses = e.param > 0 ? e.param : j.grid->num_buses();
  j.options.time_limit_seconds = 120;
  return j;
}

Sweep build_sweep(World& w, const Entry& e) {
  Sweep s;
  s.entry = &e;
  service::SweepRequest& r = s.request;
  r.id = e.klass;
  core::Scenario& sc = r.scenario;
  sc.case_name = e.grid;
  sc.grid = w.grid(e.grid);
  sc.plan = w.plan(e.grid, e.pct, e.plan_seed);
  if (e.target >= 0) sc.spec.target_states = {e.target};
  sc.spec.max_altered_measurements = e.tcz;
  r.values.assign(e.values.begin(), e.values.end());
  if (e.klass == "tcz") {
    r.axis = service::SweepAxis::kMaxMeasurements;
  } else if (e.klass == "bus") {
    r.axis = service::SweepAxis::kSecureBus;
  } else if (e.klass == "meas") {
    r.axis = service::SweepAxis::kSecureMeasurement;
  } else if (e.klass == "poison") {
    // bench/screen_sweep's family: every taken meter secured except the
    // two flow meters of one line. The rest still pins the whole estimate,
    // so every cap is UNSAT and the LP screen can prove it.
    r.axis = service::SweepAxis::kMaxMeasurements;
    for (grid::MeasId m = 0; m < sc.plan.num_potential(); ++m) {
      if (sc.plan.taken(m)) sc.plan.set_secured(m, true);
    }
    sc.plan.set_secured(sc.plan.forward_flow(e.param), false);
    sc.plan.set_secured(sc.plan.backward_flow(e.param), false);
  } else {
    throw std::runtime_error("unknown sweep class " + e.klass);
  }
  return s;
}

std::uint64_t entry_hash(World& w, const Entry& e) {
  Fnv f;
  if (e.kind == "sweep") {
    const Sweep s = build_sweep(w, e);
    f.h = scenario_hash(s.request.scenario.grid, s.request.scenario.plan,
                        s.request.scenario.spec);
    f.mix(static_cast<std::uint64_t>(s.request.axis));
  } else if (e.kind == "synth") {
    const Job j = build_job(w, e);
    f.h = scenario_hash(*j.grid, *j.plan, j.spec);
    f.mix(static_cast<std::uint64_t>(j.options.max_secured_buses));
  } else {
    const Query q = build_query(w, e);
    f.h = scenario_hash(*q.grid, *q.plan, q.spec);
  }
  for (int v : e.values) f.mix(static_cast<std::uint64_t>(v));
  return f.h;
}

}  // namespace perfbench
