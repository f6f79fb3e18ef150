// The four workloads, their answer checks and their metrics.
//
// Each workload is a closed loop over scenarios drawn from the catalogue
// (catalogue.h) by a seeded stratified sampler: every round takes a fixed
// number of entries from each stratum, so runs on different seeds see
// different scenarios in the same proportions. Operations are timed from
// request to verdict; answer checks run after the measured loop and are
// timed separately (estimation.replay_ms), so they never inflate latency.
//
// A traced run (--trace 1) spends half its time on an untraced loop, then
// replays exactly the same operations with spans on (spans.h) and reports
// the per-layer metrics from the replay plus the replay's wall time
// against the untraced one (obs.trace_overhead_frac).
#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "catalogue.h"
#include "core/attack_model.h"
#include "core/attack_vector.h"
#include "core/synthesis.h"
#include "obs/json_writer.h"
#include "runtime/cube.h"
#include "runtime/portfolio.h"
#include "service/analytics_service.h"
#include "spans.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Set-up is repeated this many times per run and its median reported.
constexpr int kSetupReps = 5;
/// Per-solve wall-clock budget; an operation that exhausts it fails.
constexpr double kBudgetSeconds = 60;
/// Every kRepeatEvery-th sweep is an exact repeat of one of kHotSweeps
/// sweeps, submitted with the result memo on.
constexpr int kRepeatEvery = 5;
constexpr int kHotSweeps = 4;
/// service_sweeps' cold serial baseline: the points of this many ieee300
/// poisoning sweeps, one point after every kColdEvery-th sweep.
constexpr int kColdSweeps = 12;
constexpr std::uint64_t kColdEvery = 4;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// A measured time and the moment halfway through it, where the probe's
/// speed is read for it.
struct Timed {
  double ms;
  Clock::time_point mid;
};

Timed timed_since(Clock::time_point t0) {
  const Clock::time_point t1 = Clock::now();
  return {ms_between(t0, t1), t0 + (t1 - t0) / 2};
}

smt::Budget budget() {
  smt::Budget b;
  b.max_time = std::chrono::milliseconds(
      static_cast<long>(kBudgetSeconds * 1000));
  return b;
}

/// Linear-interpolated percentile (numpy's default), p in [0, 100].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// The workload's stated tail percentile, lowered to the highest of
/// 99/95/90/75/67/60/50 that still leaves ten samples beyond it when a run
/// collected too few.
double tail_pct(std::size_t n, double wanted) {
  for (double p : {99.0, 95.0, 90.0, 75.0, 67.0, 60.0, 50.0}) {
    if (p > wanted) continue;
    if (static_cast<double>(n) * (1 - p / 100.0) >= 10) return p;
  }
  return 50.0;
}

double cpu_ms(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Pins the calling thread, and every thread it starts later, to the core
/// it runs on now.
void pin_to_current_core() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct WorkloadSpec {
  const char* name;
  const char* kind;  // manifest kind it draws from
  double tail_pct;
  /// Entries per round from each stratum (grid/class); absent = 1.
  std::map<std::string, int> weights;
};

// Why each workload exists is recorded in BENCHMARK.json; the weights keep
// the layer each one is meant to stress doing most of the work.
const WorkloadSpec kWorkloads[] = {
    // Two easy queries per grid for each near-threshold one: encoding sets
    // the median, SMT search on the near-threshold refutations the tail.
    {"verify_oneshot",
     "oneshot",
     90,
     {{"ieee57/open", 2},
      {"ieee57/witness", 2},
      {"ieee118/open", 2},
      {"ieee118/witness", 2},
      {"ieee300/open", 2},
      {"ieee300/witness", 2}}},
    {"service_sweeps", "sweep", 90, {{"ieee300/poison", 2}}},
    {"synthesis", "synth", 90, {}},
    // A refutation plus its serial baseline takes ~0.45 s, so a run
    // collects ~50: p75 keeps ten samples beyond it.
    {"unsat_refute", "refute", 75, {}},
};

const WorkloadSpec& workload_spec(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// Seeded stratified draw over entry indices: each round takes weight(s)
/// entries from every stratum s, cycling through a seeded shuffle of the
/// stratum, and the round itself is shuffled.
class Sampler {
 public:
  Sampler(const std::vector<Entry>& entries, const WorkloadSpec& spec,
          std::uint64_t seed)
      : rng_(seed) {
    std::map<std::string, std::vector<std::size_t>> by;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      by[entries[i].stratum()].push_back(i);
    }
    for (auto& [name, idx] : by) {
      shuffle(idx);
      const auto w = spec.weights.find(name);
      strata_.push_back({std::move(idx), 0,
                         w == spec.weights.end() ? 1 : w->second});
    }
  }

  std::size_t next() {
    if (pos_ == round_.size()) refill();
    return round_[pos_++];
  }

 private:
  struct Stratum {
    std::vector<std::size_t> idx;
    std::size_t cursor;
    int weight;
  };

  void shuffle(std::vector<std::size_t>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[static_cast<std::size_t>(
                              rng_.below(static_cast<int>(i)))]);
    }
  }

  void refill() {
    round_.clear();
    pos_ = 0;
    for (Stratum& s : strata_) {
      for (int k = 0; k < s.weight; ++k) {
        round_.push_back(s.idx[s.cursor]);
        s.cursor = (s.cursor + 1) % s.idx.size();
      }
    }
    shuffle(round_);
  }

  Rng rng_;
  std::vector<Stratum> strata_;
  std::vector<std::size_t> round_;
  std::size_t pos_ = 0;
};

/// Everything a run needs before its clock starts.
struct Setup {
  std::vector<Entry> entries;
  std::unique_ptr<World> world;
  std::vector<Query> queries;  // oneshot, refute
  std::vector<Job> jobs;       // synth
  std::vector<Sweep> sweeps;   // sweep
  /// service_sweeps' cold serial baseline: every point of the first
  /// kColdSweeps ieee300 line-poisoning sweeps (the same points on every
  /// seed; what bench/screen_sweep compares the screen against), each run
  /// through a fresh model and plain verify(). A fixed, homogeneous set
  /// keeps the median off the gaps between the other strata's latency
  /// modes.
  std::vector<service::ServiceRequest> cold;
  std::string cold_expected;   // manifest verdict of each cold point
  std::unique_ptr<service::AnalyticsService> service;
  double grid_load_ms = 0;
};

/// One worker thread, driven by one client: with two or more workers the
/// points of one sweep spread over several warm sessions of its family in
/// nondeterministic order, and a sweep that takes 0.4 s on one worker was
/// seen to take over 60 s. More clients on one worker only add queueing
/// behind each other's sweeps, and made the median swing with the mix of
/// sweeps queued together.
std::unique_ptr<service::AnalyticsService> make_service() {
  service::ServiceOptions opt;
  opt.threads = 1;
  return std::make_unique<service::AnalyticsService>(opt);
}

/// Loads the manifest and rebuilds every scenario in it, for all
/// workloads alike (each entry's hash is checked against its rebuilt
/// scenario), then keeps the workload's own entries and its service.
Setup make_setup(const RunOptions& o, const WorkloadSpec& w) {
  Setup s;
  s.world = std::make_unique<World>();
  for (Entry& e : read_manifest(o.manifest)) {
    if (entry_hash(*s.world, e) != e.hash) {
      throw std::runtime_error(
          "manifest entry no longer describes the scenario it was written "
          "for (" + e.kind + " " + e.stratum() + "); rewrite the manifest");
    }
    if (e.kind == w.kind) s.entries.push_back(std::move(e));
  }
  if (s.entries.empty()) {
    throw std::runtime_error("manifest has no '" + std::string(w.kind) +
                             "' entries");
  }
  for (const Entry& e : s.entries) {
    if (e.kind == "oneshot" || e.kind == "refute") {
      s.queries.push_back(build_query(*s.world, e));
    } else if (e.kind == "synth") {
      s.jobs.push_back(build_job(*s.world, e));
    } else {
      s.sweeps.push_back(build_sweep(*s.world, e));
    }
  }
  int cold_sweeps = 0;
  for (const Sweep& sw : s.sweeps) {
    if (sw.entry->klass != "poison") continue;
    if (cold_sweeps++ == kColdSweeps) break;
    for (service::ServiceRequest& r : service::expand_sweep(sw.request)) {
      s.cold.push_back(std::move(r));
    }
    s.cold_expected += sw.entry->expected;
  }
  if (std::string(w.kind) == "sweep") s.service = make_service();
  s.grid_load_ms = s.world->grid_load_ms();
  return s;
}

/// One operation's outcome, as much of it as any workload needs.
struct Op {
  std::size_t idx = 0;  // into Setup::queries / jobs / sweeps
  bool repeat = false;  // sweeps: memo-on exact repeat
  Clock::time_point start{};
  double ms = 0;        // request to verdict
  double encode_ms = 0;
  double solve_ms = 0;
  smt::SolveResult verdict = smt::SolveResult::Unknown;
  std::optional<core::AttackVector> attack;
  smt::SolverStats stats;
  obs::PhaseTimes phases;
  std::size_t footprint_bytes = 0;
  core::SynthesisResult synth;
  std::vector<service::ServiceResponse> responses;
  std::string error;
  // unsat_refute, and service_sweeps' cold points: the serial baseline
  // run after the operation, outside its latency
  runtime::PortfolioResult portfolio;
  double serial_ms = 0;    // request to verdict
  double baseline_ms = 0;  // the whole baseline run, model teardown included
  std::size_t cold = SIZE_MAX;  // index into Setup::cold, if one ran
  smt::SolveResult cold_verdict = smt::SolveResult::Unknown;
  double split_ms = 0;
};

/// Machine-speed probe. On a shared 4-core Xeon VM a fixed pure-compute
/// loop alone spread by 12-19% (IQR over median) between 8-20 s windows,
/// in CPU time as much as in wall time, which is more than any regression
/// bound can absorb. The probe times a fixed kernel of the benchmark's own (a
/// sort and a floating-point pass over 32k integers and a random walk over
/// a 4 MiB table, a few ms, no library code) every kProbeEveryMs during a
/// run. End-to-end times are scaled by kNominalProbeMs over the median
/// probe time around them, i.e. reported at the speed of a machine on which
/// the kernel takes kNominalProbeMs; the raw values and the run's factor
/// are in its info line.
///
/// A wide probe also runs the kernel on `width` threads at once and takes
/// the mean of their times: operations that use every core (the
/// cube-and-conquer portfolio) slow down when other tenants take a core,
/// which a single-thread kernel hardly sees. The mean, not the time until
/// all finish: the portfolio hands cubes to whichever worker is free, so
/// one slow core delays it far less than it delays the last probe thread.
///
/// The probe runs in the benchmarked process, so a library thread still
/// busy while it runs (a spinning worker, say) would slow it and make the
/// program look faster. Each sample therefore compares the process's CPU
/// time with the probe threads' own: a sample during which other threads
/// used CPU is left out of the factor, and a run in which more than
/// kMaxBusyShare of the samples are left out fails (check_quiet).
class SpeedProbe {
 public:
  static constexpr double kNominalProbeMs = 5.0;
  static constexpr double kProbeEveryMs = 100;
  static constexpr double kLocalWindowMs = 1000;
  /// CPU time other threads may use during one sample, per thread the
  /// sample runs on (5% of a nominal sample), before it is left out: a
  /// service worker finishing its bookkeeping just after it answered, and
  /// the start and exit of a wide sample's helper threads, stay below it.
  static constexpr double kOtherCpuMs = 0.25;
  static constexpr double kMaxBusyShare = 0.1;

  explicit SpeedProbe(unsigned width = 1) : width_(width) {}

  void sample() {
    one_.add(timed(1), 1);
    if (width_ > 1) wide_.add(timed(width_), width_);
    last_ = Clock::now();
  }
  /// Throws when too many samples overlapped other threads' work: the
  /// factor would then partly measure the program itself.
  void check_quiet() const {
    const std::size_t busy = one_.busy + wide_.busy;
    const double n =
        static_cast<double>(one_.ms.size() + wide_.ms.size() + busy);
    if (static_cast<double>(busy) > kMaxBusyShare * n) {
      char buf[200];
      std::snprintf(buf, sizeof buf,
                    "%zu of %.0f speed-probe samples overlapped CPU work of "
                    "other threads (up to %.2f ms); the library leaves "
                    "threads running between operations",
                    busy, n, max_other_ms());
      throw std::runtime_error(buf);
    }
  }
  void maybe_sample() {
    if (ms_between(last_, Clock::now()) >= kProbeEveryMs) sample();
  }
  [[nodiscard]] double median_ms(bool wide = false) const {
    return percentile(series(wide).ms, 50);
  }
  /// Multiply a time by this (divide a rate) to report it at nominal speed.
  [[nodiscard]] double factor(bool wide = false) const {
    const double m = median_ms(wide);
    return m > 0 ? kNominalProbeMs / m : 1.0;
  }
  /// The factor from the samples within kLocalWindowMs of `t`: the host's
  /// speed drifts within a run too, so each operation is scaled by the
  /// speed around it. Falls back to factor() with fewer than 3 samples.
  [[nodiscard]] double factor_at(Clock::time_point t, bool wide = false) const {
    const Series& s = series(wide);
    std::vector<double> near;
    for (std::size_t i = 0; i < s.ms.size(); ++i) {
      if (std::fabs(ms_between(s.at[i], t)) <= kLocalWindowMs) {
        near.push_back(s.ms[i]);
      }
    }
    if (near.size() < 3) return factor(wide);
    return kNominalProbeMs / percentile(near, 50);
  }
  [[nodiscard]] double total_ms() const {
    return one_.total_ms + wide_.total_ms;
  }
  [[nodiscard]] std::size_t samples() const { return one_.ms.size(); }
  [[nodiscard]] std::size_t busy_samples() const {
    return one_.busy + wide_.busy;
  }
  [[nodiscard]] double max_other_ms() const {
    return std::max(one_.max_other_ms, wide_.max_other_ms);
  }

 private:
  static constexpr std::uint32_t kTableWords = 1U << 20;  // 4 MiB

  struct Timing {
    Clock::time_point at;
    double ms;          // the speed reading
    double elapsed_ms;  // until every probe thread finished
    double other_cpu_ms;
  };
  struct Series {
    std::vector<double> ms;
    std::vector<Clock::time_point> at;
    double total_ms = 0;
    std::size_t busy = 0;
    double max_other_ms = 0;
    void add(const Timing& t, unsigned width) {
      total_ms += t.elapsed_ms;
      max_other_ms = std::max(max_other_ms, t.other_cpu_ms);
      if (t.other_cpu_ms > kOtherCpuMs * width) {
        ++busy;
        return;
      }
      ms.push_back(t.ms);
      at.push_back(t.at);
    }
  };

  [[nodiscard]] const Series& series(bool wide) const {
    return wide && width_ > 1 ? wide_ : one_;
  }

  static const std::vector<std::uint32_t>& input() {
    static const std::vector<std::uint32_t> v = [] {
      std::vector<std::uint32_t> out(kTableWords);
      Rng r(7);
      for (std::uint32_t& x : out) x = static_cast<std::uint32_t>(r.next());
      return out;
    }();
    return v;
  }

  /// Runs the kernel once; returns the calling thread's CPU time for it.
  static double kernel() {
    const double cpu0 = cpu_ms(CLOCK_THREAD_CPUTIME_ID);
    std::vector<std::uint32_t> v(input().begin(),
                                 input().begin() + (1 << 15));
    std::sort(v.begin(), v.end());
    double acc = 0;
    for (int rep = 0; rep < 20; ++rep) {
      for (std::size_t i = 0; i < v.size(); i += 7) {
        const auto x = v[i] ^ static_cast<std::uint32_t>(rep);
        acc += std::sqrt(static_cast<double>(x));
      }
    }
    // Dependent random reads over 4 MiB: cache and memory contention from
    // other tenants slows the solvers' clause and watch lists the same way.
    const std::vector<std::uint32_t>& t = input();
    std::uint32_t at = 0;
    for (int k = 0; k < 100000; ++k) at = t[at] & (kTableWords - 1);
    volatile double sink = acc + at;
    (void)sink;
    return cpu_ms(CLOCK_THREAD_CPUTIME_ID) - cpu0;
  }

  /// The kernel on `width` threads at once: their mean time.
  static Timing timed(unsigned width) {
    const double proc0 = cpu_ms(CLOCK_PROCESS_CPUTIME_ID);
    const Clock::time_point t0 = Clock::now();
    std::vector<double> self(width, 0.0), ms(width, 0.0);
    auto run = [&self, &ms](unsigned k) {
      const Clock::time_point start = Clock::now();
      self[k] = kernel();
      ms[k] = ms_between(start, Clock::now());
      // A helper's whole CPU time, its start-up included, is the probe's.
      if (k > 0) self[k] = cpu_ms(CLOCK_THREAD_CPUTIME_ID);
    };
    std::vector<std::thread> helpers;
    for (unsigned k = 1; k < width; ++k) helpers.emplace_back(run, k);
    run(0);
    for (std::thread& h : helpers) h.join();
    const double elapsed = ms_between(t0, Clock::now());
    double probe_cpu = 0, mean_ms = 0;
    for (unsigned k = 0; k < width; ++k) {
      probe_cpu += self[k];
      mean_ms += ms[k] / width;
    }
    return {t0, mean_ms, elapsed,
            cpu_ms(CLOCK_PROCESS_CPUTIME_ID) - proc0 - probe_cpu};
  }

  unsigned width_;
  Series one_, wide_;
  Clock::time_point last_{};
};

/// Runs ops until the deadline (or exactly `replay`), one client. Returns
/// the loop's wall time without the probe's own time.
template <class Draw, class Fn>
double closed_loop(Draw&& draw, const std::vector<Op>* replay, double seconds,
                   SpeedProbe* probe, std::vector<Op>& out, Fn&& run_op) {
  const double probe_ms0 = probe ? probe->total_ms() : 0;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (std::size_t k = 0;; ++k) {
    Op op;
    if (replay != nullptr) {
      if (k == replay->size()) break;
      op.idx = (*replay)[k].idx;
      op.repeat = (*replay)[k].repeat;
    } else {
      if (Clock::now() >= deadline) break;
      draw(op, k);
    }
    op.start = Clock::now();
    run_op(op, k);
    out.push_back(std::move(op));
    if (probe != nullptr) probe->maybe_sample();
  }
  const double wall = ms_between(start, Clock::now());
  return probe ? wall - (probe->total_ms() - probe_ms0) : wall;
}

// ---------------------------------------------------------------- ops

void oneshot_op(const Setup& s, Tracer& tr, Op& op, std::uint64_t id) {
  const Query& q = s.queries[op.idx];
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<core::UfdiAttackModel> model;
  {
    Tracer::Scope sp(tr, "core.encode", id);
    model = std::make_unique<core::UfdiAttackModel>(*q.grid, *q.plan, q.spec);
  }
  const Clock::time_point t1 = Clock::now();
  // The nested program timers are part of what tracing costs.
  if (tr.enabled()) model->enable_phase_timing(true);
  core::VerificationResult r;
  {
    Tracer::Scope sp(tr, "core.verify", id);
    r = model->verify(budget());
  }
  const Clock::time_point t2 = Clock::now();
  op.ms = ms_between(t0, t2);
  op.encode_ms = ms_between(t0, t1);
  op.solve_ms = ms_between(t1, t2);
  op.verdict = r.result;
  op.attack = std::move(r.attack);
  op.stats = r.stats;
  op.phases = r.phase_times;
  op.footprint_bytes = r.stats.footprint_bytes;
}

void synth_op(const Setup& s, Tracer& tr, Op& op, std::uint64_t id) {
  const Job& j = s.jobs[op.idx];
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<core::UfdiAttackModel> model;
  {
    Tracer::Scope sp(tr, "core.encode", id);
    model = std::make_unique<core::UfdiAttackModel>(*j.grid, *j.plan, j.spec);
  }
  const Clock::time_point t1 = Clock::now();
  {
    Tracer::Scope sp(tr, "core.synthesize", id);
    core::SecurityArchitectureSynthesizer syn(*model, j.options);
    op.synth = syn.synthesize();
  }
  const Clock::time_point t2 = Clock::now();
  op.ms = ms_between(t0, t2);
  op.encode_ms = ms_between(t0, t1);
  op.solve_ms = ms_between(t1, t2);
  op.stats = model->solver_stats();  // lifetime: every candidate's verify
  op.footprint_bytes =
      op.stats.footprint_bytes + op.synth.candidate_footprint_bytes;
}

void refute_op(const Setup& s, Tracer& tr, Op& op, std::uint64_t id,
               unsigned nproc) {
  const Query& q = s.queries[op.idx];
  auto portfolio = [&] {
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<core::UfdiAttackModel> model;
    {
      Tracer::Scope sp(tr, "core.encode", id);
      model =
          std::make_unique<core::UfdiAttackModel>(*q.grid, *q.plan, q.spec);
    }
    const Clock::time_point t1 = Clock::now();
    runtime::PortfolioOptions po;
    po.num_threads = nproc;
    po.mode = runtime::PortfolioMode::kCubeAndConquer;
    po.budget = budget();
    {
      Tracer::Scope sp(tr, "runtime.verify_portfolio", id);
      op.portfolio = runtime::verify_portfolio(*model, po);
    }
    op.ms = ms_between(t0, Clock::now());
    op.encode_ms = ms_between(t0, t1);
    if (tr.enabled()) {
      // A direct split of the same instance, outside the op's latency: the
      // splitter's cost on its own (runtime.split_ms).
      const Clock::time_point t2 = Clock::now();
      Tracer::Scope sp(tr, "runtime.split_cubes", id);
      const runtime::CubeSet cubes = runtime::split_cubes(*model);
      op.split_ms = ms_between(t2, Clock::now());
      (void)cubes;
    }
  };
  auto serial = [&] {
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<core::UfdiAttackModel> model;
    {
      Tracer::Scope sp(tr, "core.encode", id);
      model =
          std::make_unique<core::UfdiAttackModel>(*q.grid, *q.plan, q.spec);
    }
    if (tr.enabled()) model->enable_phase_timing(true);
    const Clock::time_point t1 = Clock::now();
    core::VerificationResult r;
    {
      Tracer::Scope sp(tr, "core.verify", id);
      r = model->verify(budget());
    }
    const Clock::time_point t2 = Clock::now();
    op.serial_ms = ms_between(t0, t2);
    op.solve_ms = ms_between(t1, t2);
    op.verdict = r.result;
    op.stats = r.stats;
    op.phases = r.phase_times;
    op.footprint_bytes = r.stats.footprint_bytes;
  };
  auto timed_serial = [&] {
    const Clock::time_point t0 = Clock::now();
    serial();
    op.baseline_ms = ms_between(t0, Clock::now());
  };
  // Alternate which side runs first so neither always runs on a warm cache.
  if (id % 2 == 0) {
    portfolio();
    timed_serial();
  } else {
    timed_serial();
    portfolio();
  }
}

/// The k-th cold point of service_sweeps' serial baseline (Setup::cold).
void cold_op(const Setup& s, Op& op, std::uint64_t k) {
  op.cold = k % s.cold.size();
  const core::Scenario& sc = s.cold[op.cold].scenario;
  const Clock::time_point t0 = Clock::now();
  {
    core::UfdiAttackModel model(sc.grid, sc.plan, sc.spec);
    op.cold_verdict = model.verify(budget()).result;
    op.serial_ms = ms_between(t0, Clock::now());
  }
  op.baseline_ms = ms_between(t0, Clock::now());
}

void sweep_op(Setup& s, service::AnalyticsService& svc, Tracer& tr, Op& op,
              std::uint64_t id) {
  service::SweepRequest req = s.sweeps[op.idx].request;
  req.use_memo = op.repeat;
  const Clock::time_point t0 = Clock::now();
  Tracer::Scope sp(tr, "service.sweep", id);
  try {
    std::vector<std::future<service::ServiceResponse>> fs =
        svc.submit_sweep(req);
    for (auto& f : fs) op.responses.push_back(f.get());
  } catch (const std::exception& e) {
    op.error = e.what();
  }
  op.ms = ms_between(t0, Clock::now());
}

// ------------------------------------------------------------- checks

struct CheckStats {
  std::uint64_t failed = 0;
  std::vector<double> replay_ms;
  std::vector<std::string> failures;  // first few, for stderr
  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
  }
};

/// A SAT witness passes when the untouched meters stay consistent (stealth
/// gap ~ 0), the estimator's objective is unchanged by the attack, the
/// target's estimate actually moves, and it respects the cap and the
/// plan's secured meters. The chi-square `detected` flag is deliberately
/// not used: it fires at about alpha even with no attack. Returns why the
/// witness failed, empty when it passed.
std::string witness_problem(const Query& q, const core::AttackVector& a,
                            double& ms, Tracer& tr, std::uint64_t id) {
  const int cap = q.spec.max_altered_measurements;
  if (cap > 0 && static_cast<int>(a.altered_measurements.size()) > cap) {
    return "alters more meters than T_CZ";
  }
  for (grid::MeasId m : a.altered_measurements) {
    if (!q.plan->taken(m) || q.plan->secured(m)) {
      return "alters an untaken or secured meter";
    }
  }
  const Clock::time_point t0 = Clock::now();
  core::AttackReplay rep;
  {
    Tracer::Scope sp(tr, "estimation.replay_attack", id);
    rep = core::replay_attack(*q.grid, *q.plan, a, 0.01, 0.01, 1.0, id + 1);
  }
  ms = ms_between(t0, Clock::now());
  char buf[160];
  const double dj = std::fabs(rep.attacked_objective - rep.baseline_objective);
  if (!(rep.stealth_gap <= 1e-6)) {
    std::snprintf(buf, sizeof buf, "stealth gap %.3g", rep.stealth_gap);
    return buf;
  }
  // Observed float noise is up to ~1e-6 relative; an attack the estimator
  // notices moves J by orders of magnitude more.
  if (!(dj <= 1e-4 * std::max(1.0, rep.baseline_objective))) {
    std::snprintf(buf, sizeof buf, "objective moved %.12g -> %.12g",
                  rep.baseline_objective, rep.attacked_objective);
    return buf;
  }
  for (grid::BusId t : q.spec.target_states) {
    const double shift = rep.achieved_shift[static_cast<std::size_t>(t)];
    if (!(std::fabs(shift) > 1e-9)) {
      std::snprintf(buf, sizeof buf, "target %d shifted by %.3g", t, shift);
      return buf;
    }
  }
  return "";
}

char verdict_char(smt::SolveResult r) {
  return r == smt::SolveResult::Sat     ? 'S'
         : r == smt::SolveResult::Unsat ? 'U'
                                        : '?';
}

void check_oneshot(const Setup& s, const std::vector<Op>& ops, Tracer& tr,
                   CheckStats& cs) {
  // Identical witnesses for one entry are replayed once.
  std::map<std::pair<std::size_t, std::vector<grid::MeasId>>, std::string>
      seen;
  for (std::size_t k = 0; k < ops.size(); ++k) {
    const Op& op = ops[k];
    const Query& q = s.queries[op.idx];
    Tracer::Scope sp(tr, "bench.check", k);
    const char v = verdict_char(op.verdict);
    if (v != q.entry->expected[0]) {
      cs.fail(q.entry->stratum() + ": verdict " + v + ", manifest " +
              q.entry->expected);
      continue;
    }
    if (v != 'S') continue;
    const auto key = std::make_pair(op.idx, op.attack->altered_measurements);
    auto it = seen.find(key);
    if (it == seen.end()) {
      double ms = 0;
      it = seen.emplace(key, witness_problem(q, *op.attack, ms, tr, k)).first;
      cs.replay_ms.push_back(ms);
    }
    if (!it->second.empty()) {
      cs.fail(q.entry->stratum() + ": witness failed replay: " + it->second);
    }
  }
}

void check_synth(const Setup& s, const std::vector<Op>& ops, Tracer& tr,
                 CheckStats& cs) {
  std::map<std::pair<std::size_t, std::vector<grid::BusId>>, bool> seen;
  for (std::size_t k = 0; k < ops.size(); ++k) {
    const Op& op = ops[k];
    const Job& j = s.jobs[op.idx];
    Tracer::Scope sp(tr, "bench.check", k);
    const char got = op.synth.status == core::SynthesisResult::Status::Found
                         ? 'F'
                     : op.synth.status ==
                             core::SynthesisResult::Status::NoArchitecture
                         ? 'N'
                         : '?';
    if (got != j.entry->expected[0]) {
      cs.fail(j.entry->stratum() + ": status " + got + ", manifest " +
              j.entry->expected);
      continue;
    }
    if (got != 'F') continue;
    const std::vector<grid::BusId>& arch = op.synth.secured_buses;
    if (static_cast<int>(arch.size()) > j.options.max_secured_buses ||
        std::find(arch.begin(), arch.end(), 0) == arch.end()) {
      cs.fail(j.entry->stratum() + ": architecture violates its budget");
      continue;
    }
    const auto key = std::make_pair(op.idx, arch);
    auto it = seen.find(key);
    if (it == seen.end()) {
      // Re-verify on a freshly built model: securing the architecture
      // must leave the adversary no attack.
      std::unique_ptr<core::UfdiAttackModel> model;
      {
        Tracer::Scope e(tr, "core.encode", k);
        model = std::make_unique<core::UfdiAttackModel>(*j.grid, *j.plan,
                                                        j.spec);
      }
      Tracer::Scope v(tr, "core.verify_with_secured_buses", k);
      const core::VerificationResult r =
          model->verify_with_secured_buses(arch, budget());
      it = seen.emplace(key, r.result == smt::SolveResult::Unsat).first;
    }
    if (!it->second) {
      cs.fail(j.entry->stratum() + ": architecture admits an attack");
    }
  }
}

void check_refute(const Setup& s, const std::vector<Op>& ops,
                  CheckStats& cs) {
  for (const Op& op : ops) {
    const Query& q = s.queries[op.idx];
    const std::string& want = q.entry->expected;
    if (std::string(1, verdict_char(op.verdict)) != want ||
        std::string(1, verdict_char(op.portfolio.result())) != want) {
      cs.fail(q.entry->stratum() + ": serial " + verdict_char(op.verdict) +
              ", portfolio " + verdict_char(op.portfolio.result()) +
              ", manifest " + want);
    } else if (op.portfolio.cubes_refuted != op.portfolio.cubes_generated) {
      cs.fail(q.entry->stratum() + ": UNSAT with open cubes");
    }
  }
}

void check_sweeps(const Setup& s, const std::vector<Op>& ops,
                  CheckStats& cs) {
  std::map<std::size_t, std::vector<service::ServiceRequest>> points;
  for (const Op& op : ops) {
    const Sweep& sw = s.sweeps[op.idx];
    const std::string& want = sw.entry->expected;
    if (!op.error.empty() || op.responses.size() != want.size()) {
      cs.fail(sw.entry->stratum() + ": sweep error " + op.error);
      continue;
    }
    auto it = points.find(op.idx);
    if (it == points.end()) {
      it = points.emplace(op.idx, service::expand_sweep(sw.request)).first;
    }
    bool ok = true;
    for (std::size_t k = 0; k < want.size() && ok; ++k) {
      const service::ServiceResponse& r = op.responses[k];
      const core::Scenario& sc = it->second[k].scenario;
      if (!r.ok() || verdict_char(r.verdict) != want[k]) {
        ok = false;
        break;
      }
      if (r.verdict != smt::SolveResult::Sat) continue;
      // The service returns only the altered meter ids: they must exist,
      // respect the point's cap and avoid its secured meters.
      const int cap = sc.spec.max_altered_measurements;
      ok = !r.altered_measurements.empty() &&
           (cap == 0 ||
            static_cast<int>(r.altered_measurements.size()) <= cap);
      for (int id : r.altered_measurements) {
        ok = ok && id >= 1 && id <= sc.plan.num_potential() &&
             sc.plan.taken(id - 1) && !sc.plan.secured(id - 1);
      }
    }
    if (!ok) cs.fail(sw.entry->stratum() + ": sweep point mismatch");
    if (op.cold != SIZE_MAX &&
        verdict_char(op.cold_verdict) != s.cold_expected[op.cold]) {
      cs.fail("cold baseline point disagrees with manifest");
    }
  }
}

// ------------------------------------------------------------ metrics

void put(RunResult& r, const std::string& name, double v,
         const std::string& unit) {
  r.metrics[name] = Metric{v, unit};
}

struct Phase {
  std::vector<Op> ops;
  double wall_ms = 0;
};

/// Runs one closed-loop phase of the workload.
Phase run_phase(const RunOptions& o, const WorkloadSpec& w, Setup& s,
                service::AnalyticsService* svc, Tracer& tr, SpeedProbe* probe,
                const Phase* replay, double seconds) {
  Phase p;
  Sampler sampler(s.entries, w, o.seed);
  // service_sweeps: every kRepeatEvery-th sweep repeats one of a few hot
  // sweeps with the memo on; all others run with it off.
  std::vector<std::size_t> hot;
  Rng hotRng(o.seed ^ 0x5bd1e995ULL);
  for (int k = 0; k < kHotSweeps && !s.sweeps.empty(); ++k) {
    hot.push_back(static_cast<std::size_t>(
        hotRng.below(static_cast<int>(s.sweeps.size()))));
  }
  auto draw = [&](Op& op, std::size_t k) {
    if (!hot.empty() && k % kRepeatEvery == kRepeatEvery - 1) {
      op.idx = hot[(k / kRepeatEvery) % hot.size()];
      op.repeat = true;
    } else {
      op.idx = sampler.next();
    }
  };
  const std::vector<Op>* rep = replay ? &replay->ops : nullptr;
  const std::string kind = w.kind;
  p.wall_ms = closed_loop(draw, rep, seconds, probe, p.ops,
                          [&](Op& op, std::uint64_t id) {
                            Tracer::Scope sp(tr, "bench.op", id);
                            if (kind == "oneshot") {
                              oneshot_op(s, tr, op, id);
                            } else if (kind == "synth") {
                              synth_op(s, tr, op, id);
                            } else if (kind == "refute") {
                              refute_op(s, tr, op, id, o.nproc);
                            } else {
                              sweep_op(s, *svc, tr, op, id);
                              // The end-to-end run (the one with a probe)
                              // spreads the cold baseline over the loop.
                              if (probe != nullptr &&
                                  id % kColdEvery == kColdEvery - 1) {
                                cold_op(s, op, id / kColdEvery);
                              }
                            }
                          });
  return p;
}

void check_phase(const WorkloadSpec& w, const Setup& s, const Phase& p,
                 Tracer& tr, CheckStats& cs) {
  const std::string kind = w.kind;
  if (kind == "oneshot") {
    check_oneshot(s, p.ops, tr, cs);
  } else if (kind == "synth") {
    check_synth(s, p.ops, tr, cs);
  } else if (kind == "refute") {
    check_refute(s, p.ops, cs);
  } else {
    check_sweeps(s, p.ops, cs);
  }
}

std::size_t points_of(const Phase& p) {
  std::size_t n = 0;
  for (const Op& op : p.ops) n += std::max<std::size_t>(1, op.responses.size());
  return n;
}

Clock::time_point midpoint(const Op& op, double ms) {
  return op.start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(ms / 2));
}

/// The end-to-end metrics, times scaled to nominal machine speed by the
/// probe, each by the speed around it; the raw values go to `info`.
void end_to_end_metrics(const WorkloadSpec& w, const Phase& p,
                        const std::vector<Timed>& setups,
                        const SpeedProbe& probe, RunResult& r,
                        obs::JsonWriter& info) {
  std::vector<double> lat, lat_raw, serial, serial_raw, setup, setup_raw;
  const std::string kind = w.kind;
  // unsat_refute's portfolio uses every core: its latencies are scaled by
  // the wide probe.
  const bool wide = kind == "refute";
  // The loop's wall time at nominal speed: each operation scaled by the
  // speed around it, the rest of the loop (drawing, tearing down models and
  // results between operations) by the run's. Serial baseline runs
  // (unsat_refute's, service_sweeps' cold points) are not operations and
  // are left out.
  const double f = probe.factor();
  double gap_ms = p.wall_ms;
  double wall_ms = 0, raw_wall_ms = 0;
  for (const Op& op : p.ops) {
    lat_raw.push_back(op.ms);
    lat.push_back(op.ms *
                  probe.factor_at(midpoint(op, op.ms + op.serial_ms), wide));
    wall_ms += lat.back();
    raw_wall_ms += op.ms;
    gap_ms -= op.ms + op.baseline_ms;
  }
  gap_ms = std::max(0.0, gap_ms);
  wall_ms += gap_ms * f;
  raw_wall_ms += gap_ms;
  for (const Timed& t : setups) {
    setup_raw.push_back(t.ms / 1000);
    setup.push_back(t.ms / 1000 * probe.factor_at(t.mid));
  }
  if (kind == "refute" || kind == "sweep") {
    for (const Op& op : p.ops) {
      if (op.serial_ms == 0) continue;
      serial_raw.push_back(op.serial_ms);
      serial.push_back(op.serial_ms *
                       probe.factor_at(midpoint(op, op.ms + op.serial_ms)));
    }
  } else {
    // The operations already are serial single-thread calls.
    serial = lat;
    serial_raw = lat_raw;
  }
  const double tp = tail_pct(lat.size(), w.tail_pct);
  const double units =
      kind == "sweep" ? static_cast<double>(points_of(p))
                      : static_cast<double>(p.ops.size());
  put(r, "p50_ms", percentile(lat, 50), "ms");
  put(r, "tail_ms", percentile(lat, tp), "ms");
  put(r, "ops_per_s", units / (wall_ms / 1000.0), "1/s");
  put(r, "serial_p50_ms", percentile(serial, 50), "ms");
  put(r, "setup_s", percentile(setup, 50), "s");
  info.field("tail_pct", tp)
      .field("tail_samples", static_cast<std::uint64_t>(lat.size()))
      .field("speed_factor", f)
      .field("wide_speed_factor", probe.factor(true))
      .field("probe_median_ms", probe.median_ms())
      .field("probe_samples", static_cast<std::uint64_t>(probe.samples()))
      .field("raw_p50_ms", percentile(lat_raw, 50))
      .field("raw_tail_ms", percentile(lat_raw, tp))
      .field("raw_ops_per_s", units / (raw_wall_ms / 1000.0))
      .field("gap_ms", gap_ms)
      .field("probe_busy_samples",
             static_cast<std::uint64_t>(probe.busy_samples()))
      .field("probe_max_other_cpu_ms", probe.max_other_ms())
      .field("raw_serial_p50_ms", percentile(serial_raw, 50))
      .field("raw_setup_s", percentile(setup_raw, 50));
}

void layer_metrics(const WorkloadSpec& w, const Phase& p,
                   const CheckStats& cs, double untraced_ms,
                   double grid_load_ms, unsigned workers, RunResult& r) {
  const std::string kind = w.kind;
  const double n = std::max<double>(1, static_cast<double>(p.ops.size()));
  std::vector<double> enc, solve;
  smt::SolverStats sum;
  double footprint = 0;
  double verify_calls = 0, candidates = 0;
  for (const Op& op : p.ops) {
    enc.push_back(op.encode_ms);
    solve.push_back(op.solve_ms);
    const smt::SolverStats& st = op.stats;
    sum.sat.decisions += st.sat.decisions;
    sum.sat.propagations += st.sat.propagations;
    sum.sat.conflicts += st.sat.conflicts;
    sum.sat.learned_clauses += st.sat.learned_clauses;
    sum.sat.theory_checks += st.sat.theory_checks;
    sum.sat.theory_propagations += st.sat.theory_propagations;
    sum.sat.arena_gcs += st.sat.arena_gcs;
    sum.pivots += st.pivots;
    sum.float_pivots += st.float_pivots;
    sum.exact_recomputes += st.exact_recomputes;
    sum.eta_updates += st.eta_updates;
    sum.refactorisations += st.refactorisations;
    sum.bigint_promotions += st.bigint_promotions;
    for (const service::ServiceResponse& resp : op.responses) {
      sum.sat.decisions += resp.decisions;
      sum.sat.conflicts += resp.conflicts;
      sum.pivots += resp.pivots;
    }
    footprint = std::max(footprint, static_cast<double>(op.footprint_bytes));
    if (kind == "synth") {
      verify_calls += op.synth.candidates_tried;
      candidates += op.synth.candidates_tried;
    } else if (kind != "sweep") {
      verify_calls += 1;
    }
  }
  const bool direct_core = kind != "sweep";
  put(r, "core.encode_ms", direct_core ? percentile(enc, 50) : 0, "ms");
  put(r, "core.solve_ms", direct_core ? percentile(solve, 50) : 0, "ms");
  put(r, "core.solve_tail_ms",
      direct_core ? percentile(solve, tail_pct(solve.size(), w.tail_pct)) : 0,
      "ms");
  put(r, "core.verify_calls", verify_calls / n, "count/op");
  put(r, "synthesis.candidates", candidates / n, "count/op");
  const std::pair<const char*, std::uint64_t> counters[] = {
      {"smt.decisions", sum.sat.decisions},
      {"smt.propagations", sum.sat.propagations},
      {"smt.conflicts", sum.sat.conflicts},
      {"smt.learned_clauses", sum.sat.learned_clauses},
      {"smt.theory_checks", sum.sat.theory_checks},
      {"smt.theory_propagations", sum.sat.theory_propagations},
      {"smt.pivots", sum.pivots},
      {"smt.float_pivots", sum.float_pivots},
      {"smt.exact_recomputes", sum.exact_recomputes},
      {"smt.eta_updates", sum.eta_updates},
      {"smt.refactorisations", sum.refactorisations},
      {"smt.bigint_promotions", sum.bigint_promotions},
      {"smt.arena_gcs", sum.sat.arena_gcs},
  };
  for (const auto& [name, v] : counters) {
    put(r, name, static_cast<double>(v) / n, "count/op");
  }
  put(r, "smt.footprint_mb", footprint / (1024.0 * 1024.0), "MB");

  // Service and screen: per sweep point, from the responses.
  std::vector<double> queue, svc_solve;
  double screen_s = 0;
  std::size_t points = 0, screened = 0, session_hits = 0, memo_hits = 0;
  for (const Op& op : p.ops) {
    for (const service::ServiceResponse& resp : op.responses) {
      ++points;
      queue.push_back(resp.queue_seconds * 1000);
      if (!resp.memo_hit) svc_solve.push_back(resp.solve_seconds * 1000);
      screen_s += resp.screen_seconds;
      screened += resp.screened ? 1 : 0;
      session_hits += resp.session_hit ? 1 : 0;
      memo_hits += resp.memo_hit ? 1 : 0;
    }
  }
  const double np = std::max<double>(1, static_cast<double>(points));
  put(r, "screen.ms", screen_s * 1000 / np, "ms");
  put(r, "screen.decided_frac", static_cast<double>(screened) / np, "frac");
  put(r, "service.queue_ms", percentile(queue, 50), "ms");
  put(r, "service.queue_tail_ms",
      percentile(queue, tail_pct(queue.size(), w.tail_pct)), "ms");
  put(r, "service.solve_ms", percentile(svc_solve, 50), "ms");
  put(r, "service.solve_tail_ms",
      percentile(svc_solve, tail_pct(svc_solve.size(), w.tail_pct)), "ms");
  put(r, "service.session_hit_frac", static_cast<double>(session_hits) / np,
      "frac");
  put(r, "service.memo_hit_frac", static_cast<double>(memo_hits) / np,
      "frac");

  // Cube-and-conquer: per refutation, from PortfolioResult.
  std::vector<double> split, cube_ms, cube_max;
  double generated = 0, refuted = 0, exported = 0, imported = 0;
  double busy = 0, capacity = 0;
  for (const Op& op : p.ops) {
    if (kind != "refute") break;
    split.push_back(op.split_ms);
    generated += static_cast<double>(op.portfolio.cubes_generated);
    refuted += static_cast<double>(op.portfolio.cubes_refuted);
    double mx = 0;
    for (const runtime::PortfolioMemberOutcome& m : op.portfolio.members) {
      cube_ms.push_back(m.seconds * 1000);
      mx = std::max(mx, m.seconds * 1000);
      busy += m.seconds;
      exported += static_cast<double>(m.stats.sat.clauses_exported);
      imported += static_cast<double>(m.stats.sat.clauses_imported);
    }
    cube_max.push_back(mx);
    capacity += op.portfolio.seconds * static_cast<double>(workers);
  }
  put(r, "runtime.split_ms", percentile(split, 50), "ms");
  put(r, "runtime.cubes_generated", generated / n, "count/op");
  put(r, "runtime.cubes_refuted", refuted / n, "count/op");
  put(r, "runtime.cube_ms", percentile(cube_ms, 50), "ms");
  put(r, "runtime.cube_max_ms", percentile(cube_max, 50), "ms");
  put(r, "runtime.worker_busy_frac", capacity > 0 ? busy / capacity : 0,
      "frac");
  put(r, "runtime.clauses_exported", exported / n, "count/op");
  put(r, "runtime.clauses_imported", imported / n, "count/op");

  put(r, "estimation.replay_ms", percentile(cs.replay_ms, 50), "ms");
  put(r, "grid.load_ms", grid_load_ms, "ms");
  put(r, "obs.trace_overhead_frac",
      untraced_ms > 0 ? p.wall_ms / untraced_ms - 1 : 0, "frac");
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

RunResult run_workload(const RunOptions& o) {
  const WorkloadSpec& w = workload_spec(o.workload);

  // Set-up, several times: the median is setup_s, the last one is used.
  // The probe also samples between set-ups, which it scales too.
  // The single-threaded workloads run on one core, and the probe times
  // that core: unpinned, the service's worker could run on a core busier
  // or idler than the one the probe saw. unsat_refute's portfolio uses
  // every core, and a wide probe times them all.
  const bool all_cores = w.kind == std::string("refute");
  if (!all_cores) pin_to_current_core();
  SpeedProbe probe(all_cores ? o.nproc : 1);
  std::vector<Timed> setups;
  std::vector<double> grid_ms;
  Setup s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s = Setup{};
    const Clock::time_point t0 = Clock::now();
    s = make_setup(o, w);
    setups.push_back(timed_since(t0));
    grid_ms.push_back(s.grid_load_ms);
    probe.sample();
  }

  RunResult r;
  CheckStats cs;
  std::uint64_t attempted = 0;
  obs::JsonWriter info;
  info.field("workload", o.workload)
      .field("seed", o.seed)
      .field("nproc", static_cast<std::uint64_t>(o.nproc))
      .field("build_type", PERFBENCH_BUILD_TYPE)
      .field("trace", static_cast<std::uint64_t>(o.trace ? 1 : 0))
      .field("catalogue_entries", static_cast<std::uint64_t>(s.entries.size()));

  if (!o.trace) {
    Tracer off(false);
    const Phase p =
        run_phase(o, w, s, s.service.get(), off, &probe, nullptr, o.seconds);
    check_phase(w, s, p, off, cs);
    attempted = p.ops.size();
    info.field("operations", static_cast<std::uint64_t>(p.ops.size()))
        .field("points", static_cast<std::uint64_t>(points_of(p)))
        .field("measured_s", p.wall_ms / 1000.0);
    end_to_end_metrics(w, p, setups, probe, r, info);
    probe.check_quiet();
    put(r, "peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    Tracer off(false);
    const Phase a =
        run_phase(o, w, s, s.service.get(), off, nullptr, nullptr,
                  o.seconds / 2);
    check_phase(w, s, a, off, cs);
    // The replay gets a fresh service: warm sessions and the memo from the
    // untraced phase would otherwise make it cheaper.
    std::unique_ptr<service::AnalyticsService> svc;
    if (s.service) svc = make_service();
    Tracer on(true);
    const Phase b = run_phase(o, w, s, svc.get(), on, nullptr, &a, 0);
    CheckStats csb;
    check_phase(w, s, b, on, csb);
    cs.failed += csb.failed;
    for (std::string& f : csb.failures) cs.failures.push_back(std::move(f));
    attempted = a.ops.size() + b.ops.size();
    layer_metrics(w, b, csb, a.wall_ms, percentile(grid_ms, 50), o.nproc, r);
    // Where the traced replay's time went, by layer (self time), and the
    // solver's own nested phase timers (they overlap; not a partition).
    obs::JsonWriter self;
    for (const auto& [layer, ms] : on.self_ms_by_layer()) self.field(layer, ms);
    obs::PhaseTimes pt;
    for (const Op& op : b.ops) {
      pt.encode_us += op.phases.encode_us;
      pt.propagate_us += op.phases.propagate_us;
      pt.simplex_us += op.phases.simplex_us;
      pt.tprop_us += op.phases.tprop_us;
      pt.theory_us += op.phases.theory_us;
    }
    obs::JsonWriter nested;
    nested.field("encode_us", pt.encode_us)
        .field("propagate_us", pt.propagate_us)
        .field("theory_us", pt.theory_us)
        .field("simplex_us", pt.simplex_us)
        .field("tprop_us", pt.tprop_us);
    const std::string spans = o.out_dir + "/spans-" + o.workload + "-seed" +
                              std::to_string(o.seed) + ".jsonl";
    if (!on.write(spans)) {
      throw std::runtime_error("cannot write span file " + spans);
    }
    info.field("operations", static_cast<std::uint64_t>(b.ops.size()))
        .field("untraced_s", a.wall_ms / 1000.0)
        .field("traced_s", b.wall_ms / 1000.0)
        .field("spans", static_cast<std::uint64_t>(on.size()))
        .field("span_file", spans)
        .field_raw("layer_self_ms", self.str())
        .field_raw("nested_program_timers", nested.str());
  }
  for (const std::string& f : cs.failures) {
    std::fprintf(stderr, "check failed: %s\n", f.c_str());
  }
  r.attempted = attempted;
  r.failed = std::min<std::uint64_t>(cs.failed, attempted);
  r.correct = cs.failed == 0 && attempted > 0;
  if (!o.trace) {
    put(r, "correct_frac",
        1.0 - static_cast<double>(r.failed) /
                  static_cast<double>(std::max<std::uint64_t>(1, attempted)),
        "frac");
  }
  std::string reps;
  for (const Timed& t : setups) {
    reps += (reps.empty() ? "" : ",") + fmt(t.ms / 1000);
  }
  info.field("failed", cs.failed).field("setup_reps_s", reps);
  r.info = info.str();
  return r;
}

}  // namespace perfbench
