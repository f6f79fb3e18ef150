#include "core/synthesis.h"

#include <algorithm>
#include <chrono>

#include "screen/defense_seeder.h"
#include "smt/common.h"

namespace psse::core {

using grid::BusId;
using grid::LineId;
using smt::Lit;
using smt::SatSolver;
using smt::Var;

SecurityArchitectureSynthesizer::SecurityArchitectureSynthesizer(
    UfdiAttackModel& attackModel, SynthesisOptions options)
    : attackModel_(attackModel), options_(std::move(options)) {
  const int b = attackModel_.grid().num_buses();
  PSSE_CHECK(options_.max_secured_buses >= 0 &&
                 options_.max_secured_buses <= b,
             "SynthesisOptions: bus budget out of range");
  for (BusId j : options_.cannot_secure) {
    PSSE_CHECK(j >= 0 && j < b, "SynthesisOptions: cannot_secure bus range");
  }
  for (BusId j : options_.must_secure) {
    PSSE_CHECK(j >= 0 && j < b, "SynthesisOptions: must_secure bus range");
  }
}

void SecurityArchitectureSynthesizer::build_candidate_model(
    SatSolver& solver, std::vector<Var>& sbVars, int budget) const {
  const grid::Grid& grid = attackModel_.grid();
  const grid::MeasurementPlan& plan = attackModel_.plan();
  const int b = grid.num_buses();
  sbVars.clear();
  for (BusId j = 0; j < b; ++j) sbVars.push_back(solver.new_var());

  // Eq. (27): at most T_SB secured buses.
  std::vector<Lit> all;
  for (Var v : sbVars) all.push_back(Lit::pos(v));
  solver.add_at_most(all, static_cast<std::uint32_t>(budget));

  // Eq. (29): operator exclusions, plus required inclusions.
  for (BusId j : options_.cannot_secure) {
    solver.add_clause({Lit::neg(sbVars[static_cast<std::size_t>(j)])});
  }
  for (BusId j : options_.must_secure) {
    solver.add_clause({Lit::pos(sbVars[static_cast<std::size_t>(j)])});
  }

  // Eq. (30): securing bus j makes securing a flow-measured neighbour
  // redundant — prune those candidates.
  if (options_.adjacency_pruning) {
    for (BusId j = 0; j < b; ++j) {
      for (LineId i : grid.lines_at(j)) {
        const grid::Line& line = grid.line(i);
        if (line.from == j && plan.taken(plan.forward_flow(i))) {
          solver.add_clause(
              {Lit::neg(sbVars[static_cast<std::size_t>(j)]),
               Lit::neg(sbVars[static_cast<std::size_t>(line.to)])});
        }
        if (line.to == j && plan.taken(plan.backward_flow(i))) {
          solver.add_clause(
              {Lit::neg(sbVars[static_cast<std::size_t>(j)]),
               Lit::neg(sbVars[static_cast<std::size_t>(line.from)])});
        }
      }
    }
  }
}

const char* SecurityArchitectureSynthesizer::blocking_kind(
    const VerificationResult& v) const {
  if (v.result != smt::SolveResult::Sat) return "none";
  if (options_.counterexample_blocking && v.attack.has_value() &&
      !v.attack->compromised_buses.empty()) {
    return "counterexample";
  }
  if (options_.subset_blocking) return "subset";
  return "exact";
}

void SecurityArchitectureSynthesizer::trace_iteration(
    int iter, const std::vector<BusId>& candidate,
    const VerificationResult& v, const smt::SatStats& candidateEffort,
    bool seed) const {
  if (!options_.trace.enabled()) return;
  obs::Event("cegis_iter")
      .field("iter", iter)
      .field_raw("candidate", obs::json_int_array(candidate))
      .field("verdict", smt::to_cstring(v.result))
      .field("blocking", blocking_kind(v))
      .field("seed", seed)
      .field("seconds", v.seconds)
      .field("decisions", v.stats.sat.decisions)
      .field("conflicts", v.stats.sat.conflicts)
      .field("pivots", v.stats.pivots)
      .field("cand_decisions", candidateEffort.decisions)
      .field("cand_conflicts", candidateEffort.conflicts)
      .emit(options_.trace);
}

bool SecurityArchitectureSynthesizer::try_seeds(
    SatSolver& candidates, const std::vector<Var>& sbVars,
    const std::function<double()>& elapsed, SynthesisResult& out) {
  if (!options_.graph_seeding || options_.max_seed_candidates == 0) {
    return false;
  }
  screen::SeedOptions so;
  so.max_secured_buses = options_.max_secured_buses;
  so.must_secure = options_.must_secure;
  so.cannot_secure = options_.cannot_secure;
  so.adjacency_pruning = options_.adjacency_pruning;
  so.target_states = attackModel_.spec().target_states;
  so.max_candidates = options_.max_seed_candidates;
  const std::vector<std::vector<BusId>> seeds =
      screen::seed_candidates(attackModel_.grid(), attackModel_.plan(), so);
  // Seeds are ranked by graph promise; two consecutive misses mean the
  // ranking is wrong for this instance, so stop paying a verification per
  // seed and let the model enumerate (which inherits the misses' blocking
  // clauses — the spent iterations still prune).
  int misses = 0;
  for (const std::vector<BusId>& S : seeds) {
    if (misses >= 2) break;
    if (options_.time_limit_seconds > 0 &&
        elapsed() > options_.time_limit_seconds) {
      out.status = SynthesisResult::Status::Timeout;
      return true;
    }
    smt::Budget vb = options_.verification_budget;
    if (options_.time_limit_seconds > 0) {
      auto remaining = std::chrono::milliseconds(static_cast<long>(
          1000 * std::max(0.1, options_.time_limit_seconds - elapsed())));
      if (vb.max_time.count() == 0 || vb.max_time > remaining) {
        vb.max_time = remaining;
      }
    }
    ++out.candidates_tried;
    VerificationResult v = attackModel_.verify_with_secured_buses(S, vb);
    trace_iteration(out.candidates_tried, S, v, smt::SatStats{},
                    /*seed=*/true);
    if (v.result == smt::SolveResult::Unsat) {
      out.status = SynthesisResult::Status::Found;
      out.secured_buses = S;
      return true;
    }
    if (v.result == smt::SolveResult::Unknown) {
      out.status = SynthesisResult::Status::Timeout;
      return true;
    }
    // A failed seed prunes the model's enumeration exactly like a failed
    // enumerated candidate (the counterexample clause excludes the seed
    // itself: an attack's compromised buses are never secured buses).
    candidates.add_clause(failure_blocking_clause(sbVars, S, v));
    ++misses;
  }
  return false;
}

std::vector<Lit> SecurityArchitectureSynthesizer::failure_blocking_clause(
    const std::vector<Var>& sbVars, const std::vector<BusId>& S,
    const VerificationResult& v) const {
  const int b = attackModel_.grid().num_buses();
  std::vector<Lit> block;
  if (options_.counterexample_blocking && v.attack.has_value() &&
      !v.attack->compromised_buses.empty()) {
    // The same attack defeats every architecture that secures none of its
    // compromised buses: demand at least one of them.
    for (BusId j : v.attack->compromised_buses) {
      block.push_back(Lit::pos(sbVars[static_cast<std::size_t>(j)]));
    }
    return block;
  }
  if (options_.subset_blocking) {
    for (BusId j = 0; j < b; ++j) {
      if (std::find(S.begin(), S.end(), j) == S.end()) {
        block.push_back(Lit::pos(sbVars[static_cast<std::size_t>(j)]));
      }
    }
    return block;
  }
  for (BusId j = 0; j < b; ++j) {
    bool in = std::find(S.begin(), S.end(), j) != S.end();
    block.push_back(in ? Lit::neg(sbVars[static_cast<std::size_t>(j)])
                       : Lit::pos(sbVars[static_cast<std::size_t>(j)]));
  }
  return block;
}

SynthesisResult SecurityArchitectureSynthesizer::synthesize() {
  SynthesisResult out;
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  SatSolver candidates;
  std::vector<Var> sb;
  build_candidate_model(candidates, sb, options_.max_secured_buses);

  const int b = attackModel_.grid().num_buses();
  bool done = try_seeds(candidates, sb, elapsed, out);
  while (!done) {
    if (options_.time_limit_seconds > 0 &&
        elapsed() > options_.time_limit_seconds) {
      out.status = SynthesisResult::Status::Timeout;
      break;
    }
    smt::Budget candBudget;
    if (options_.time_limit_seconds > 0) {
      candBudget.max_time = std::chrono::milliseconds(static_cast<long>(
          1000 * std::max(0.1, options_.time_limit_seconds - elapsed())));
    }
    // Per-candidate effort of the (reused) candidate solver: snapshot and
    // delta, so the journal reports this iteration's work, not lifetime
    // totals.
    const smt::SatStats candBefore = candidates.stats();
    smt::SolveResult cr = candidates.solve({}, candBudget);
    const smt::SatStats candEffort = candidates.stats_since(candBefore);
    if (cr == smt::SolveResult::Unknown) {
      out.status = SynthesisResult::Status::Timeout;
      break;
    }
    if (cr == smt::SolveResult::Unsat) {
      // Every architecture within budget has been refuted.
      out.status = SynthesisResult::Status::NoArchitecture;
      break;
    }
    std::vector<BusId> S;
    for (BusId j = 0; j < b; ++j) {
      if (candidates.model_value(sb[static_cast<std::size_t>(j)])) {
        S.push_back(j);
      }
    }
    ++out.candidates_tried;

    smt::Budget vb = options_.verification_budget;
    if (options_.time_limit_seconds > 0) {
      auto remaining = std::chrono::milliseconds(static_cast<long>(
          1000 * std::max(0.1, options_.time_limit_seconds - elapsed())));
      if (vb.max_time.count() == 0 || vb.max_time > remaining) {
        vb.max_time = remaining;
      }
    }
    VerificationResult v = attackModel_.verify_with_secured_buses(S, vb);
    trace_iteration(out.candidates_tried, S, v, candEffort);
    if (v.result == smt::SolveResult::Unsat) {
      out.status = SynthesisResult::Status::Found;
      out.secured_buses = std::move(S);
      break;
    }
    if (v.result == smt::SolveResult::Unknown) {
      out.status = SynthesisResult::Status::Timeout;
      break;
    }
    // Candidate fails: block it (and, by monotonicity, all its subsets).
    candidates.add_clause(failure_blocking_clause(sb, S, v));
  }
  out.seconds = elapsed();
  out.candidate_footprint_bytes = candidates.footprint_bytes();
  if (options_.trace.enabled()) {
    obs::Event("cegis_done")
        .field("status", SynthesisResult::status_name(out.status))
        .field("candidates_tried", out.candidates_tried)
        .field("seconds", out.seconds)
        .field_raw("architecture", obs::json_int_array(out.secured_buses))
        .emit(options_.trace);
  }
  return out;
}

MeasurementSecuritySynthesizer::MeasurementSecuritySynthesizer(
    UfdiAttackModel& attackModel, int maxSecuredMeasurements,
    double timeLimitSeconds, smt::Budget verificationBudget)
    : attackModel_(attackModel),
      budget_(maxSecuredMeasurements),
      timeLimit_(timeLimitSeconds),
      verificationBudget_(verificationBudget) {
  PSSE_CHECK(budget_ >= 0, "MeasurementSecuritySynthesizer: bad budget");
}

MeasurementSynthesisResult MeasurementSecuritySynthesizer::synthesize() {
  MeasurementSynthesisResult out;
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  const std::vector<grid::MeasId> universe =
      attackModel_.attackable_measurements();
  // Candidate model: choose <= budget measurements; counterexample
  // attacks contribute "secure at least one altered measurement" clauses.
  SatSolver candidates;
  std::vector<Var> vars;
  std::vector<int> varOf(
      static_cast<std::size_t>(attackModel_.plan().num_potential()), -1);
  for (grid::MeasId m : universe) {
    varOf[static_cast<std::size_t>(m)] = static_cast<int>(vars.size());
    vars.push_back(candidates.new_var());
  }
  {
    std::vector<Lit> all;
    for (Var v : vars) all.push_back(Lit::pos(v));
    candidates.add_at_most(all, static_cast<std::uint32_t>(budget_));
  }

  for (;;) {
    if (timeLimit_ > 0 && elapsed() > timeLimit_) {
      out.status = SynthesisResult::Status::Timeout;
      break;
    }
    smt::SolveResult cr = candidates.solve();
    if (cr == smt::SolveResult::Unsat) {
      out.status = SynthesisResult::Status::NoArchitecture;
      break;
    }
    std::vector<grid::MeasId> S;
    for (grid::MeasId m : universe) {
      if (candidates.model_value(
              vars[static_cast<std::size_t>(
                  varOf[static_cast<std::size_t>(m)])])) {
        S.push_back(m);
      }
    }
    ++out.candidates_tried;
    smt::Budget vb = verificationBudget_;
    if (timeLimit_ > 0) {
      auto remaining = std::chrono::milliseconds(
          static_cast<long>(1000 * std::max(0.1, timeLimit_ - elapsed())));
      if (vb.max_time.count() == 0 || vb.max_time > remaining) {
        vb.max_time = remaining;
      }
    }
    VerificationResult v =
        attackModel_.verify_with_secured_measurements(S, vb);
    if (v.result == smt::SolveResult::Unsat) {
      out.status = SynthesisResult::Status::Found;
      out.secured_measurements = std::move(S);
      break;
    }
    if (v.result == smt::SolveResult::Unknown) {
      out.status = SynthesisResult::Status::Timeout;
      break;
    }
    PSSE_ASSERT(v.attack.has_value());
    std::vector<Lit> block;
    for (grid::MeasId m : v.attack->altered_measurements) {
      int idx = varOf[static_cast<std::size_t>(m)];
      PSSE_ASSERT(idx >= 0);
      block.push_back(Lit::pos(vars[static_cast<std::size_t>(idx)]));
    }
    candidates.add_clause(std::move(block));
  }
  out.seconds = elapsed();
  return out;
}

MeasurementSynthesisResult MeasurementSecuritySynthesizer::synthesize_minimal(
    int maxBudget) {
  const auto start = std::chrono::steady_clock::now();
  MeasurementSynthesisResult last;
  double total = 0.0;
  int totalCandidates = 0;
  for (int b = 1; b <= maxBudget; ++b) {
    double remaining = timeLimit_;
    if (timeLimit_ > 0) {
      double used = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
      remaining = std::max(0.1, timeLimit_ - used);
    }
    MeasurementSecuritySynthesizer inner(attackModel_, b, remaining,
                                         verificationBudget_);
    last = inner.synthesize();
    total += last.seconds;
    totalCandidates += last.candidates_tried;
    if (last.status != SynthesisResult::Status::NoArchitecture) break;
  }
  last.seconds = total;
  last.candidates_tried = totalCandidates;
  return last;
}

SynthesisResult SecurityArchitectureSynthesizer::synthesize_minimal(
    int maxBudget) {
  const auto start = std::chrono::steady_clock::now();
  SynthesisResult last;
  int from = std::max(1, static_cast<int>(options_.must_secure.size()));
  double totalSeconds = 0.0;
  int totalCandidates = 0;
  for (int budget = from; budget <= maxBudget; ++budget) {
    SynthesisOptions opts = options_;
    opts.max_secured_buses = budget;
    if (options_.time_limit_seconds > 0) {
      double used = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
      opts.time_limit_seconds =
          std::max(0.1, options_.time_limit_seconds - used);
    }
    SecurityArchitectureSynthesizer inner(attackModel_, opts);
    last = inner.synthesize();
    totalSeconds += last.seconds;
    totalCandidates += last.candidates_tried;
    if (last.status != SynthesisResult::Status::NoArchitecture) break;
  }
  last.seconds = totalSeconds;
  last.candidates_tried = totalCandidates;
  return last;
}

}  // namespace psse::core
