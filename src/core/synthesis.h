// Countermeasure synthesis (paper Section IV, Algorithm 1).
//
// A CEGIS-style loop between two models:
//  * the *candidate selection model* — a boolean problem choosing <= T_SB
//    buses to secure, honouring operator exclusions (Eq. (29)) and the
//    adjacent-bus pruning constraint (Eq. (30));
//  * the *attack verification model* — queried with the candidate's sb_j
//    assumptions; UNSAT means the candidate blocks every attack in the
//    operator's threat model.
//
// Failed candidates are blocked. With subset blocking (default, and
// strictly stronger than the paper's exact blocking) a failed set S prunes
// every subset of S as well, which is sound because securing fewer buses
// can only help the adversary.
#pragma once

#include <functional>
#include <vector>

#include "core/attack_model.h"
#include "obs/trace.h"
#include "smt/sat_solver.h"

namespace psse::core {

struct SynthesisOptions {
  /// T_SB (Eq. (27)): operator budget in buses.
  int max_secured_buses = 0;
  /// Buses the operator cannot secure (Eq. (29)).
  std::vector<grid::BusId> cannot_secure;
  /// Buses that must be part of any architecture.
  std::vector<grid::BusId> must_secure;
  /// Apply the Eq. (30) search-space reduction (no securing both ends of a
  /// line whose near-end flow measurement is taken).
  bool adjacency_pruning = true;
  /// Block all subsets of a failed candidate, not just the candidate.
  bool subset_blocking = true;
  /// Seed the search with graph-derived candidates (screen::seed_candidates
  /// — measurement-cut / greedy-coverage sets over the measurement-bus
  /// incidence graph, after Bi & Zhang 1304.4151) before consulting the
  /// SAT candidate model. Every seed is verified exactly and a failed seed
  /// contributes the same blocking clause as an enumerated candidate, so
  /// the outcome status is unchanged — on structured grids the first seed
  /// often already blocks all attacks, cutting `cegis_iter` counts.
  bool graph_seeding = true;
  /// Cap on the number of graph seeds tried (0 disables seeding).
  std::size_t max_seed_candidates = 6;
  /// Counterexample-guided blocking: a failed candidate comes with a
  /// concrete attack; any architecture securing none of that attack's
  /// compromised buses admits the *same* attack, so the candidate model
  /// learns "secure at least one of them". This turns the loop into a
  /// lazy hitting-set computation (cf. the NP-complete measurement-
  /// protection problem of Bobba et al. [6]) and is what makes 57-bus+
  /// synthesis converge. Strictly subsumes subset_blocking.
  bool counterexample_blocking = true;
  /// Budget for each inner verification call.
  smt::Budget verification_budget;
  /// Wall-clock ceiling for the whole synthesis; 0 = unlimited.
  double time_limit_seconds = 0.0;
  /// Structured tracing of the CEGIS loop: one "cegis_iter" event per
  /// candidate (bus set, verdict, blocking-clause kind, wall time,
  /// per-candidate solver effort) and a final "cegis_done" event. Off by
  /// default (null sink); the sink must outlive the synthesis call. Bus
  /// ids in events are 0-based, matching the C++ API (the CLI prints
  /// 1-based).
  obs::Config trace;
};

struct SynthesisResult {
  enum class Status { Found, NoArchitecture, Timeout };

  /// Lower-case status name for machine-readable reports and traces.
  [[nodiscard]] static constexpr const char* status_name(Status s) {
    switch (s) {
      case Status::Found:
        return "found";
      case Status::NoArchitecture:
        return "no_architecture";
      default:
        return "timeout";
    }
  }
  Status status = Status::Timeout;
  /// The synthesised security architecture (buses to secure).
  std::vector<grid::BusId> secured_buses;
  int candidates_tried = 0;
  double seconds = 0.0;
  /// Candidate-model footprint (Table IV's second column).
  std::size_t candidate_footprint_bytes = 0;

  [[nodiscard]] bool found() const { return status == Status::Found; }
};

class SecurityArchitectureSynthesizer {
 public:
  /// The attack model encodes the *security requirements*: the expected
  /// adversary the architecture must resist.
  SecurityArchitectureSynthesizer(UfdiAttackModel& attackModel,
                                  SynthesisOptions options);

  /// Runs Algorithm 1 with the configured bus budget.
  [[nodiscard]] SynthesisResult synthesize();

  /// Finds a minimum-size architecture by increasing the budget from
  /// |must_secure| up to `maxBudget` and returning the first success.
  [[nodiscard]] SynthesisResult synthesize_minimal(int maxBudget);

 private:
  void build_candidate_model(smt::SatSolver& solver,
                             std::vector<smt::Var>& sbVars, int budget) const;
  /// The clause that prunes the candidate space after S failed with
  /// counterexample v: "secure one of the attack's compromised buses"
  /// (counterexample blocking), "secure something outside S" (subset
  /// blocking), or the exact negation of S.
  [[nodiscard]] std::vector<smt::Lit> failure_blocking_clause(
      const std::vector<smt::Var>& sbVars, const std::vector<grid::BusId>& S,
      const VerificationResult& v) const;
  /// Which pruning rule failure_blocking_clause will choose for `v` — the
  /// "blocking" field of the cegis_iter journal event.
  [[nodiscard]] const char* blocking_kind(const VerificationResult& v) const;
  /// One cegis_iter journal line (no-op when tracing is off).
  void trace_iteration(int iter, const std::vector<grid::BusId>& candidate,
                       const VerificationResult& v,
                       const smt::SatStats& candidateEffort,
                       bool seed = false) const;
  /// Verifies the graph-seeded candidates before the model loop. Returns
  /// true when synthesis concluded (out.status set); false to continue
  /// with the enumeration, which inherits the seeds' blocking clauses.
  bool try_seeds(smt::SatSolver& candidates,
                 const std::vector<smt::Var>& sbVars,
                 const std::function<double()>& elapsed,
                 SynthesisResult& out);

  UfdiAttackModel& attackModel_;
  SynthesisOptions options_;
};

/// Measurement-granular synthesis (Section IV-A's noted variant): find a
/// set of at most `maxSecuredMeasurements` individual measurements whose
/// integrity protection blocks every attack of the model. The loop is the
/// same lazy hitting-set computation as the bus variant, over the altered
/// measurement sets of counterexample attacks.
struct MeasurementSynthesisResult {
  SynthesisResult::Status status = SynthesisResult::Status::Timeout;
  std::vector<grid::MeasId> secured_measurements;
  int candidates_tried = 0;
  double seconds = 0.0;

  [[nodiscard]] bool found() const {
    return status == SynthesisResult::Status::Found;
  }
};

class MeasurementSecuritySynthesizer {
 public:
  MeasurementSecuritySynthesizer(UfdiAttackModel& attackModel,
                                 int maxSecuredMeasurements,
                                 double timeLimitSeconds = 0.0,
                                 smt::Budget verificationBudget = {});

  [[nodiscard]] MeasurementSynthesisResult synthesize();
  /// Smallest secured set by increasing the budget up to `maxBudget`.
  [[nodiscard]] MeasurementSynthesisResult synthesize_minimal(int maxBudget);

 private:
  UfdiAttackModel& attackModel_;
  int budget_;
  double timeLimit_;
  smt::Budget verificationBudget_;
};

}  // namespace psse::core
