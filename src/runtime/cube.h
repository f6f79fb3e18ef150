// Cube splitting for cube-and-conquer portfolio verification: partition a
// hard UFDI instance into 2^d sub-instances ("cubes") by fixing the signs
// of d high-impact boolean decisions, so conquer workers refute disjoint
// regions of the search space instead of racing near-identical searches.
//
// The split variables come from the model's structural layer — the per-bus
// substation-compromise indicators cb_j and the el/il topology-attack
// literals (UfdiAttackModel::cube_candidate_terms) — because their
// polarity cascades through the residence closure: fixing one decides a
// whole substation's worth of cz freedom. A bounded burn-in solve on a
// prober (a clone of the caller's model) first concentrates branching
// activity on the variables the search actually fights over, and leaves
// the prober warm: the conquer workers start as copies of it, with its
// learnt clauses, activities and saved phases. Candidates are ranked by
// that activity (grids have hundreds of cb_j, and splitting on an
// arbitrary construction-order prefix produces cubes as hard as the
// original), then the top candidates are scored by bounded BCP lookahead
// (SatSolver::probe_literal): a probe that conflicts proves the opposite
// literal is level-0 implied (it joins every cube as a forced unit); a
// candidate that conflicts in *both* phases refutes the whole instance
// during splitting.
//
// Soundness of the partition: the cubes are exactly the 2^d sign
// combinations of the chosen terms, so their disjunction is valid — the
// instance is UNSAT iff every cube is refuted, and any SAT cube yields a
// genuine model (the cube literals are assumptions, never clauses, so no
// conqueror's learnt clauses depend on them; see portfolio.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/attack_model.h"
#include "smt/budget.h"

namespace psse::runtime {

struct CubeOptions {
  /// Number of split terms: up to 2^depth cubes, capped by max_cubes (the
  /// depth is lowered until 2^depth <= max_cubes).
  std::uint32_t depth = 5;
  /// Hard cap on generated cubes. More cubes than conquer threads is
  /// deliberate — the scheduler oversubscribes so early finishers pull
  /// fresh cubes instead of idling.
  std::uint32_t max_cubes = 32;
  /// Probe at most this many candidate literals (two BCP probes each)
  /// before ranking; bounds splitter latency on large grids.
  std::uint32_t max_probes = 96;
  /// Conflict budget for the burn-in solve that warms branching activity
  /// before candidates are ranked. 0 skips the burn-in (candidates keep
  /// construction order). When the burn-in *finishes* within the budget
  /// the split is already decided: Unsat sets CubeSet::refuted, Sat
  /// returns no cubes (the caller's race fallback re-derives the model).
  std::uint64_t burnin_conflicts = 300;
};

struct CubeSet {
  /// The sign-combination cubes, each a conjunction of assumption terms
  /// (forced literals first, then the d split signs). Empty when no usable
  /// split exists — the caller should fall back to racing.
  std::vector<std::vector<smt::TermRef>> cubes;
  /// Literals probing proved level-0 implied (opposite phase conflicted);
  /// already prepended to every cube, kept here for reporting.
  std::vector<smt::TermRef> forced;
  /// True when probing refuted the instance outright: some candidate
  /// conflicts in both phases, so the formula is UNSAT and cubes is empty.
  bool refuted = false;
  /// BCP probes spent (two per fully-probed candidate).
  std::uint64_t probes = 0;
  /// Effort of the burn-in solve (zero when it was skipped). Its work is
  /// part of the refutation: the conquer workers inherit what it learnt.
  smt::SolverStats burnin;
  /// The model the burn-in and the probes ran on, left warm. Conquer
  /// workers clone it (it must not be solved while they do).
  std::unique_ptr<core::UfdiAttackModel> prober;
};

/// Splits `model`'s instance on its topology-poisoning terms by bounded
/// lookahead. The burn-in and the probes run on a clone (returned, warm, as
/// CubeSet::prober), so `model` itself is only read. TermRefs are stable
/// across clones (a clone is a copy), so the returned cubes are valid
/// assumption lists for any clone of `model` or of the prober. The burn-in
/// runs under `budget`'s deadline and stop token (its conflict limit is
/// options.burnin_conflicts); if either fires during the burn-in, the split
/// returns no cubes.
[[nodiscard]] CubeSet split_cubes(const core::UfdiAttackModel& model,
                                  const CubeOptions& options = {},
                                  const smt::Budget& budget = {});

}  // namespace psse::runtime
