// Monotone implication between the points of one scenario family
// (DESIGN.md §6f).
//
// Attack feasibility is monotone in the ScenarioDelta axes: loosening a
// resource cap, lowering the demanded target shift or securing fewer meters
// can only admit more attacks, and tightening them can only admit fewer.
// So an answer at one point of a sweep can settle another point outright:
//
//   SAT carries up    — a witness found at one point is itself a model of
//                       any point whose constraints it happens to meet;
//   UNSAT carries down — a refutation covers every point that is at least
//                       as constrained.
//
// Both rules need the two points to share a family (grid, measurement
// layout, base spec — the caller's job) and to ask for the same attack
// goal; the goal fields are never compared by order of strength, only for
// equality. The predicates are pure: no solver is involved.
#pragma once

#include "core/attack_spec.h"
#include "core/attack_vector.h"

namespace psse::core {

/// Do the two deltas ask for the same attack goal? Targets, the
/// only-targets flag, distinct-change pairs, the any-state demand and the
/// per-meter magnitude cap must all be equal (lists compared as written).
[[nodiscard]] bool same_goal(const ScenarioDelta& a, const ScenarioDelta& b);

/// SAT carries up: is `witness`, a model of `solved` on some family, also a
/// model of `point` on that family? True when the goals are equal, none of
/// the witness's altered meters (nor any of its compromised buses) is
/// secured at `point`, the witness fits `point`'s caps — altered meters
/// within T_CZ, compromised buses within T_CB, excluded plus included lines
/// within the topology cap, 0 meaning unlimited — and, when `point` demands
/// a target shift, the witness's exact shift on every target clears it
/// (compared through the encoder's to_rational, never as double).
///
/// The T_CB count is the residence buses of the altered meters, which is
/// what AttackVector::compromised_buses holds: the compromise indicators
/// appear only in the residence closure and the T_CB cap, so setting
/// exactly those buses is always a model when the cap admits them.
[[nodiscard]] bool witness_implies(const ScenarioDelta& solved,
                                   const AttackVector& witness,
                                   const ScenarioDelta& point);

/// UNSAT carries down: does `refuted` being infeasible prove `point`
/// infeasible? True when the goals are equal, each of `point`'s caps is at
/// least as tight (0 meaning unlimited), its demanded target shift is at
/// least as large, and its secured bus and meter sets contain `refuted`'s.
[[nodiscard]] bool refutation_implies(const ScenarioDelta& refuted,
                                      const ScenarioDelta& point);

}  // namespace psse::core
