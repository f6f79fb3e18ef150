#include "core/implication.h"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/attack_model.h"

namespace psse::core {

namespace {

/// `v` in ascending order: the list itself when it already is (every delta
/// and witness the service builds), else a sorted copy held in `scratch`.
template <typename T>
const std::vector<T>& ascending(const std::vector<T>& v,
                                std::vector<T>& scratch) {
  if (std::is_sorted(v.begin(), v.end())) return v;
  scratch = v;
  std::sort(scratch.begin(), scratch.end());
  return scratch;
}

template <typename T>
bool disjoint(const std::vector<T>& a, const std::vector<T>& b) {
  std::vector<T> sa, sb;
  const std::vector<T>& x = ascending(a, sa);
  const std::vector<T>& y = ascending(b, sb);
  std::size_t i = 0, j = 0;
  while (i < x.size() && j < y.size()) {
    if (x[i] < y[j]) {
      ++i;
    } else if (y[j] < x[i]) {
      ++j;
    } else {
      return false;
    }
  }
  return true;
}

template <typename T>
bool contains_all(const std::vector<T>& big, const std::vector<T>& small) {
  std::vector<T> sb, ss;
  const std::vector<T>& x = ascending(big, sb);
  const std::vector<T>& y = ascending(small, ss);
  return std::includes(x.begin(), x.end(), y.begin(), y.end());
}

/// Does a cap admit `used` elements? 0 is unlimited.
bool admits(int cap, std::size_t used) {
  return cap == 0 || used <= static_cast<std::size_t>(cap);
}

/// Is `cap` at least as tight as `than`? 0 is unlimited.
bool as_tight(int cap, int than) {
  return than == 0 || (cap > 0 && cap <= than);
}

}  // namespace

bool same_goal(const ScenarioDelta& a, const ScenarioDelta& b) {
  return a.target_states == b.target_states &&
         a.attack_only_targets == b.attack_only_targets &&
         a.distinct_changes == b.distinct_changes &&
         a.require_any_state_attack == b.require_any_state_attack &&
         a.max_measurement_delta == b.max_measurement_delta;
}

bool witness_implies(const ScenarioDelta& solved, const AttackVector& witness,
                     const ScenarioDelta& point) {
  if (!same_goal(solved, point)) return false;
  if (!admits(point.max_altered_measurements,
              witness.altered_measurements.size()) ||
      !admits(point.max_compromised_buses,
              witness.compromised_buses.size()) ||
      !admits(point.max_topology_changes, witness.excluded_lines.size() +
                                              witness.included_lines.size())) {
    return false;
  }
  if (!disjoint(witness.altered_measurements, point.secured_measurements) ||
      !disjoint(witness.compromised_buses, point.secured_buses)) {
    return false;
  }
  // The encoder asserts the shift only for a positive threshold, as
  // |dtheta_t| >= to_rational(threshold) on every target.
  if (point.min_target_shift > 0.0) {
    const smt::Rational eps = to_rational(point.min_target_shift);
    for (grid::BusId t : point.target_states) {
      const std::size_t j = static_cast<std::size_t>(t);
      if (j >= witness.delta_theta.size()) return false;
      smt::Rational shift = witness.delta_theta[j];
      if (shift.is_negative()) shift.negate();
      if (shift < eps) return false;
    }
  }
  return true;
}

bool refutation_implies(const ScenarioDelta& refuted,
                        const ScenarioDelta& point) {
  return same_goal(refuted, point) &&
         as_tight(point.max_altered_measurements,
                  refuted.max_altered_measurements) &&
         as_tight(point.max_compromised_buses,
                  refuted.max_compromised_buses) &&
         as_tight(point.max_topology_changes, refuted.max_topology_changes) &&
         to_rational(point.min_target_shift) >=
             to_rational(refuted.min_target_shift) &&
         contains_all(point.secured_measurements,
                      refuted.secured_measurements) &&
         contains_all(point.secured_buses, refuted.secured_buses);
}

}  // namespace psse::core
