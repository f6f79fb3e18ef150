#include "runtime/cube.h"

#include <algorithm>
#include <cstddef>
#include <utility>

namespace psse::runtime {

using smt::TermRef;

CubeSet split_cubes(const core::UfdiAttackModel& model,
                    const CubeOptions& options, const smt::Budget& budget) {
  CubeSet out;
  out.prober = model.clone();
  core::UfdiAttackModel& prober = *out.prober;
  std::vector<TermRef> candidates = prober.cube_candidate_terms();

  if (options.burnin_conflicts > 0) {
    // Burn-in: a conflict-bounded solve concentrates branching activity on
    // the contested variables. If it finishes inside the budget the whole
    // split is moot — the instance was easy.
    smt::Budget burnin = budget;
    burnin.max_conflicts = options.burnin_conflicts;
    const smt::Interrupt abort = smt::Interrupt::from(burnin);
    const core::VerificationResult warm =
        prober.verify_with_assumptions({}, burnin);
    out.burnin = warm.stats;
    if (warm.result == smt::SolveResult::Unsat) {
      out.refuted = true;
      return out;
    }
    if (warm.result == smt::SolveResult::Sat) return out;  // race re-finds
    if (abort.triggered()) return out;  // the caller's time is up
    std::vector<std::pair<double, TermRef>> ranked;
    ranked.reserve(candidates.size());
    for (TermRef t : candidates) {
      ranked.emplace_back(prober.term_activity(t), t);
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& a, const auto& b) {
                       return a.first > b.first;
                     });
    for (std::size_t i = 0; i < ranked.size(); ++i) {
      candidates[i] = ranked[i].second;
    }
  }

  struct Scored {
    TermRef term;
    std::uint64_t score;
  };
  std::vector<Scored> scored;
  scored.reserve(candidates.size());
  for (TermRef t : candidates) {
    if (out.probes >= options.max_probes) break;
    const int pos = prober.probe_term(t);
    const int neg = prober.probe_term(~t);
    out.probes += 2;
    if (pos < 0 && neg < 0) {
      // Both phases conflict at level 0: the instance is UNSAT already.
      out.refuted = true;
      out.cubes.clear();
      out.forced.clear();
      return out;
    }
    if (pos < 0) {
      out.forced.push_back(~t);
      continue;
    }
    if (neg < 0) {
      out.forced.push_back(t);
      continue;
    }
    if (pos == 0 && neg == 0) continue;  // inert either way: useless split
    // Two-sided lookahead score, min-biased: a good split variable forces
    // many consequences in *both* phases (a one-sided cascade just makes
    // one cube trivial and leaves the other as hard as the original).
    const auto lo = static_cast<std::uint64_t>(std::min(pos, neg));
    const auto hi = static_cast<std::uint64_t>(std::max(pos, neg));
    scored.push_back({t, (lo << 12) + hi});
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const Scored& a, const Scored& b) {
                     return a.score > b.score;
                   });

  std::uint32_t depth = options.depth;
  while (depth > 0 && (1ull << depth) > options.max_cubes) --depth;
  if (scored.size() < depth) depth = static_cast<std::uint32_t>(scored.size());
  if (depth == 0) return out;  // nothing to split on: caller races instead

  out.cubes.reserve(1ull << depth);
  for (std::uint64_t mask = 0; mask < (1ull << depth); ++mask) {
    std::vector<TermRef> cube = out.forced;
    cube.reserve(out.forced.size() + depth);
    for (std::uint32_t k = 0; k < depth; ++k) {
      const TermRef t = scored[k].term;
      cube.push_back((mask >> k) & 1u ? t : ~t);
    }
    out.cubes.push_back(std::move(cube));
  }
  return out;
}

}  // namespace psse::runtime
