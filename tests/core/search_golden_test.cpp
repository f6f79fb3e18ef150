// Golden search record: serial verify() on every data/*.scn scenario, with
// the verdict and the search counters pinned to recorded values. The theory
// solver's caches (derive caches, blocking columns, float screens) are meant
// to save work without changing which bounds are emitted or in which order,
// so the CDCL search they feed must not move by a single decision. A change
// that alters the search on purpose updates this table and says so in
// CHANGES.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/attack_model.h"
#include "core/scenario.h"

namespace psse::core {
namespace {

struct GoldenSearch {
  const char* file;
  smt::SolveResult verdict;
  std::uint64_t decisions;
  std::uint64_t conflicts;
  std::uint64_t propagations;
  std::uint64_t theory_propagations;
  std::uint64_t pivots;
  std::uint64_t float_pivots;
  std::uint64_t exact_recomputes;
  std::uint64_t filter_disagreements;
  std::uint64_t bigint_promotions;
};

constexpr smt::SolveResult kSat = smt::SolveResult::Sat;
constexpr smt::SolveResult kUnsat = smt::SolveResult::Unsat;

// file, verdict, decisions, conflicts, propagations, theory propagations,
// pivots, float pivots, exact recomputes, filter disagreements, BigInt
// promotions. The last four are not search counters: they pin where the
// float filter's error bounds let a pivot stay in doubles and where exact
// values leave the inline word, which a change to the number
// representation can shift without moving the search.
const GoldenSearch kGolden[] = {
    {"ieee118_refute.scn", kUnsat, 11167, 544, 63064, 3653, 806,
     693, 9977, 796, 22},
    {"ieee14_magnitude.scn", kUnsat, 69, 2, 322, 56, 0, 0, 58, 0, 0},
    {"ieee14_objective1.scn", kSat, 119, 3, 414, 87, 18, 18, 196, 29, 0},
    {"ieee14_objective2.scn", kSat, 133, 3, 351, 47, 1, 1, 72, 5, 0},
    {"ieee14_objective2_topology.scn", kSat, 192, 6, 476, 58, 4, 4, 93, 14, 0},
    {"ieee14_scenario2_synthesis.scn", kSat, 105, 17, 576, 77, 18,
     16, 587, 138, 0},
    {"ieee30_verification.scn", kSat, 177, 2, 663, 72, 28, 10, 167, 34, 0},
    {"ieee57_synthesis.scn", kSat, 941, 33, 4082, 713, 45, 19, 971, 273, 3},
    {"ieee57_verification.scn", kSat, 3372, 1140, 158213, 16095, 732,
     657, 29523, 2076, 306881},
};

std::vector<std::string> all_scenarios() {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(PSSE_DATA_DIR)) {
    if (entry.path().extension() == ".scn") {
      files.push_back(entry.path().filename().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

const char* verdict_name(smt::SolveResult r) {
  return r == kSat ? "kSat" : (r == kUnsat ? "kUnsat" : "unknown");
}

TEST(SearchGolden, TableCoversEveryScenario) {
  std::vector<std::string> listed;
  for (const GoldenSearch& g : kGolden) listed.emplace_back(g.file);
  EXPECT_EQ(listed, all_scenarios());
}

TEST(SearchGolden, SerialVerifyReplaysTheRecordedSearch) {
  for (const GoldenSearch& g : kGolden) {
    const Scenario sc =
        Scenario::load(std::string(PSSE_DATA_DIR) + "/" + g.file);
    UfdiAttackModel model(sc.grid, sc.plan, sc.spec);
    const VerificationResult r = model.verify();
    // On a mismatch, print the row as it would be recorded.
    SCOPED_TRACE(::testing::Message()
                 << "{\"" << g.file << "\", " << verdict_name(r.result)
                 << ", " << r.stats.sat.decisions << ", "
                 << r.stats.sat.conflicts << ", " << r.stats.sat.propagations
                 << ", " << r.stats.sat.theory_propagations << ", "
                 << r.stats.pivots << ", " << r.stats.float_pivots << ", "
                 << r.stats.exact_recomputes << ", "
                 << r.stats.filter_disagreements << ", "
                 << r.stats.bigint_promotions << "},");
    EXPECT_EQ(r.result, g.verdict);
    EXPECT_EQ(r.stats.sat.decisions, g.decisions);
    EXPECT_EQ(r.stats.sat.conflicts, g.conflicts);
    EXPECT_EQ(r.stats.sat.propagations, g.propagations);
    EXPECT_EQ(r.stats.sat.theory_propagations, g.theory_propagations);
    EXPECT_EQ(r.stats.pivots, g.pivots);
    EXPECT_EQ(r.stats.float_pivots, g.float_pivots);
    EXPECT_EQ(r.stats.exact_recomputes, g.exact_recomputes);
    EXPECT_EQ(r.stats.filter_disagreements, g.filter_disagreements);
    EXPECT_EQ(r.stats.bigint_promotions, g.bigint_promotions);
  }
}

}  // namespace
}  // namespace psse::core
