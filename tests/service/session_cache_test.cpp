// SolverSessionCache: hit/miss accounting, cross-family LRU eviction,
// lease lifetime edge cases, and a concurrent stress run (TSan-covered via
// the runtime label).
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/scenario.h"
#include "grid/ieee_cases.h"
#include "service/session_cache.h"

namespace psse::service {
namespace {

using grid::cases::ieee14;
using grid::cases::paper_plan14;
using smt::SolveResult;

core::Scenario objective2() {
  core::Scenario sc;
  sc.grid = ieee14();
  sc.plan = paper_plan14(sc.grid);
  sc.spec.target_states = {11};
  sc.spec.attack_only_targets = true;
  return sc;
}

core::Scenario untargeted() {
  core::Scenario sc;
  sc.grid = ieee14();
  sc.plan = paper_plan14(sc.grid);
  sc.spec.allow_topology_attacks = true;  // structurally distinct family
  return sc;
}

std::uint64_t family_of(const core::Scenario& sc) {
  return core::family_fingerprint(sc.grid, sc.plan, sc.spec);
}

TEST(SessionCache, MissThenHit) {
  SolverSessionCache cache;
  const core::Scenario sc = objective2();
  const std::uint64_t key = family_of(sc);
  {
    SolverSessionCache::Lease lease = cache.acquire(key, sc);
    ASSERT_TRUE(lease.valid());
    EXPECT_FALSE(lease.hit());
    core::ScenarioDelta delta = core::ScenarioDelta::of(sc.spec);
    EXPECT_EQ(lease.model().verify_delta(delta).result, SolveResult::Sat);
  }
  {
    SolverSessionCache::Lease lease = cache.acquire(key, sc);
    EXPECT_TRUE(lease.hit());
    core::ScenarioDelta delta = core::ScenarioDelta::of(sc.spec);
    delta.secured_measurements = {45};
    EXPECT_EQ(lease.model().verify_delta(delta).result, SolveResult::Unsat);
  }
  const SolverSessionCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.families, 1u);
  EXPECT_EQ(s.idle_sessions, 1u);
}

TEST(SessionCache, ConcurrentLeasesOfOneFamilyGrowSessions) {
  SolverSessionCache cache;
  const core::Scenario sc = objective2();
  const std::uint64_t key = family_of(sc);
  SolverSessionCache::Lease a = cache.acquire(key, sc);
  SolverSessionCache::Lease b = cache.acquire(key, sc);  // a still out
  EXPECT_FALSE(a.hit());
  EXPECT_FALSE(b.hit());
  EXPECT_EQ(cache.stats().misses, 2u);
}

// Move-assigning onto a live lease checks the overwritten session back in
// instead of destroying it, so both encoded sessions stay reusable.
TEST(SessionCache, MoveAssignmentChecksTheTargetIn) {
  SolverSessionCache cache;
  const core::Scenario sc = objective2();
  const std::uint64_t key = family_of(sc);
  {
    SolverSessionCache::Lease a = cache.acquire(key, sc);
    SolverSessionCache::Lease b = cache.acquire(key, sc);
    a = std::move(b);
    EXPECT_TRUE(a.valid());
    EXPECT_EQ(cache.stats().idle_sessions, 1u);
  }
  EXPECT_EQ(cache.stats().idle_sessions, 2u);
  SolverSessionCache::Lease c = cache.acquire(key, sc);
  SolverSessionCache::Lease d = cache.acquire(key, sc);
  EXPECT_TRUE(c.hit());
  EXPECT_TRUE(d.hit());
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(SessionCache, EvictsLruIdleSessionAcrossFamilies) {
  SolverSessionCache cache(SolverSessionCache::Options{1});
  const core::Scenario sc1 = objective2();
  const core::Scenario sc2 = untargeted();
  ASSERT_NE(family_of(sc1), family_of(sc2));
  { SolverSessionCache::Lease l = cache.acquire(family_of(sc1), sc1); }
  { SolverSessionCache::Lease l = cache.acquire(family_of(sc2), sc2); }
  SolverSessionCache::Stats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.idle_sessions, 1u);
  // sc1's session was the LRU victim: sc2 still hits, sc1 must re-encode.
  { EXPECT_TRUE(cache.acquire(family_of(sc2), sc2).hit()); }
  { EXPECT_FALSE(cache.acquire(family_of(sc1), sc1).hit()); }
}

TEST(SessionCache, LeaseMayOutliveCache) {
  auto cache = std::make_unique<SolverSessionCache>();
  const core::Scenario sc = objective2();
  SolverSessionCache::Lease lease = cache->acquire(family_of(sc), sc);
  cache.reset();  // cache dies first
  // The lease still works (it co-owns the family and its scenario) and its
  // check-in quietly drops the session.
  core::ScenarioDelta delta = core::ScenarioDelta::of(sc.spec);
  EXPECT_EQ(lease.model().verify_delta(delta).result, SolveResult::Sat);
}

TEST(SessionCache, ConcurrentMixedFamilies) {
  SolverSessionCache cache(SolverSessionCache::Options{4});
  const core::Scenario sc1 = objective2();
  const core::Scenario sc2 = untargeted();
  constexpr int kThreads = 4;
  constexpr int kIterations = 6;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const core::Scenario& sc = ((t + i) % 2 == 0) ? sc1 : sc2;
        SolverSessionCache::Lease lease =
            cache.acquire(family_of(sc), sc);
        core::ScenarioDelta delta = core::ScenarioDelta::of(sc.spec);
        if (i % 2 == 1) delta.max_altered_measurements = 4;
        const smt::SolveResult r =
            lease.model().verify_delta(delta).result;
        EXPECT_NE(r, SolveResult::Unknown);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const SolverSessionCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses,
            static_cast<std::uint64_t>(kThreads) * kIterations);
  EXPECT_EQ(s.families, 2u);
  EXPECT_LE(s.idle_sessions, 4u);
}

}  // namespace
}  // namespace psse::service
