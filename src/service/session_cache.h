// SolverSessionCache: persistent warm UfdiAttackModel instances keyed by
// family fingerprint (grid + measurement layout + base spec).
//
// A *session* is a kBase-mode attack model: the structural constraint
// system encoded once, ready to answer any ScenarioDelta of its family via
// push/pop (keeping its learnt-clause database across queries). The cache
// maps family key -> a bag of idle sessions; acquire() checks one out (or
// builds one on miss), the returned RAII Lease checks it back in. Sessions
// are exclusive while leased — solver instances are not thread-safe — but
// any number of leases of the *same family* can be live at once: the cache
// simply grows another instance, so concurrent workers never serialise on
// a hot family.
//
// Ownership: each family entry owns a copy of its base Scenario (the grid
// the models reference), held by shared_ptr. A Lease keeps its family
// alive, so evicting a family with outstanding leases is safe — the models
// drain and die with the last lease instead of dangling. Leases reach the
// cache through a weak_ptr to its shared state, so a lease that outlives
// the cache itself just drops its session.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/attack_model.h"
#include "core/scenario.h"

namespace psse::service {

class SolverSessionCache {
 public:
  struct Options {
    /// Maximum *idle* sessions resident across all families; the
    /// least-recently-used idle session is dropped beyond this. Leased
    /// sessions are not counted (they are bounded by the worker count).
    std::size_t max_idle_sessions = 32;
  };

  struct Stats {
    std::uint64_t hits = 0;        // acquire served by a warm idle session
    std::uint64_t misses = 0;      // acquire had to encode a fresh session
    std::uint64_t evictions = 0;   // idle sessions dropped over capacity
    std::size_t idle_sessions = 0;
    std::size_t families = 0;
  };

  class Lease {
   public:
    Lease() = default;
    Lease(Lease&&) noexcept = default;
    /// Checks this lease's own session back in first, then takes over.
    Lease& operator=(Lease&& other) noexcept;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    /// Checks the session back in (or drops it if the cache is gone).
    ~Lease();

    [[nodiscard]] bool valid() const { return model_ != nullptr; }
    /// Warm reuse: the session answered a previous query of this family.
    [[nodiscard]] bool hit() const { return hit_; }
    [[nodiscard]] core::UfdiAttackModel& model() { return *model_; }

   private:
    friend class SolverSessionCache;
    struct Family;
    struct State;
    Lease(std::weak_ptr<State> state, std::shared_ptr<Family> family,
          std::unique_ptr<core::UfdiAttackModel> model, bool hit)
        : state_(std::move(state)),
          family_(std::move(family)),
          model_(std::move(model)),
          hit_(hit) {}
    /// Checks the session back in (or drops it if the cache is gone) and
    /// leaves the lease empty.
    void release();

    std::weak_ptr<State> state_;
    std::shared_ptr<Family> family_;
    std::unique_ptr<core::UfdiAttackModel> model_;
    bool hit_ = false;
  };

  SolverSessionCache() : SolverSessionCache(Options{}) {}
  explicit SolverSessionCache(const Options& options);
  SolverSessionCache(const SolverSessionCache&) = delete;
  SolverSessionCache& operator=(const SolverSessionCache&) = delete;

  /// Checks out a warm session for `familyKey`, encoding a fresh one from
  /// `base` on miss (the base scenario is copied into the family on first
  /// sight; later calls with the same key ignore it). Model construction
  /// runs outside the cache lock, so concurrent misses encode in parallel.
  [[nodiscard]] Lease acquire(std::uint64_t familyKey,
                              const core::Scenario& base);

  [[nodiscard]] Stats stats() const;

 private:
  std::shared_ptr<Lease::State> state_;
};

}  // namespace psse::service
