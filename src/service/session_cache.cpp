#include "service/session_cache.h"

#include <utility>

namespace psse::service {

// A family bundles the scenario its models reference (grid lifetime!) with
// the idle sessions of that family. `last_used` drives cross-family LRU
// eviction of idle sessions.
struct SolverSessionCache::Lease::Family {
  Family(std::uint64_t key, core::Scenario base)
      : key(key), base(std::move(base)) {}

  std::uint64_t key;
  core::Scenario base;
  struct Idle {
    std::unique_ptr<core::UfdiAttackModel> model;
    std::uint64_t last_used = 0;
  };
  std::vector<Idle> idle;
};

// The cache's shared state. Leases hold a weak_ptr, so check-in after the
// cache died locks to null and the session is simply dropped.
struct SolverSessionCache::Lease::State {
  Options options;
  mutable std::mutex mu;
  std::unordered_map<std::uint64_t, std::shared_ptr<Family>> families;
  std::uint64_t tick = 0;  // LRU clock for idle eviction
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t idle_count = 0;

  void checkin(const std::shared_ptr<Family>& family,
               std::unique_ptr<core::UfdiAttackModel> model) {
    std::lock_guard<std::mutex> lock(mu);
    // A family evicted wholesale while this lease was out is no longer in
    // the map; re-inserting would resurrect a stale entry, so drop.
    auto it = families.find(family->key);
    if (it == families.end() || it->second != family) return;
    family->idle.push_back({std::move(model), ++tick});
    ++idle_count;
    while (idle_count > options.max_idle_sessions) {
      // Evict the globally least-recently-used idle session.
      Family* victim = nullptr;
      std::size_t victim_slot = 0;
      std::uint64_t oldest = UINT64_MAX;
      for (auto& [key, fam] : families) {
        for (std::size_t s = 0; s < fam->idle.size(); ++s) {
          if (fam->idle[s].last_used < oldest) {
            oldest = fam->idle[s].last_used;
            victim = fam.get();
            victim_slot = s;
          }
        }
      }
      if (victim == nullptr) break;
      victim->idle.erase(victim->idle.begin() +
                         static_cast<std::ptrdiff_t>(victim_slot));
      --idle_count;
      ++evictions;
    }
    // Families with no idle sessions stay in the map: each is one Scenario
    // and keeps the base alive for leases still in flight.
  }
};

SolverSessionCache::SolverSessionCache(const Options& options)
    : state_(std::make_shared<Lease::State>()) {
  state_->options = options;
}

SolverSessionCache::Lease SolverSessionCache::acquire(
    std::uint64_t familyKey, const core::Scenario& base) {
  std::shared_ptr<Lease::Family> family;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    auto it = state_->families.find(familyKey);
    if (it == state_->families.end()) {
      it = state_->families
               .emplace(familyKey,
                        std::make_shared<Lease::Family>(familyKey, base))
               .first;
    }
    family = it->second;
    if (!family->idle.empty()) {
      std::unique_ptr<core::UfdiAttackModel> model =
          std::move(family->idle.back().model);
      family->idle.pop_back();
      --state_->idle_count;
      ++state_->hits;
      return Lease(state_, std::move(family), std::move(model), true);
    }
    ++state_->misses;
  }
  // Encode outside the lock: fresh sessions of different families (or even
  // the same family under concurrent misses) build in parallel.
  auto model = std::make_unique<core::UfdiAttackModel>(
      family->base.grid, family->base.plan,
      core::strip_delta(family->base.spec), core::EncodeMode::kBase);
  return Lease(state_, std::move(family), std::move(model), false);
}

SolverSessionCache::Lease& SolverSessionCache::Lease::operator=(
    Lease&& other) noexcept {
  if (this != &other) {
    release();
    state_ = std::move(other.state_);
    family_ = std::move(other.family_);
    model_ = std::move(other.model_);
    hit_ = other.hit_;
  }
  return *this;
}

SolverSessionCache::Lease::~Lease() { release(); }

void SolverSessionCache::Lease::release() {
  if (model_ == nullptr) return;
  if (auto state = state_.lock()) {
    state->checkin(family_, std::move(model_));
  }
  model_.reset();
}

SolverSessionCache::Stats SolverSessionCache::stats() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  Stats s;
  s.hits = state_->hits;
  s.misses = state_->misses;
  s.evictions = state_->evictions;
  s.idle_sessions = state_->idle_count;
  s.families = state_->families.size();
  return s;
}

}  // namespace psse::service
