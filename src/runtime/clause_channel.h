// Bounded thread-safe learned-clause sharing channel.
//
// One ClauseChannel is shared by a fleet of sibling solvers (portfolio
// members or parallel CEGIS workers) operating on clones of one model.
// Each solver attaches through its own Endpoint (smt::ClauseExchange):
// exports append to a bounded ring under a mutex; imports drain every
// entry the endpoint has not seen yet, skipping the endpoint's own
// exports. When the ring is full the oldest entry is dropped — sharing is
// best-effort by design, so a slow importer can never stall or bloat the
// fleet, it just misses old clauses.
//
// Sequence numbers are monotone across drops, which gives endpoints an
// O(1) has_pending(): entries published since the endpoint's cursor,
// minus its own exports since then, is exactly the number of sibling
// clauses it has not imported (whether or not they are still in the
// ring).
//
// Thread-safety: channel state is mutex-protected (plus a lock-free
// published-count fast path for has_pending); each Endpoint's cursor is
// owned by its solver's thread, per the ClauseExchange contract.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "smt/clause_exchange.h"

namespace psse::runtime {

class ClauseChannel final : public smt::ClauseExchangeHub {
 public:
  /// `capacity` bounds the ring (entries, not literals); 0 is rejected.
  explicit ClauseChannel(std::size_t capacity = 4096);

  class Endpoint;
  /// Creates this solver's attachment point. The channel owns it; the
  /// pointer stays valid for the channel's lifetime, and each endpoint is
  /// single-owner (one solver thread).
  [[nodiscard]] smt::ClauseExchange* make_endpoint() override;

  /// Lifetime clause count accepted into the ring (monotone across drops).
  [[nodiscard]] std::uint64_t published() const {
    return published_.load(std::memory_order_acquire);
  }
  /// Entries evicted because the ring was full.
  [[nodiscard]] std::uint64_t dropped() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  friend class Endpoint;
  struct Entry {
    std::uint64_t seq;
    std::uint32_t producer;
    std::uint32_t lbd;
    std::vector<smt::Lit> lits;
  };

  void publish(std::uint32_t producer, const std::vector<smt::Lit>& lits,
               std::uint32_t lbd);
  /// Copies the sibling entries from `cursor` on into `out` and returns
  /// the cursor after them.
  std::uint64_t drain(std::uint64_t cursor, std::uint32_t consumer,
                      std::vector<std::vector<smt::Lit>>& out);

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::deque<Entry> ring_;          // seq-ordered; front is oldest
  std::atomic<std::uint64_t> published_{0};  // == seq of the next entry
  std::uint64_t dropped_ = 0;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
};

/// A solver's view of the channel; plugs into SatOptions::exchange. All
/// methods are called from the owning solver's thread only.
class ClauseChannel::Endpoint final : public smt::ClauseExchange {
 public:
  void export_clause(const std::vector<smt::Lit>& lits,
                     std::uint32_t lbd) override {
    channel_->publish(id_, lits, lbd);
    ++own_since_cursor_;
  }

  [[nodiscard]] bool has_pending() const override {
    // Everything published since our cursor, minus what we published
    // ourselves, was authored by siblings (drops don't reset sequence
    // numbers, so this also counts clauses already evicted — a harmless
    // over-approximation that triggers one empty drain at worst).
    return channel_->published() - cursor_ > own_since_cursor_;
  }

  void import_clauses(std::vector<std::vector<smt::Lit>>& out) override {
    // The new cursor comes from the drain itself: a sibling may publish
    // between the drain and any later read of published(), and those
    // clauses must stay pending.
    cursor_ = channel_->drain(cursor_, id_, out);
    own_since_cursor_ = 0;
  }

 private:
  friend class ClauseChannel;
  Endpoint(ClauseChannel* channel, std::uint32_t id)
      : channel_(channel), id_(id) {}

  ClauseChannel* channel_;
  std::uint32_t id_;
  std::uint64_t cursor_ = 0;         // first sequence number not yet seen
  std::uint64_t own_since_cursor_ = 0;
};

}  // namespace psse::runtime
