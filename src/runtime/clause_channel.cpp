#include "runtime/clause_channel.h"

#include "smt/common.h"

namespace psse::runtime {

ClauseChannel::ClauseChannel(std::size_t capacity) : capacity_(capacity) {
  PSSE_CHECK(capacity > 0, "ClauseChannel: capacity == 0");
}

smt::ClauseExchange* ClauseChannel::make_endpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  // Late joiners start with cursor 0 and import the ring's backlog on
  // their first solve — sibling clauses learnt before the endpoint existed
  // are still valid for the shared formula.
  const std::uint32_t id = static_cast<std::uint32_t>(endpoints_.size());
  endpoints_.push_back(std::unique_ptr<Endpoint>(new Endpoint(this, id)));
  return endpoints_.back().get();
}

void ClauseChannel::publish(std::uint32_t producer,
                            const std::vector<smt::Lit>& lits,
                            std::uint32_t lbd) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t seq = published_.load(std::memory_order_relaxed);
  if (ring_.size() == capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
  ring_.push_back({seq, producer, lbd, lits});
  // Release pairs with the acquire in published(): an endpoint that sees
  // the new count will find the entry in the ring (or count it dropped).
  published_.store(seq + 1, std::memory_order_release);
}

std::uint64_t ClauseChannel::drain(std::uint64_t cursor,
                                   std::uint32_t consumer,
                                   std::vector<std::vector<smt::Lit>>& out) {
  out.clear();
  std::lock_guard<std::mutex> lock(mu_);
  // Ring is seq-ordered; skip the prefix the consumer has already seen.
  for (const Entry& e : ring_) {
    if (e.seq < cursor || e.producer == consumer) continue;
    out.push_back(e.lits);
  }
  // Read under the lock: exactly the entries visited above lie below it.
  return published_.load(std::memory_order_relaxed);
}

std::uint64_t ClauseChannel::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

}  // namespace psse::runtime
