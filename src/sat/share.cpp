#include "sat/share.h"

namespace upec::sat {

void ClauseChannel::publish(unsigned source, const std::vector<Lit>& lits, unsigned lbd) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry e;
  e.source = source;
  e.lbd = lbd;
  e.offset = arena_.size();
  e.size = static_cast<std::uint32_t>(lits.size());
  arena_.insert(arena_.end(), lits.begin(), lits.end());
  entries_.push_back(e);
  count_.store(entries_.size(), std::memory_order_release);
}

std::size_t ClauseChannel::collect(unsigned reader, std::size_t& cursor,
                                   std::vector<SharedClause>& out) const {
  // Fast path: nothing published since this reader's cursor — one atomic
  // load, no lock. This is the overwhelmingly common case at restart
  // boundaries of a worker that is ahead of its peers.
  if (count_.load(std::memory_order_acquire) <= cursor) return 0;

  std::lock_guard<std::mutex> lock(mu_);
  std::size_t appended = 0;
  for (std::size_t i = cursor; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (e.source == reader) continue;
    SharedClause sc;
    sc.lits.assign(arena_.begin() + static_cast<std::ptrdiff_t>(e.offset),
                   arena_.begin() + static_cast<std::ptrdiff_t>(e.offset + e.size));
    sc.lbd = e.lbd;
    out.push_back(std::move(sc));
    ++appended;
  }
  cursor = entries_.size();
  return appended;
}

std::size_t ClauseChannel::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return arena_.capacity() * sizeof(Lit) + entries_.capacity() * sizeof(Entry);
}

} // namespace upec::sat
