// ClauseChannel: lock-minimal learned-clause exchange between the worker
// solvers of one ipc::CheckScheduler.
//
// Every worker hydrates from the same CnfStore, so a learnt clause derived by
// one worker is implied by every other worker's clause database (learnt
// clauses are consequences of the database alone — assumptions enter CDCL as
// decisions, never as premises). Sharing them is therefore sound, and it
// attacks the measured T-SCALE-MT cost: chunked per-worker saturation
// re-proves ~2-2.5x of the UNSAT CPU that a single big disjunction proves
// once, largely through re-derived conflict clauses.
//
// Protocol:
//  * Producers publish at learn time, pre-filtered by the exporting solver to
//    LBD <= lbd_cap() and size <= size_cap() (glue clauses travel, noise
//    stays home).
//  * Consumers collect with a private cursor and see only foreign clauses
//    (their own exports are skipped). Import happens at the importer's
//    restart boundaries (sat::Solver::set_import_hook), never mid-analysis.
//  * "Lock-minimal": the common collect case — nothing new since the cursor —
//    is a single acquire load, no mutex. Publishes and non-empty collects
//    serialize on one short critical section around the append-only arena.
//
// The channel is append-only for the lifetime of a scheduler; entries are a
// few dozen literals each (size-capped), so memory stays far below the
// per-worker clause databases they deduplicate; the scheduler reports it as
// the `sat.channel.bytes` gauge.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "sat/solver.h"

namespace upec::sat {

class ClauseChannel {
public:
  // Defaults follow the Glucose lineage: share real glue (small LBD), bound
  // the payload so pathological long clauses never travel.
  static constexpr unsigned kDefaultLbdCap = 6;
  static constexpr std::uint32_t kDefaultSizeCap = 32;

  explicit ClauseChannel(unsigned lbd_cap = kDefaultLbdCap,
                         std::uint32_t size_cap = kDefaultSizeCap)
      : lbd_cap_(lbd_cap), size_cap_(size_cap) {}
  ClauseChannel(const ClauseChannel&) = delete;
  ClauseChannel& operator=(const ClauseChannel&) = delete;

  unsigned lbd_cap() const { return lbd_cap_; }
  std::uint32_t size_cap() const { return size_cap_; }

  // Appends `lits` (a learnt clause of worker `source`) to the channel.
  void publish(unsigned source, const std::vector<Lit>& lits, unsigned lbd);

  // Appends to `out` every clause published since `*cursor` by a worker
  // other than `reader`, then advances the cursor. Returns the number of
  // clauses appended.
  std::size_t collect(unsigned reader, std::size_t& cursor,
                      std::vector<SharedClause>& out) const;

  // Total clauses ever published (all sources).
  std::size_t published() const { return count_.load(std::memory_order_acquire); }

  // Bytes reserved by the arena and the entry index (capacity, not size).
  std::size_t bytes() const;

private:
  struct Entry {
    std::uint32_t source;
    std::uint32_t lbd;
    std::size_t offset;  // into arena_
    std::uint32_t size;
  };

  const unsigned lbd_cap_;
  const std::uint32_t size_cap_;
  mutable std::mutex mu_;
  // Published entry count, readable without the mutex: written with release
  // after the entry is fully in place, read with acquire by the collect fast
  // path.
  std::atomic<std::size_t> count_{0};
  std::vector<Lit> arena_;
  std::vector<Entry> entries_;
};

} // namespace upec::sat
