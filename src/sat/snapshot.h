// Shared clause database for multi-solver verification.
//
// CnfStore is an append-only recording ClauseSink: the encode layer emits
// straight into it — in a UpecContext it is the only original copy of the
// CNF — and any number of worker solvers hydrate from it. CnfSnapshot is an immutable
// view of a store prefix — (num_vars, num_clauses) bounds taken at a point in
// time — so a worker can be brought up to a well-defined cut of the formula
// regardless of what the encoder appends afterwards. Incremental catch-up is
// cursor-based: a worker that already consumed a prefix only replays the
// delta, which is what makes per-check hydration cheap in the Alg. 1 / Alg. 2
// loops (the formula grows by a handful of activation clauses per iteration).
//
// Thread-safety: appends and reads are serialized on an internal mutex. The
// intended protocol is single-producer (the encoding thread, between
// scheduler barriers) / multi-consumer (worker hydration), but the store does
// not depend on that discipline for memory safety.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "sat/clause_sink.h"

namespace upec::sat {

class CnfStore;

// Immutable view of the first `num_clauses` clauses / `num_vars` variables of
// a CnfStore. Cheap to copy; valid as long as the store outlives it.
class CnfSnapshot {
public:
  CnfSnapshot() = default;

  int num_vars() const { return num_vars_; }
  std::size_t num_clauses() const { return num_clauses_; }

  // Identity of the backing store (0 for a default-constructed snapshot).
  // Two snapshots with equal bounds but different store ids describe
  // different formulas — consumers that cache per-snapshot state (replay
  // cursors, serialized DIMACS, verdicts) must key on this.
  std::uint64_t store_id() const;

  // Iterates the snapshot's clauses in emission order.
  void for_each_clause(const std::function<void(const std::vector<Lit>&)>& fn) const;

  // Same, but only clauses in [first, num_clauses). Lets a consumer that
  // already processed a prefix walk just the delta.
  void for_each_clause(std::size_t first,
                       const std::function<void(const std::vector<Lit>&)>& fn) const;

  // Replay position of a sink that is being kept in sync with a store.
  struct Cursor {
    int vars = 0;
    std::size_t clauses = 0;
  };

  // Replays the delta between `cursor` and this snapshot into `sink` and
  // advances the cursor. Returns false if the sink reported trivial UNSAT.
  // The cursor must belong to a sink that has only ever been fed from this
  // snapshot's store (same variable numbering).
  bool load_into(ClauseSink& sink, Cursor& cursor) const;
  bool load_into(ClauseSink& sink) const {
    Cursor cursor;
    return load_into(sink, cursor);
  }

private:
  friend class CnfStore;
  CnfSnapshot(const CnfStore* store, int vars, std::size_t clauses)
      : store_(store), num_vars_(vars), num_clauses_(clauses) {}

  const CnfStore* store_ = nullptr;
  int num_vars_ = 0;
  std::size_t num_clauses_ = 0;
};

class CnfStore final : public ClauseSink {
public:
  CnfStore() = default;
  CnfStore(const CnfStore&) = delete;
  CnfStore& operator=(const CnfStore&) = delete;

  Var new_var() override;
  bool add_clause(const std::vector<Lit>& lits) override;
  using ClauseSink::add_clause;
  int num_vars() const override;

  std::size_t num_clauses() const;

  // Process-unique, never reused (monotone counter starting at 1). See
  // CnfSnapshot::store_id().
  std::uint64_t id() const { return id_; }

  // Immutable view of everything emitted so far.
  CnfSnapshot snapshot() const;

private:
  friend class CnfSnapshot;

  struct ClauseRange {
    std::size_t offset;   // into arena_; size_t so multi-gigaclause stores can't wrap
    std::uint32_t size;
  };

  static std::uint64_t next_id();

  const std::uint64_t id_ = next_id();
  mutable std::mutex mu_;
  int num_vars_ = 0;
  std::vector<Lit> arena_;
  std::vector<ClauseRange> clauses_;
};

} // namespace upec::sat
