// Simplifier: SatELite-style CNF preprocessing over an immutable CnfSnapshot
// (Eén & Biere, "Effective Preprocessing in SAT through Variable and Clause
// Elimination" — the same lineage the CDCL solver itself follows).
//
// The sweep loops hydrate the *same* bit-blasted transition relation into
// every scheduler worker and then burn ~10^8 propagations on it per bench
// row. Preprocessing shrinks that formula once, on the calling thread, and
// the saving pays off in every worker, every solve, every iteration. Three
// techniques run to a fixed point under deterministic effort budgets:
//
//   * backward subsumption + self-subsuming resolution (strengthening) —
//     equivalence-preserving clause removal / literal removal, guided by
//     64-bit clause signatures;
//   * bounded variable elimination (BVE): a non-frozen variable is resolved
//     away when the non-tautological resolvent count does not exceed the
//     number of removed clauses plus a growth budget; the removed clauses go
//     onto a reconstruction stack;
//   * failed-literal probing at root level: assume l, propagate; a conflict
//     asserts ~l as a root unit.
//
// Soundness contract, in two halves:
//
//   1. Frozen variables. Everything the caller will ever assume, read from a
//      model, or otherwise address by name must be declared frozen — the
//      encode/upec layers own that list (Miter::frozen_vars,
//      UpecContext::frozen_vars). Frozen variables are never eliminated and
//      therefore mean the same thing in the simplified formula. Assuming an
//      *eliminated* variable would silently constrain nothing, which is why
//      the frozen set is a soundness input, not a tuning knob. Subsumption,
//      strengthening and probing are equivalence-preserving, so they need no
//      protection: every clause of the simplified formula is a consequence
//      of the original, and the two formulas agree on all frozen variables.
//      Consequences: UNSAT under assumptions over frozen vars transfers to
//      the original formula verbatim, a SAT model's frozen-variable values
//      are original-formula values as-is, and learnt clauses may flow freely
//      between solvers holding different generations (or the original).
//
//   2. Reconstruction. reconstruct(model) replays the elimination stack in
//      reverse, fixing each eliminated variable so its removed clauses are
//      satisfied (always possible: the resolvents were in the formula the
//      model satisfies). The result is a model of the *original* formula, so
//      validate_model-style checks answer in original terms. Only needed
//      when a caller wants values of non-frozen variables — the sweep
//      harvest reads frozen diff literals only and skips it.
//
// Generation caching: simplify() memoizes on (store id, cursor, frozen set).
// A repeated call with the same input prefix and a frozen set that is a
// *subset* of the cached one returns the cached generation without work —
// this is what makes "simplify once per iteration" one real simplification
// per Alg. 1 run (the store freezes after iteration 0 and the frontier only
// shrinks). Each generation is materialized into a fresh private CnfStore,
// so downstream consumers see a new store id: DIMACS caches invalidate, and
// in-proc backends switch generations while keeping their learnt clauses
// (sat/backend.h). A call that misses the cache because the store grew (the
// next Alg. 2 frame) does not start over: it simplifies only the new clauses,
// on top of the cached generation (below).
//
// Incremental generations (Nadel, Ryvchin & Strichman, "Preprocessing in
// Incremental SAT", SAT 2012; Fazekas, Biere & Scholl, "Incremental
// Inprocessing in SAT Solving", SAT 2019). A real run whose input has the
// cached generation's store id and a cursor that extends it builds on that
// generation instead of starting over; any other real run builds on an
// empty generation, which is the same code with the whole input as delta.
//
//   * Delta rule. The run loads the previous generation's output clauses
//     and root facts as old work, then the raw clauses from the old cursor
//     to the new one. Old clauses enter no work list; the subsumption queue
//     starts with the delta and restored clauses, BVE tries only variables
//     whose clauses changed (those clauses mark them, and so does every
//     clause added, shrunk or deleted during the run; a variable the
//     previous run marked but had no round left for carries over, and so
//     does one the previous generation froze and this one does not), and
//     probing assumes only literals of marked variables. Budgets are per
//     run, as before.
//   * Restore rule. An eliminated variable comes back when a delta clause
//     mentions it or the new frozen set names it: its saved clauses are
//     added again and its entry leaves the elimination stack. Restoring is
//     transitive — a still-eliminated variable that a restored clause
//     mentions comes back too. Such a variable was eliminated later than
//     the one restored (when an entry is pushed, the formula holds no
//     eliminated variable), so one forward walk over the stack closes the
//     set. The restored clauses imply every resolvent their elimination
//     added, so a verbatim copy of one still in the formula (an old output
//     clause, or a clause restored for a later entry) is deleted and counted
//     as subsumed; without this, a restored variable that is not eliminated
//     again would leave its resolvents behind as dead weight. The
//     reconstruction stack is the remaining old entries, in order, followed
//     by the new run's entries; root facts only accumulate.
//   * Soundness. The old output is the projection of the old prefix onto
//     the variables it did not eliminate, and no remaining eliminated
//     variable occurs in the delta, the restored clauses or the frozen set,
//     so eliminating them commutes with adding the delta: the new output is
//     the projection of the new prefix, and reconstruct() still replays a
//     stack whose every entry mentions only variables that are live or
//     eliminated later.
//
// The output is a function of the sequence of calls, not of the last input
// alone. A first call, or a call on another store, runs on an empty
// generation and depends on its input only (Simplify.OutputPinned* pin it).
//
// Determinism: all effort budgets are operation counters, never wall clock,
// and every pass iterates in a fixed order — the output formula is a pure
// function of the options and the sequence of (input formula, frozen set)
// calls since the last run on an empty generation. The scheduler relies on
// this for thread-count-independent frontiers.
//
// Memory: storage follows the flat MiniSat/SatELite layout. A run's working
// database keeps every literal in one arena; each clause is a 16-byte record
// (signature, start, size, deleted flag) over its slice. Strengthening and
// root propagation shrink a slice in place, deletion only sets the flag, and
// nothing is allocated per clause; a counting pass sizes each occurrence
// list before the clauses are loaded. The reconstruction stack is flat too: one
// literal vector with per-clause offsets and per-entry variable/first-clause
// indices; restoring compacts it in place. A real run (not a cache hit)
// frees the previous generation's store as soon as its clauses are loaded,
// before the new store is materialized, so two output stores never coexist;
// the old stack becomes the new one. After the run the freed working
// database is handed back to the operating system (malloc_trim on glibc).
// SimplifyStats::db_bytes and elim_bytes gauge both (exported as
// sat.simplify.db_bytes / sat.simplify.elim_bytes).
//
// Thread-safety: none. simplify() runs on the scheduler's calling thread
// between fan-out barriers; the returned snapshot is then read concurrently
// through CnfSnapshot's own locking. The snapshot is valid until the *next*
// simplify() call that starts a new generation; that call frees it once it
// has read it, so it must not be passed back in as the input.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sat/snapshot.h"
#include "sat/types.h"

namespace upec::sat {

struct SimplifyOptions {
  bool subsumption = true;
  bool bve = true;
  bool probing = true;
  // Fixed-point rounds cap per run (each round: subsume, eliminate, probe).
  unsigned max_rounds = 3;
  // BVE: skip variables with more than this many occurrences in either
  // polarity (the classic quadratic-blowup guard).
  std::size_t bve_occurrence_cap = 10;
  // BVE: eliminate only if #resolvents <= #removed clauses + bve_growth.
  int bve_growth = 0;
  // Literal-comparison budget for the subsumption pass, per run. Exhaustion
  // stops the pass cleanly (fewer clauses removed, never a wrong formula).
  std::uint64_t subsumption_budget = 50'000'000;
  // Propagation-step budget for failed-literal probing, per run.
  std::uint64_t probe_budget = 20'000'000;
};

struct SimplifyStats {
  std::uint64_t runs = 0;    // real simplifications
  std::uint64_t reuses = 0;  // generation-cache hits
  std::uint64_t rounds = 0;  // fixed-point rounds across all runs
  // Eliminations summed over runs: a variable that a later run restores and
  // eliminates again counts twice. live_eliminated is one generation's size.
  std::uint64_t eliminated_vars = 0;
  // Current generation's elimination-stack entries (variables eliminated in
  // this or an earlier run and not restored since).
  std::uint64_t live_eliminated = 0;
  // Eliminated variables brought back because new clauses mention them or
  // the caller froze them, summed over runs.
  std::uint64_t restored_vars = 0;
  // Raw clauses loaded on top of a previous generation, summed over runs (a
  // run on an empty generation counts none).
  std::uint64_t delta_clauses = 0;
  // Tripwire: eliminations of frozen variables. Any nonzero value is a bug
  // in the frozen-set plumbing (asserted 0 by tests, among them the
  // test_determinism preprocessing legs).
  std::uint64_t frozen_eliminations = 0;
  std::uint64_t subsumed_clauses = 0;
  std::uint64_t strengthened_clauses = 0;
  std::uint64_t failed_literals = 0;
  std::uint64_t fixed_vars = 0;  // root-level assignments discovered
  std::uint64_t resolvents_added = 0;
  // Last run's input/output formula sizes.
  int input_vars = 0;
  std::size_t input_clauses = 0;
  std::uint64_t input_literals = 0;
  std::size_t output_clauses = 0;
  std::uint64_t output_literals = 0;
  // Last run's peak reserved bytes of its working database: literal arena,
  // clause records and occurrence lists (all only grow during a run).
  std::uint64_t db_bytes = 0;
  // Reserved bytes of the current generation's reconstruction stack.
  std::uint64_t elim_bytes = 0;
  double seconds = 0.0;  // summed over runs
};

class Simplifier {
public:
  explicit Simplifier(SimplifyOptions options = {});
  ~Simplifier();
  Simplifier(const Simplifier&) = delete;
  Simplifier& operator=(const Simplifier&) = delete;

  // Simplifies `snap` under the frozen-variable contract above and returns a
  // snapshot of an internally-owned store holding the simplified formula
  // (same variable numbering; eliminated variables simply stop occurring).
  // Root-level facts are emitted as unit clauses, so hydrating the result
  // into a fresh solver reproduces them. If simplification refutes the
  // formula outright the result contains an empty clause. The returned
  // snapshot is invalidated by the next simplify() call that misses the
  // generation cache, which frees it once its clauses are loaded.
  CnfSnapshot simplify(const CnfSnapshot& snap, const std::vector<Var>& frozen);

  // Extends/repairs a model of the current generation into a model of the
  // original snapshot: overwrites root-fixed variables with their forced
  // values, then replays the elimination stack in reverse, flipping each
  // eliminated variable where needed. `model` is indexed by Var and is
  // resized to the input formula's variable count.
  void reconstruct(std::vector<bool>& model) const;

  // True iff the current generation was refuted outright during
  // simplification (the emitted formula is the empty clause).
  bool output_unsat() const { return unsat_; }

  const SimplifyStats& stats() const { return stats_; }

private:
  struct Work;  // one run's working state (simplify.cpp)

  // Reconstruction stack, flat: entry e eliminated vars[e] and saved clauses
  // first[e] .. first[e + 1] - 1 (the last entry runs to the end); clause i
  // is lits[starts[i] .. starts[i + 1]) (the last one runs to lits.size()).
  struct ElimStack {
    std::vector<Var> vars;
    std::vector<std::uint32_t> first;
    std::vector<std::uint32_t> starts;
    std::vector<Lit> lits;

    std::size_t entry_end(std::size_t e) const {
      return e + 1 < first.size() ? first[e + 1] : starts.size();
    }
    std::span<const Lit> clause(std::size_t i) const {
      const std::size_t end = i + 1 < starts.size() ? starts[i + 1] : lits.size();
      return {lits.data() + starts[i], end - starts[i]};
    }
    std::size_t bytes() const;
  };

  SimplifyOptions options_;
  SimplifyStats stats_;

  // Current generation: simplified store + reconstruction state.
  std::unique_ptr<CnfStore> out_;
  ElimStack elim_;
  std::vector<LBool> root_assigns_;
  // Variables whose clauses changed after BVE last tried them: the rounds
  // ran out first. The next generation tries them again.
  std::vector<char> retry_;
  bool unsat_ = false;

  // Generation-cache key: input identity + the frozen set the generation was
  // computed under (reusable for any frozen subset).
  std::uint64_t in_store_id_ = 0;
  CnfSnapshot::Cursor in_cursor_;
  std::vector<char> frozen_flags_;
};

} // namespace upec::sat
