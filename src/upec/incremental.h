// UNSAT-core frontier pruning for the Alg. 1 / Alg. 2 sweeps.
//
// When a candidate's activation query comes back UNSAT, the refuting
// assumption core C proves: the formula together with C's equivalence/macro
// assumptions entails ~diff(j) for every candidate j the query enabled.
// (Selector literals in C are irrelevant: any model of F ∧ C_eq/macro ∧
// diff(j) extends to the selector variables by enabling j alone — the
// implication e_j → diff(j) is satisfied because diff(j) already holds, and
// selectors occur nowhere else except positively in the group chain — so it
// satisfies every selector literal a core could contain, the positively
// assumed e_j included. See README "Incremental sweeps".) That fact outlives
// the iteration: as long as every assumption in C is assumed again, j cannot
// re-enter the frontier, so a later sweep at the same frame may skip j
// without solving anything. Per-candidate queries make these cores precise —
// each mentions only the eq assumptions that one refutation needs, so
// shrinking S elsewhere rarely invalidates them.
//
// FrontierPruner records, per (frame, candidate), the justification split
// into eq-assumption state variables and the remaining (macro) assumption
// literals, and filters candidate lists against the assumptions of the
// current query. No stability assumption is made about macro literals — a
// justification only fires when each of its literals is literally present in
// the current assumption set.
//
// Pruning never changes a verdict or a frontier: a pruned candidate is
// exactly one whose diff query is already proven UNSAT under (a subset of)
// the current assumptions, i.e. one the sweep would refute again. It only
// removes re-proving work, which is what keeps the determinism contract of
// ipc/scheduler.h intact (pinned by test_determinism / test_incremental).
//
// The records also feed the CNF. A record (sv, j) with core C proves
// F ∧ C ⊨ ¬diff(sv, j), which Alg. 2 needs again at every later frame: the
// state at j is what frame j + 1 is computed from. take_unemitted hands each
// record out once, when a sweep at a later frame starts, and the sweep
// writes it into the store as a guarded equality lemma
// (Miter::equality_lemma). entailed() is the one test of whether a record
// applies to the current query: filter prunes with it, and the structural
// pass (upec/sweep.h) treats an entailed record at an earlier frame as proof
// that the state variable is equal there.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "encode/miter.h"
#include "upec/state_sets.h"

namespace upec {

class FrontierPruner {
public:
  // One refutation's reusable part: the eq-assumption state variables and
  // every other non-selector assumption literal of the core.
  struct Justification {
    std::vector<rtlir::StateVarId> eq_svs;
    std::vector<sat::Lit> other_lits;
  };

  // One refutation of `sv` at `frame`, as take_unemitted hands it out.
  struct Record {
    unsigned frame = 0;
    rtlir::StateVarId sv = 0;
    std::shared_ptr<const Justification> just;
  };

  // Records that every sv in `enabled` was refuted at `frame` under `just`
  // (shared across the group — cores justify each enabled candidate
  // individually, see the header comment).
  void record(unsigned frame, const std::vector<rtlir::StateVarId>& enabled, Justification just);

  // The latest justification recorded for (frame, sv) if the current query
  // entails it — every justification eq-sv in `eq_assumed` and every other
  // justification literal in `assumption_lits` (keyed by Lit::index) — and
  // null otherwise.
  const Justification* entailed(unsigned frame, rtlir::StateVarId sv,
                                const std::unordered_set<rtlir::StateVarId>& eq_assumed,
                                const std::unordered_set<std::int32_t>& assumption_lits) const;

  // Splits `members` into candidates that must still be swept (`eligible`,
  // order preserved) and candidates whose recorded justification is entailed
  // by the current query (entailed() above). Accumulates the pruned count.
  void filter(unsigned frame, const std::vector<rtlir::StateVarId>& members,
              const std::unordered_set<rtlir::StateVarId>& eq_assumed,
              const std::unordered_set<std::int32_t>& assumption_lits,
              std::vector<rtlir::StateVarId>& eligible, std::vector<rtlir::StateVarId>& pruned);

  std::uint64_t total_pruned() const { return total_pruned_; }

  // Moves out every record made at a frame below `frame` that no earlier
  // call handed out, in record order. A (frame, sv) recorded twice is
  // handed out once per core.
  std::vector<Record> take_unemitted(unsigned frame);

private:
  static std::uint64_t key(unsigned frame, rtlir::StateVarId sv) {
    return (static_cast<std::uint64_t>(frame) << 32) | sv;
  }

  // Latest justification per (frame, candidate). Shared pointers because one
  // group refutation justifies every enabled member.
  std::unordered_map<std::uint64_t, std::shared_ptr<const Justification>> just_;
  // Every record not yet handed out by take_unemitted, in record order.
  std::vector<Record> unemitted_;
  std::uint64_t total_pruned_ = 0;
};

} // namespace upec
