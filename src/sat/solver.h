// From-scratch CDCL SAT solver.
//
// This is the decision engine underneath the IPC layer: every UPEC-SSC
// property check bit-blasts to one incremental SAT query. The design follows
// the classic MiniSat architecture (Eén & Sörensson):
//   - two-watched-literal propagation,
//   - first-UIP conflict analysis with clause minimization,
//   - focused-then-stable decisions with phase saving: every solve() starts
//     in focused mode, which decides the newest variable of a VMTF queue
//     (variable move-to-front; Biere & Fröhlich, SAT 2015), and a call that
//     reaches kStableAfterConflicts conflicts finishes on the VSIDS heap,
//     like CaDiCaL's and Kissat's focused and stable modes (Oh, SAT 2015).
//     Most incremental queries here end within a few dozen conflicts, where
//     the queue decides with no heap work; the rare hard query finishes on
//     VSIDS (see kStableAfterConflicts). The queue is a slot array with a
//     bitset of the slots that hold an unassigned variable, so the newest
//     free variable is found a 64-bit word at a time (see "decision order"),
//   - Luby-sequence restarts,
//   - chronological backtracking for long backjumps (Nadel & Ryvchin,
//     SAT 2018; Möhle & Biere, SAT 2019), which keeps the trail out of
//     level order — see uncheckedEnqueue/propagate/cancel_until,
//   - learned-clause database reduction driven by LBD (glue),
//   - solving under assumptions for incremental use (the Alg. 1 / Alg. 2
//     loops re-solve the same transition relation with shrinking state sets,
//     so clauses are kept across calls and only the assumption set changes),
//   - MiniSat's clause-allocator layout: each clause is one record in a
//     single word arena, its header inline before its literals, so a watcher
//     visit touches one memory region (see "clause storage" below),
//   - a literal-indexed value table, so reading a literal's value is one
//     load with no sign flip,
//   - binary implications straight from the watcher: a binary clause's
//     blocker is its other literal, so its watcher is tagged and propagate
//     enqueues the blocker without touching the arena (Glucose and CaDiCaL
//     keep binaries in the watcher the same way). A binary reason therefore
//     puts its implied literal first lazily, where reasons are read.
#pragma once

#include <bit>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "sat/clause_sink.h"
#include "sat/types.h"

namespace upec::sat {

struct SolverStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned_clauses = 0;
  std::uint64_t deleted_clauses = 0;
  std::uint64_t solve_calls = 0;
  // Conflicts whose learnt clause would have jumped back more than
  // Solver::kChronoThreshold levels and that backtracked only to the level
  // below the conflict instead.
  std::uint64_t chrono_backtracks = 0;
  // Live learnt clauses kept by drop_problem_clauses, summed over calls.
  std::uint64_t carried_learnts = 0;
  // Learned-clause sharing (zero unless hooks are installed, see below).
  std::uint64_t exported_clauses = 0;
  std::uint64_t imported_clauses = 0;
};

inline SolverStats& operator+=(SolverStats& a, const SolverStats& b) {
  a.decisions += b.decisions;
  a.propagations += b.propagations;
  a.conflicts += b.conflicts;
  a.restarts += b.restarts;
  a.learned_clauses += b.learned_clauses;
  a.deleted_clauses += b.deleted_clauses;
  a.solve_calls += b.solve_calls;
  a.chrono_backtracks += b.chrono_backtracks;
  a.carried_learnts += b.carried_learnts;
  a.exported_clauses += b.exported_clauses;
  a.imported_clauses += b.imported_clauses;
  return a;
}

// Delta between two cumulative snapshots (after - before), for per-check and
// per-worker accounting.
inline SolverStats operator-(SolverStats a, const SolverStats& b) {
  a.decisions -= b.decisions;
  a.propagations -= b.propagations;
  a.conflicts -= b.conflicts;
  a.restarts -= b.restarts;
  a.learned_clauses -= b.learned_clauses;
  a.deleted_clauses -= b.deleted_clauses;
  a.solve_calls -= b.solve_calls;
  a.chrono_backtracks -= b.chrono_backtracks;
  a.carried_learnts -= b.carried_learnts;
  a.exported_clauses -= b.exported_clauses;
  a.imported_clauses -= b.imported_clauses;
  return a;
}

// Periodic progress heartbeat, surfaced every N conflicts through the hook
// installed with set_progress_hook(). Purely observational: the solver's
// search is identical with or without a hook installed (the deadline
// remaining is *sampled* for the report, never branched on here).
struct SolverProgress {
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learnts = 0; // live learnt clauses right now
  // Milliseconds until the installed deadline fires; negative once past it;
  // nullopt when no deadline is installed.
  std::optional<std::int64_t> deadline_remaining_ms;
};
using ProgressHook = std::function<void(const SolverProgress&)>;

// A learnt clause in transit between solvers (see sat/share.h). The LBD rides
// along so the importer can slot the clause into its reduce_db policy without
// recomputing glue against levels it never saw.
struct SharedClause {
  std::vector<Lit> lits;
  std::uint32_t lbd = 0;
};

class Solver final : public ClauseSink, public ModelSource {
public:
  Solver();

  // --- Problem construction (ClauseSink) -------------------------------------
  Var new_var() override;
  int num_vars() const override { return static_cast<int>(vals_.size() / 2); }

  // Adds a clause; returns false if the formula became trivially UNSAT.
  bool add_clause(const std::vector<Lit>& lits) override;
  using ClauseSink::add_clause;

  // Deletes every problem (non-learnt) clause and keeps everything else:
  // learnt and imported clauses, root-level facts, variables with their
  // activity, queue position and saved phases, stats and configuration.
  // Root facts whose reason was a problem clause become reasonless facts.
  // Used when a backend switches to a new simplified generation of its
  // formula (see SolverBackend::sync): the caller then adds the whole
  // generation on top, and the kept state stays sound because every kept
  // clause and fact is implied by the formula the new generation simplifies.
  void drop_problem_clauses();

  // --- Solving ---------------------------------------------------------------
  // Solve under the given assumptions. Clauses persist across calls.
  bool solve(const std::vector<Lit>& assumptions = {});

  // After solve() returned true: value of a variable in the model. Variables
  // created after the solve read as false.
  bool model_value(Var v) const {
    const auto i = static_cast<std::size_t>(v);
    return i < model_.size() && model_[i] == LBool::True;
  }
  bool model_value(Lit l) const override { return model_value(l.var()) != l.sign(); }

  // After solve() returned false: a deduplicated, sorted subset of the
  // assumption literals responsible for the UNSAT answer (the "final
  // conflict" core). Guarantees:
  //   * every returned literal was passed in `assumptions` verbatim,
  //   * re-solving under the returned subset alone is again UNSAT,
  //   * assumptions that were merely *implied* by others are traced through
  //     their reason clauses back to genuine assumption decisions (each
  //     reason is walked at most once), so they never appear in the core.
  // Empty when the formula is UNSAT independent of the assumptions.
  const std::vector<Lit>& conflict_assumptions() const { return conflict_; }

  const SolverStats& stats() const { return stats_; }

  // Iterates all live problem (non-learnt) clauses; used by the DIMACS dump,
  // model validation in tests, and debugging tooling. Unit clauses absorbed
  // into level-0 assignments are reported as single-literal clauses.
  void for_each_problem_clause(const std::function<void(const std::vector<Lit>&)>& fn) const;

  // After a satisfiable solve: checks the model against every problem clause
  // and level-0 unit; returns the number of violated clauses (0 = valid).
  std::size_t validate_model() const;

  // Budget: abort solve() (returning UNSAT=false is wrong, so solve() throws
  // SolverInterrupted) after this many conflicts. 0 = no limit.
  void set_conflict_budget(std::uint64_t budget) { conflict_budget_ = budget; }

  // Wall-clock deadline: solve() throws SolverInterrupted{Deadline} once the
  // clock passes `t`. Checked at solve entry, at every restart boundary, and
  // every 512 conflicts (restart intervals grow with the Luby sequence, so a
  // long UNSAT proof would otherwise overshoot the deadline unboundedly).
  // This is the same deadline machinery supervised subprocess backends get
  // from the OS — in-proc solvers honor it cooperatively. Persists across
  // solve() calls until cleared.
  void set_deadline(std::chrono::steady_clock::time_point t) { deadline_ = t; }
  void clear_deadline() { deadline_.reset(); }

  // Progress heartbeat: invoke `hook` whenever the cumulative conflict count
  // is a multiple of `every_conflicts` (0 or an empty hook disarms it). The
  // hook runs on the solving thread, inside the conflict loop — keep it
  // cheap and never let it touch the solver.
  void set_progress_hook(ProgressHook hook, std::uint64_t every_conflicts) {
    progress_hook_ = std::move(hook);
    progress_every_ = progress_hook_ ? every_conflicts : 0;
  }

  bool okay() const { return ok_; }

  // --- learned-clause sharing --------------------------------------------------
  // Export: called at learn time for every learnt clause with LBD <= lbd_cap
  // and size <= size_cap (units export with LBD 1). The clause is implied by
  // the clause database alone — assumptions are decisions, never premises —
  // so it is sound to add it to any solver whose database is a superset.
  using ExportHook = std::function<void(const std::vector<Lit>&, unsigned lbd)>;
  void set_export_hook(ExportHook hook, unsigned lbd_cap, std::uint32_t size_cap) {
    export_hook_ = std::move(hook);
    export_lbd_cap_ = lbd_cap;
    export_size_cap_ = size_cap;
  }

  // Import: called at restart boundaries (solve() entry and every Luby
  // restart) to drain foreign clauses. Import never perturbs in-flight
  // analysis: when the hook yields clauses the solver first backtracks to the
  // root level, attaches them there (simplified against root facts), and only
  // then re-propagates — the decision loop redoes the assumptions.
  using ImportHook = std::function<void(std::vector<SharedClause>&)>;
  void set_import_hook(ImportHook hook) { import_hook_ = std::move(hook); }

  // Number of distinct values among `levels`. This is the LBD ("glue") count
  // of a learnt clause given its literals' decision levels. Levels 0..127 go
  // through a two-word bitmap; deeper levels use an exact small-set fallback
  // (a learnt clause rarely spans >128 distinct levels). Public + static so
  // regression tests can pin the level-aliasing bug class directly.
  static unsigned distinct_level_count(const std::vector<int>& levels);

  // A learnt clause whose asserting level lies more than this many levels
  // below the conflict level backtracks chronologically: only to the level
  // below the conflict, with the asserting literal assigned at its real
  // (lower) level. Long backjumps otherwise undo — and phase saving then
  // redoes — nearly the whole trail on every conflict of a deep incremental
  // query. The value follows Nadel & Ryvchin's default; on the Alg. 1
  // benchmark workload every threshold from 0 to 300 cuts propagations ~3x.
  static constexpr int kChronoThreshold = 100;

  // Conflicts after which one solve() call leaves focused mode (VMTF queue)
  // for stable mode (VSIDS heap) until it returns; the next call starts
  // focused again. On the Alg. 1 benchmark workload one query in 126
  // reaches it (the median takes 17 conflicts). Without the switch one
  // Alg. 2 query took 67,180 conflicts, where none takes more than 3,161
  // under VSIDS.
  static constexpr std::uint64_t kStableAfterConflicts = 1000;

  // --- observability for tests -------------------------------------------------
  // Learnt-DB reduction threshold (default 8192, grows 10% per reduction).
  void set_max_learnts(std::uint64_t n) { max_learnts_ = n; }
  // Words in the clause arena: every stored clause's header, literals and,
  // for learnt clauses, LBD and activity words (see "clause storage").
  std::size_t arena_size() const { return lit_arena_.size(); }
  // Bytes the arena has reserved, the memory gauge behind
  // SolverBackend::arena_bytes.
  std::size_t arena_bytes() const { return lit_arena_.capacity() * sizeof(Lit); }
  // Live learnt clauses currently attached — the database the incremental
  // sweeps retain across rounds and iterations (reported by the verifier).
  std::size_t num_learnts() const { return learnts_.size(); }
  // Arena words owned by deleted clauses, headers included. Bounded by
  // garbage collection in reduce_db: never exceeds 1/4 of the arena.
  std::size_t arena_garbage() const { return garbage_lits_; }
  // Clause records in the arena, deleted ones included until the next
  // garbage collection.
  std::size_t allocated_clauses() const;
  // Compacts the arena in place, sliding every live record down over the
  // deleted ones in arena order, and remaps every live ClauseRef (watchers,
  // learnts_, trail reasons). reduce_db runs it once a quarter of the arena
  // is dead; a call at any other time leaves the search as it was, since
  // records, their literals, watch lists and learnts_ all keep their order.
  void garbage_collect();
  // Compacts the decision queue: drops the holes that moved variables left,
  // renumbers the slots 0..n-1 in queue order and rebuilds the free-slot
  // bits, keeping the order itself. Runs by itself once the queue reaches
  // 2n+64 slots; public so tests can check that it leaves the search as it
  // was.
  void renumber_queue();

  // The arena bound behind alloc_clause, which throws std::length_error in
  // every build when it fails: a new clause of `num_lits` literals fits after
  // `arena_words` words if its size fits the header and its whole record
  // (header, literals, learnt trailer) ends within kMaxArenaWords, so every
  // header offset stays below the watcher's binary tag bit.
  static constexpr std::size_t kMaxArenaWords = std::size_t{1} << 31;
  static constexpr bool clause_fits(std::size_t arena_words, std::size_t num_lits) {
    return num_lits < (std::size_t{1} << 30) && arena_words <= kMaxArenaWords &&
           num_lits + 3 <= kMaxArenaWords - arena_words;
  }

private:
  // --- clause storage ----------------------------------------------------------
  // Every stored clause is one record in lit_arena_, whose 32-bit slots hold
  // either a literal or a raw word (read and written via word/set_word):
  //   [header] [lit 0] ... [lit size-1] ([lbd] [activity])
  // The header is `size << 2 | deleted << 1 | learnt`; the two trailing words
  // exist only for learnt clauses and hold the LBD and the activity's float
  // bits. A problem clause thus costs one word beyond its literals, a learnt
  // clause three. Clauses of fewer than two literals are never stored.
  // A ClauseRef is the offset of a record's header word, always below
  // kMaxArenaWords (2^31); reasons and learnts_ hold it untagged.
  //
  // A watcher in watches_[p] belongs to a clause containing ~p; its blocker
  // is another literal of that clause. A binary clause's watcher carries
  // kBinaryTag in its cref, and its blocker is always the clause's other
  // literal, so propagate implies or refutes it from the watcher alone and
  // never reorders the binary record when it implies. Literal order inside
  // a binary record is therefore lazy: propagate still swaps a conflicting
  // binary so that lits[1] == ~p, and the readers of reasons (analyze,
  // lit_redundant, analyze_final) swap a binary reason's implied literal into
  // lits[0] before they skip it. Conflict analysis, minimization and cores
  // thus read the order an eager swap at implication time would have left;
  // only for_each_problem_clause may list a binary's literals the other way.
  using ClauseRef = std::uint32_t;
  static constexpr ClauseRef kNoClause = std::numeric_limits<ClauseRef>::max();
  static constexpr ClauseRef kBinaryTag = ClauseRef{1} << 31;

  struct Watcher {
    ClauseRef cref;  // header offset, | kBinaryTag for a binary clause
    Lit blocker;
  };

  struct VarInfo {
    ClauseRef reason = kNoClause;
    std::int32_t level = 0;
  };

  // --- internals -------------------------------------------------------------
  std::uint32_t word(std::size_t i) const {
    return static_cast<std::uint32_t>(lit_arena_[i].index());
  }
  void set_word(std::size_t i, std::uint32_t w) {
    lit_arena_[i] = Lit::from_index(static_cast<std::int32_t>(w));
  }
  Lit* clause_lits(ClauseRef c) { return lit_arena_.data() + c + 1; }
  const Lit* clause_lits(ClauseRef c) const { return lit_arena_.data() + c + 1; }
  std::uint32_t clause_size(ClauseRef c) const { return word(c) >> 2; }
  bool is_learnt(ClauseRef c) const { return (word(c) & 1u) != 0; }
  bool is_deleted(ClauseRef c) const { return (word(c) & 2u) != 0; }
  // Arena words of the record at `c`: header, literals, learnt trailer.
  std::size_t record_words(ClauseRef c) const {
    return 1 + std::size_t{clause_size(c)} + (is_learnt(c) ? 2 : 0);
  }
  std::uint32_t clause_lbd(ClauseRef c) const { return word(c + 1 + clause_size(c)); }
  float clause_activity(ClauseRef c) const {
    return std::bit_cast<float>(word(c + 2 + clause_size(c)));
  }
  void set_clause_activity(ClauseRef c, float a) {
    set_word(c + 2 + clause_size(c), std::bit_cast<std::uint32_t>(a));
  }

  LBool value(Var v) const { return vals_[2 * static_cast<std::size_t>(v)]; }
  LBool value(Lit l) const { return vals_[static_cast<std::size_t>(l.index())]; }
  // Swaps the implied literal of the reason `c` into lits[0]; only a binary
  // reason can hold it in lits[1] (see "clause storage").
  Lit* reason_lits(ClauseRef c, Lit implied) {
    Lit* lits = clause_lits(c);
    if (lits[0] != implied) std::swap(lits[0], lits[1]);
    return lits;
  }

  // Appends a record; `lbd` is stored only for learnt clauses.
  ClauseRef alloc_clause(const std::vector<Lit>& lits, bool learnt, std::uint32_t lbd = 0);
  // Sets the deleted flag and counts the record as garbage. The caller has
  // detached it (or is about to rebuild every watch list).
  void delete_clause(ClauseRef c);
  void attach_clause(ClauseRef c);
  void detach_clause(ClauseRef c);

  int level(Var v) const { return var_info_[static_cast<std::size_t>(v)].level; }

  // Assigns p at `level`, which may lie below decision_level(): the trail is
  // ordered by assignment time, not by level (chronological backtracking).
  // An implied literal's level is the highest level among the other
  // literals of its reason.
  void uncheckedEnqueue(Lit p, int level, ClauseRef from) {
    assert(value(p) == LBool::Undef);
    assert(level <= decision_level());
    vals_[static_cast<std::size_t>(p.index())] = LBool::True;
    vals_[static_cast<std::size_t>((~p).index())] = LBool::False;
    var_info_[static_cast<std::size_t>(p.var())] = VarInfo{from, level};
    queue_clear_free(queue_slot_[static_cast<std::size_t>(p.var())]);
    trail_.push_back(p);
  }
  // Drains the import hook into import_buf_; if clauses arrived, backtracks
  // to the root and attaches them. Returns false on a root-level conflict
  // (the formula, shared clauses included, is UNSAT outright).
  bool import_foreign();
  ClauseRef propagate();
  // Highest level among the (all false) literals of `confl`. Moves the two
  // highest-level literals into the watched slots, highest first. `forced`
  // is set when lits[0] alone sits on the conflict level: below it the
  // clause is unit on lits[0].
  int conflict_level(ClauseRef confl, bool& forced);
  void analyze(ClauseRef confl, std::vector<Lit>& out_learnt, int& out_btlevel, unsigned& out_lbd);
  bool lit_redundant(Lit p, std::uint32_t abstract_levels);
  void analyze_final(Lit p);
  // Unassigns every literal above level `target`. Literals at or below it
  // that sit later on the trail than the level's start stay assigned and
  // are re-queued for propagation.
  void cancel_until(int target);
  // Focused mode picks the newest unassigned variable of the queue, stable
  // mode the most active one of the heap.
  Lit pick_branch_lit();
  void reduce_db();
  void var_bump_activity(Var v);
  void var_decay_activity() { var_inc_ *= (1.0 / 0.95); }
  void cla_bump_activity(ClauseRef c);

  int decision_level() const { return static_cast<int>(trail_lim_.size()); }

  // decision queue (focused mode; see "decision order" below)
  void queue_set_free(std::uint32_t slot) {
    queue_free_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
  }
  void queue_clear_free(std::uint32_t slot) {
    queue_free_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  }
  // Puts v into a new slot at the newest end, compacting first if the
  // queue is full of holes.
  void queue_append(Var v);
  // Leaves a hole in v's slot and appends v again.
  void queue_move_to_front(Var v);
#ifndef NDEBUG
  // The queue invariants behind pick_branch_lit: each slot's bit is set
  // iff the slot holds an unassigned variable, the slot a variable names
  // holds it, and no slot above queue_search_ holds an unassigned variable.
  bool queue_invariants_hold() const;
#endif
  // Leaves focused mode: fills the heap with the unassigned variables.
  void switch_to_stable();

  // order heap (binary max-heap on activity; stable mode only)
  void heap_insert(Var v);
  void heap_update(Var v);
  Var heap_pop();
  bool heap_empty() const { return heap_.empty(); }
  void heap_percolate_up(int i);
  void heap_percolate_down(int i);
  bool heap_lt(Var a, Var b) const { return activity_[a] > activity_[b]; }

  static double luby(double y, int x);
  // Restart pacing: conflicts-until-restart is luby(2, k) * kRestartUnit
  // (MiniSat's pacing).
  static constexpr unsigned kRestartUnit = 100;

  // --- state -----------------------------------------------------------------
  bool ok_ = true;
  std::vector<Lit> lit_arena_;  // clause records; see "clause storage"
  std::vector<ClauseRef> learnts_;
  std::vector<std::vector<Watcher>> watches_; // indexed by literal index

  std::vector<LBool> vals_;   // indexed by literal index: the literal's value
  std::vector<LBool> model_;
  std::vector<signed char> phase_; // saved phase per var (< 0 = negative)
  std::vector<VarInfo> var_info_;
  std::vector<double> activity_;
  std::vector<char> seen_;
  std::vector<Lit> analyze_stack_;
  std::vector<Lit> analyze_toclear_;
  std::vector<Lit> learnt_clause_;  // solve() scratch: the clause analyze learns
  std::vector<Lit> kept_;  // cancel_until scratch
  std::vector<Lit> add_sorted_;  // add_clause scratch: the sorted input
  std::vector<Lit> add_kept_;    // add_clause scratch: the literals kept

  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  std::size_t qhead_ = 0;

  // --- decision order ------------------------------------------------------------
  // Focused mode: queue_order_ lists every variable in bump order, oldest
  // first. New variables and the variables each conflict analysis bumps are
  // appended to a new slot at the back (the newest end), leaving a hole
  // (kUndefVar) in the slot they left; analyze appends its batch in old-slot
  // order, so the batch keeps its relative order. A slot's bit in
  // queue_free_ is set iff it holds an unassigned variable: uncheckedEnqueue
  // clears it and cancel_until sets it. No slot above queue_search_ holds an
  // unassigned variable, so pick_branch_lit takes the highest set bit at or
  // below it, a 64-bit word at a time, and cancel_until raises it to any
  // higher slot it frees. Once holes make the array 2n+64 slots long,
  // renumber_queue compacts it.
  // Stable mode: heap_ holds every unassigned variable by activity.
  // Activities are bumped and decayed in both modes, the queue and its bits
  // are kept in both modes, and the heap is touched only in stable mode and
  // rebuilt on each switch.
  std::vector<Var> queue_order_;           // slot -> variable or hole
  std::vector<std::uint32_t> queue_slot_;  // variable -> its slot
  // One bit per slot; at least one word, so pick_branch_lit can always read one.
  std::vector<std::uint64_t> queue_free_ = std::vector<std::uint64_t>(1);
  std::size_t queue_search_ = 0;
  // analyze scratch: this conflict's bumps, each a variable (low 32 bits)
  // that becomes a `slot << 32 | var` sort key before the move.
  std::vector<std::uint64_t> bumped_;
  bool stable_ = false;

  std::vector<int> heap_;     // heap of vars
  std::vector<int> heap_pos_; // var -> index in heap_ or -1

  std::vector<Lit> assumptions_;
  std::vector<Lit> conflict_;

  double var_inc_ = 1.0;
  float cla_inc_ = 1.0f;
  std::uint64_t max_learnts_ = 8192;
  std::uint64_t conflict_budget_ = 0;
  std::optional<std::chrono::steady_clock::time_point> deadline_;

  // Learned-clause sharing (inert unless hooks installed).
  ExportHook export_hook_;
  unsigned export_lbd_cap_ = 0;
  std::uint32_t export_size_cap_ = 0;
  ImportHook import_hook_;
  std::vector<SharedClause> import_buf_;

  // Progress heartbeat (inert unless installed).
  ProgressHook progress_hook_;
  std::uint64_t progress_every_ = 0;

  std::vector<int> lbd_levels_;     // scratch for the per-conflict LBD count
  std::size_t garbage_lits_ = 0;    // arena words held by deleted clauses

  SolverStats stats_;
};

// Thrown when a solve() is aborted without an answer; callers treat it as
// "unknown". The reason distinguishes resource exhaustion (budget) from the
// wall-clock deadline (reported upward as `timed_out`).
struct SolverInterrupted {
  enum class Reason : std::uint8_t { Budget, Deadline };
  Reason reason = Reason::Budget;
};

} // namespace upec::sat
