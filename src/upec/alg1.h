// Algorithm 1 of the paper: the UPEC-SSC fixed-point procedure over the
// 2-cycle property of Fig. 3.
//
//   S ← S_¬victim
//   loop:
//     S_cex ← check(UPEC-SSC(S))
//     if S_cex = ∅            → secure   (S is inductive: unbounded validity)
//     if S_cex ∩ S_pers ≠ ∅   → vulnerable, report S_cex
//     else                     → S ← S \ S_cex
//
// Checks are incremental: the transition relation and all difference/equality
// literals are encoded once; each iteration only swaps the assumption set and
// the violation clause.
#pragma once

#include <optional>
#include <vector>

#include "ipc/cex.h"
#include "ipc/property.h"
#include "sat/backend.h"
#include "sat/simplify.h"
#include "upec/state_sets.h"
#include "util/metrics.h"

namespace upec {

class UpecContext;

enum class Verdict : std::uint8_t { Secure, Vulnerable, Unknown };
const char* verdict_name(Verdict v);

struct IterationLog {
  std::size_t s_size = 0;       // |S| entering the iteration
  std::size_t cex_size = 0;     // |S_cex|
  std::size_t pers_hits = 0;    // |S_cex ∩ S_pers|
  double seconds = 0.0;
  std::uint64_t conflicts = 0;
  ipc::CheckStatus status = ipc::CheckStatus::Unknown;
  std::vector<rtlir::StateVarId> removed;
  // Candidates skipped this iteration because a recorded UNSAT core still
  // refutes them.
  std::size_t pruned = 0;
  // The iteration's Unknown status came from a wall-clock deadline hit
  // (VerifyOptions::deadline_ms) rather than conflict-budget exhaustion.
  bool timed_out = false;
};

// Cumulative solver statistics behind a verification run: every scheduler
// worker (one at threads == 1). Reports aggregate `total` and can break down
// `per_worker`.
struct SolverUsage {
  // Derived from `metrics` below: the sum of every worker (which in turn is
  // the sum of its portfolio members). All
  // aggregation is routed through MetricsSnapshot::merge in
  // collect_solver_usage — nothing sums stats ad hoc anymore.
  sat::SolverStats total;
  std::vector<sat::SolverStats> per_worker;  // one entry per worker
  // Worker w's portfolio-member breakdown (parallel to per_worker; empty
  // inner vector = single-solver worker). Members sum to per_worker[w].
  std::vector<std::vector<sat::SolverStats>> per_worker_members;
  // Sweep work avoidance: candidates pruned via recorded UNSAT cores, and
  // the learnt clauses still live in the solvers at collection time — the
  // databases the sweeps carry across queries and iterations.
  std::uint64_t pruned_candidates = 0;
  std::size_t retained_learnts = 0;
  // Per-worker robustness counters (parallel to per_worker; all-zero entries
  // for plain in-proc workers, populated under portfolio/external backends).
  std::vector<sat::BackendHealth> per_worker_health;
  // Snapshot-preprocessing counters (all zero with preprocessing off or a
  // single-solver scheduler): real simplifications vs generation-cache
  // reuses, eliminated variables, removed/strengthened clauses, and the last
  // run's formula shrinkage (see sat/simplify.h).
  sat::SimplifyStats simplify;
  // The unified named-counter registry for the run: per-component snapshots
  // under `sat.solver.w<k>.`, `sat.solver.w<k>.m<j>.`, their merge under
  // `sat.solver.total.`, plus `upec.*`, `sat.channel.*`, `sat.simplify.*`,
  // `sat.health.w<k>.*`, and the clause-arena gauges `sat.arena_bytes.w<k>`.
  // Counter naming and merge conventions: README "Observability".
  util::MetricsSnapshot metrics;
};

struct Alg1Result {
  Verdict verdict = Verdict::Unknown;
  std::vector<IterationLog> iterations;
  // Vulnerable: the persistent state variables the victim can influence.
  // Complete and sorted: every member of the final S whose difference is
  // realizable, independent of solver model order or thread count.
  std::vector<rtlir::StateVarId> persistent_hits;
  std::vector<rtlir::StateVarId> full_cex;
  std::optional<ipc::Waveform> waveform;
  // Secure: the final inductive set (S_pers ⊆ S ⊆ S_¬victim).
  StateSet final_s;
  double total_seconds = 0.0;
  SolverUsage stats;
  // Unknown verdict was (at least in part) a wall-clock deadline hit.
  bool timed_out = false;
};

struct Alg1Options {
  unsigned max_iterations = 1000;
  bool extract_waveform = true;
  // Saturate each counterexample: within one iteration, re-solve until no
  // *new* state variable can differ, and remove the union. Iterations then
  // count propagation depth (the paper's granularity) rather than individual
  // solver models.
  bool saturate_cex = true;
  // Optional initial S (defaults to S_¬victim); Alg. 2's closing induction
  // passes its converged S[k] here.
  std::optional<StateSet> initial_s;
};

Alg1Result run_alg1(UpecContext& ctx, const Alg1Options& options = {});

} // namespace upec
