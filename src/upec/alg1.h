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
  // Candidates refuted by structure alone this iteration, without a solve.
  std::size_t structural = 0;
  // Refutations from earlier frames written into the store as equality
  // lemmas when this iteration's sweep started (Alg. 2 only).
  std::size_t lemmas = 0;
  // The iteration's Unknown status came from a wall-clock deadline hit
  // (VerifyOptions::deadline_ms) rather than conflict-budget exhaustion.
  bool timed_out = false;
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
  // Every counter behind the run: the scheduler's registry
  // (CheckScheduler::metrics) plus `upec.sweep.pruned_candidates`,
  // `upec.sweep.structural_candidates` and `upec.sweep.frame_lemmas`. Names
  // and merge conventions: README
  // "Observability".
  util::MetricsSnapshot metrics;
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
