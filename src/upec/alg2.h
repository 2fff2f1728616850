// Algorithm 2 of the paper: the unrolled UPEC-SSC procedure (Fig. 4),
// producing explicit multi-cycle counterexamples.
//
//   S[0], S[1] ← S_¬victim ; k ← 1
//   loop:
//     S_cex ← check(UPEC-SSC-unrolled(k, S))
//     if S_cex = ∅:
//        if S[k] = S[k-1]  → hold  (close with the inductive proof of Alg. 1)
//        else k ← k+1 ; S[k] ← S[k-1]
//     else if S_cex ∩ S_pers ≠ ∅ → vulnerable (explicit k-cycle trace)
//     else S[k] ← S[k] \ S_cex
#pragma once

#include <optional>
#include <vector>

#include "upec/alg1.h"

namespace upec {

struct Alg2StepLog {
  unsigned k = 1;
  IterationLog iteration;
};

struct Alg2Result {
  Verdict verdict = Verdict::Unknown;
  unsigned final_k = 1;
  std::vector<Alg2StepLog> steps;
  std::vector<rtlir::StateVarId> persistent_hits;
  std::vector<rtlir::StateVarId> full_cex;
  std::optional<ipc::Waveform> waveform; // explicit k-cycle counterexample
  // When the unrolling converged ("hold"): the closing inductive proof.
  std::optional<Alg1Result> induction;
  double total_seconds = 0.0;
  util::MetricsSnapshot metrics;  // see Alg1Result::metrics
  // Unknown verdict was (at least in part) a wall-clock deadline hit.
  bool timed_out = false;
};

struct Alg2Options {
  unsigned max_k = 16;
  unsigned max_iterations = 1000;
  bool extract_waveform = true;
  bool run_closing_induction = true;
  // See Alg1Options::saturate_cex.
  bool saturate_cex = true;
};

class UpecContext;

Alg2Result run_alg2(UpecContext& ctx, const Alg2Options& options = {});

} // namespace upec
