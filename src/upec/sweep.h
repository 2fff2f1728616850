// One UPEC iteration's counterexample collection.
//
// Computes S_cex = { sv in S : diff(sv, frame) satisfiable under the given
// assumptions } — the complete influence frontier of the victim at that
// frame. Candidates whose recorded UNSAT core still refutes them are pruned
// up front (upec/incremental.h); the rest are queried one candidate per
// solve through persistent activation literals, fanned out across the
// context scheduler's workers (one worker, inline, at threads == 1). The
// result is semantic (see ipc/scheduler.h), which is what makes
// multi-threaded runs bit-identical to single-threaded ones. The
// non-saturating ablation instead poses one CheckScheduler::check.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ipc/cex.h"
#include "ipc/scheduler.h"
#include "upec/state_sets.h"
#include "util/metrics.h"

namespace upec {

class UpecContext;
struct IterationLog;

struct SweepOutcome {
  // Violated iff s_cex is non-empty; Unknown on budget exhaustion or a
  // model/diff-literal disagreement (s_cex is then a lower bound).
  ipc::CheckStatus status = ipc::CheckStatus::Unknown;
  std::vector<rtlir::StateVarId> s_cex;      // sorted ascending
  std::vector<rtlir::StateVarId> pers_hits;  // sorted; s_cex ∩ S_pers
  double seconds = 0.0;
  std::uint64_t conflicts = 0;
  // Candidates skipped up front because a recorded UNSAT core still proves
  // them unable to differ, and the per-candidate refutations (already mined
  // into the context's pruner by sweep_frame; exposed for tests).
  std::size_t pruned = 0;
  std::vector<ipc::SweepResult::UnsatGroup> unsat_groups;
  // An Unknown status was (at least in part) a wall-clock deadline hit, as
  // opposed to conflict-budget exhaustion (see VerifyOptions::deadline_ms).
  bool timed_out = false;
};

SweepOutcome sweep_frame(UpecContext& ctx, const std::vector<encode::Lit>& assumptions,
                         const StateSet& S, unsigned frame, bool saturate);

// Vulnerable-verdict epilogue: one CheckScheduler::check with a violation
// restricted to the persistent hits (each is individually satisfiable, so the
// solve succeeds barring a budget interrupt), then extracts the
// counterexample waveform from worker 0's model. Accounts the solve into `log`
// and `total_seconds`.
std::optional<ipc::Waveform> extract_pers_waveform(UpecContext& ctx,
                                                   const std::vector<encode::Lit>& assumptions,
                                                   const SweepOutcome& out, unsigned frame,
                                                   IterationLog& log, double& total_seconds);

// The run's metrics registry: the scheduler's (CheckScheduler::metrics) plus
// the frontier pruner's `upec.sweep.pruned_candidates`.
util::MetricsSnapshot collect_metrics(const UpecContext& ctx);

} // namespace upec
