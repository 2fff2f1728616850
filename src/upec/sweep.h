// One UPEC iteration's counterexample collection.
//
// Computes S_cex = { sv in S : diff(sv, frame) satisfiable under the given
// assumptions } — the complete influence frontier of the victim at that
// frame. Candidates whose recorded UNSAT core still refutes them are pruned
// up front (upec/incremental.h). The candidates left are registered, and
// those whose next-state cones read only assumed-equal state and shared
// inputs are refuted by structure, with no solve (Miter::structural_support;
// README "Incremental sweeps"). The rest are queried one candidate per
// solve through persistent activation literals, fanned out across the
// context scheduler's workers (one worker, inline, at threads == 1). The
// result is semantic (see ipc/scheduler.h), which is what makes
// multi-threaded runs bit-identical to single-threaded ones. The
// non-saturating ablation instead poses one CheckScheduler::check.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_set>
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
  // Candidates refuted by structure alone, without a solve (their groups
  // lead unsat_groups).
  std::size_t structural = 0;
  std::vector<ipc::SweepResult::UnsatGroup> unsat_groups;
  // An Unknown status was (at least in part) a wall-clock deadline hit, as
  // opposed to conflict-budget exhaustion (see VerifyOptions::deadline_ms).
  bool timed_out = false;
};

SweepOutcome sweep_frame(UpecContext& ctx, const std::vector<encode::Lit>& assumptions,
                         const StateSet& S, unsigned frame, bool saturate);

// The structural pass of a saturating sweep_frame: moves out of `members`
// every candidate that cannot differ at `frame` by structure alone, and
// returns one refutation per such candidate, in `members` order.
//   E_0 is every u in `eq_assumed` whose exempt_lit(u) is constant false.
//   E_j is every state variable whose one-step cone
//   (Miter::structural_support) reads no per-instance input and only state
//   in E_{j-1}.
// A candidate in E_frame sees the same values in both instances: the
// encoding is full Tseitin and shared inputs have one image. Its core is the
// eq assumptions of its frame-0 leaves, and the miter emits its guarded
// equality lemma (Miter::structural_guard). No solver is consulted.
std::vector<ipc::SweepResult::UnsatGroup> refute_structurally(
    encode::Miter& miter, const std::unordered_set<rtlir::StateVarId>& eq_assumed,
    std::vector<rtlir::StateVarId>& members, unsigned frame);

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
// the frontier pruner's `upec.sweep.pruned_candidates` and the structural
// pass's `upec.sweep.structural_candidates`.
util::MetricsSnapshot collect_metrics(const UpecContext& ctx);

} // namespace upec
