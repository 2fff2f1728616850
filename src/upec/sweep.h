// One UPEC iteration's counterexample collection.
//
// Computes S_cex = { sv in S : diff(sv, frame) satisfiable under the given
// assumptions } — the complete influence frontier of the victim at that
// frame. A saturating sweep first writes every refutation recorded at an
// earlier frame into the store as a guarded equality lemma
// (emit_frame_lemmas). Candidates whose recorded UNSAT core still refutes
// them are pruned up front (upec/incremental.h). The candidates left are
// registered, and those whose next-state cones read only state that is
// assumed equal, or proven equal by an earlier frame's refutation, and
// shared inputs are refuted by structure, with no solve
// (Miter::structural_support; README "Incremental sweeps"). The rest are
// queried one candidate per solve through persistent activation literals,
// fanned out across the context scheduler's workers (one worker, inline, at
// threads == 1). The result is semantic (see ipc/scheduler.h), which is
// what makes multi-threaded runs bit-identical to single-threaded ones. The
// non-saturating ablation instead poses one CheckScheduler::check.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "ipc/cex.h"
#include "ipc/scheduler.h"
#include "upec/incremental.h"
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
  // Refutations from earlier frames written into the store as equality
  // lemmas when this sweep started.
  std::size_t lemmas = 0;
  std::vector<ipc::SweepResult::UnsatGroup> unsat_groups;
  // An Unknown status was (at least in part) a wall-clock deadline hit, as
  // opposed to conflict-budget exhaustion (see VerifyOptions::deadline_ms).
  bool timed_out = false;
};

SweepOutcome sweep_frame(UpecContext& ctx, const std::vector<encode::Lit>& assumptions,
                         const StateSet& S, unsigned frame, bool saturate);

// The first step of a saturating sweep_frame: writes every refutation that
// `pruner` recorded at a frame below `frame` and has not handed out before
// into the store, one Miter::equality_lemma per record, its core being the
// record's eq assumptions and other literals. Returns the number of lemmas.
// Only a sweep at a later frame reads a lemma, so the lemmas of a frame wait
// for the first sweep past it and join the store growth that the new
// frame's encoding causes anyway: Alg. 1 (frame 1 only) and Alg. 2's second
// and later sweeps of a step emit nothing.
std::size_t emit_frame_lemmas(encode::Miter& miter, FrontierPruner& pruner, unsigned frame);

// The structural pass of a saturating sweep_frame: moves out of `members`
// every candidate that cannot differ at `frame` by structure and earlier
// frames' lemmas alone, and returns one refutation per such candidate, in
// `members` order.
//   E_0 is every u in `eq_assumed` whose exempt_lit(u) is constant false.
//   E_j (j >= 1) is every state variable whose one-step cone
//   (Miter::structural_support) reads no per-instance input and only state
//   in E_{j-1}, and, for j < frame, every state variable u whose
//   exempt_lit(u) is constant false and whose record at frame j the
//   current assumptions entail (FrontierPruner::entailed with `eq_assumed`
//   and `assumption_lits`).
// A candidate in E_frame sees the same values in both instances: the
// encoding is full Tseitin, shared inputs have one image, and an entailed
// record proves its state variable equal at its frame. The leaf walk below
// the candidate expands each (u, j) through its cone down to frame 0,
// except that it stops at a (u, j) in E_j only by its record; a (u, j) that
// qualifies both ways is expanded through its cone, so every candidate that
// structure alone refutes keeps the core and guards it had without lemmas.
// The core is the eq assumptions of the frame-0 leaves plus the
// justification of every record the walk stopped at, and the miter emits
// the candidate's guarded equality (Miter::structural_guard), which reaches
// a stopped-at (u, j) through u's lemma guard. Every record at a frame below
// `frame` must already be emitted (emit_frame_lemmas). No solver is
// consulted.
std::vector<ipc::SweepResult::UnsatGroup> refute_structurally(
    encode::Miter& miter, const FrontierPruner& pruner,
    const std::unordered_set<rtlir::StateVarId>& eq_assumed,
    const std::unordered_set<std::int32_t>& assumption_lits,
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
// the frontier pruner's `upec.sweep.pruned_candidates`, the structural
// pass's `upec.sweep.structural_candidates` and the lemmas carried across
// frames, `upec.sweep.frame_lemmas`.
util::MetricsSnapshot collect_metrics(const UpecContext& ctx);

} // namespace upec
