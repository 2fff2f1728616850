#include "upec/sweep.h"

#include <algorithm>
#include <unordered_set>

#include "upec/alg1.h"
#include "upec/engine.h"
#include "util/trace.h"

namespace upec {

namespace {

// Single-solver path on the context's main solver: candidates are
// registered once with persistent activation literals and the saturating
// sweep then scans them one candidate per solve — assume the candidate's
// activation literal true (the query is exactly "diff(sv) satisfiable") and
// harvest every other still-unresolved candidate the model happens to prove
// differing. No violation literal, no store growth, and each UNSAT answer
// comes with a per-candidate assumption core for frontier pruning: a SAT
// model retires many candidates at once, while the UNSAT confirmations — the
// dominant cost on the secure workload — never pay for the selector
// indirection of a group disjunction, and their cores mention only the eq
// assumptions that one candidate's refutation needs.
//
// CheckScheduler::sweep (ipc/scheduler.cpp) runs the same scan per chunk on
// its workers. The two harvest differently — this loop compares state bits
// through Miter::differs_in_model, the workers read their diff literals —
// but both converge on {sv : diff(sv) satisfiable}; test_determinism pins it.
SweepOutcome sweep_main(UpecContext& ctx, const std::vector<encode::Lit>& assumptions,
                        const std::vector<rtlir::StateVarId>& members, unsigned frame,
                        bool saturate) {
  SweepOutcome out;
  ctx.miter.register_candidates(members, frame);

  bool unknown = false;
  bool inconsistent = false;
  if (saturate) {
    // Members arrive sorted (StateSet::to_vector), so the scan order — and
    // with it every query — is independent of how earlier models looked.
    std::vector<char> resolved(members.size(), 0);
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (resolved[i]) continue;
      std::vector<encode::Lit> as = assumptions;
      as.push_back(ctx.miter.activation_literal(members[i], frame));
      std::vector<encode::Lit> core;
      const ipc::CheckResult check = ctx.engine.check_assumptions(as, &core);
      out.seconds += check.seconds;
      out.conflicts += check.conflicts;
      if (check.status == ipc::CheckStatus::Unknown) {
        unknown = true;
        out.timed_out = out.timed_out || check.timed_out;
        break;
      }
      if (check.status == ipc::CheckStatus::Holds) {
        resolved[i] = 1;
        out.unsat_groups.push_back(ipc::SweepResult::UnsatGroup{{members[i]}, std::move(core)});
        continue;
      }
      bool harvested = false;
      for (std::size_t j = 0; j < members.size(); ++j) {
        if (resolved[j] || !ctx.miter.differs_in_model(members[j], frame)) continue;
        resolved[j] = 1;
        out.s_cex.push_back(members[j]);
        harvested = true;
      }
      if (!harvested) {
        // The query assumed diff(members[i]) true, so a model that shows no
        // difference means the diff literals and the model disagree.
        inconsistent = true;
        break;
      }
    }
  } else {
    // Single-model ablation: one group-selected solve, stop at the first
    // model (per-candidate scanning would change which model is reported).
    std::vector<encode::Lit> as = assumptions;
    ctx.miter.select_candidates(frame, members, as);
    std::vector<encode::Lit> core;
    const ipc::CheckResult check = ctx.engine.check_assumptions(as, &core);
    out.seconds += check.seconds;
    out.conflicts += check.conflicts;
    if (check.status == ipc::CheckStatus::Unknown) {
      unknown = true;
      out.timed_out = out.timed_out || check.timed_out;
    } else if (check.status == ipc::CheckStatus::Holds) {
      out.unsat_groups.push_back(ipc::SweepResult::UnsatGroup{members, std::move(core)});
    } else {
      for (rtlir::StateVarId sv : members) {
        if (ctx.miter.differs_in_model(sv, frame)) out.s_cex.push_back(sv);
      }
      if (out.s_cex.empty()) inconsistent = true;
    }
  }

  std::sort(out.s_cex.begin(), out.s_cex.end());
  out.status = (unknown || inconsistent)  ? ipc::CheckStatus::Unknown
               : out.s_cex.empty()        ? ipc::CheckStatus::Holds
                                          : ipc::CheckStatus::Violated;
  return out;
}

} // namespace

SweepOutcome sweep_frame(UpecContext& ctx, const std::vector<encode::Lit>& assumptions,
                         const StateSet& S, unsigned frame, bool saturate) {
  util::trace::Span span("upec.sweep_frame", "upec");
  span.arg("frame", std::uint64_t{frame});
  std::vector<rtlir::StateVarId> members = S.to_vector();
  span.arg("candidates", static_cast<std::uint64_t>(members.size()));
  SweepOutcome out;

  // UNSAT-core frontier pruning (saturating sweeps only — in the
  // single-model ablation pruning could change which model the solver finds,
  // i.e. the reported set). A pruned candidate is one whose recorded
  // refutation core is entailed by the current assumptions, so dropping it
  // cannot change the semantic frontier — only skip re-proving it.
  std::unordered_set<rtlir::StateVarId> eq_assumed;
  std::unordered_set<std::int32_t> assumption_lits;
  if (saturate) {
    rtlir::StateVarId sv = 0;
    for (encode::Lit a : assumptions) {
      assumption_lits.insert(a.index());
      if (ctx.miter.eq_assumption_var(a, &sv)) eq_assumed.insert(sv);
    }
    std::vector<rtlir::StateVarId> eligible, pruned;
    ctx.pruner.filter(frame, members, eq_assumed, assumption_lits, eligible, pruned);
    out.pruned = pruned.size();
    members = std::move(eligible);
  }

  // The scheduler always saturates (only the complete frontier is a semantic,
  // thread-count-independent set). The non-saturating ablation mode
  // (saturate_cex = false) is inherently single-model, so it stays on the
  // main solver regardless of the threads option — this keeps its results
  // identical across thread counts too.
  if (members.empty()) {
    // Everything pruned (or S empty): the frontier is proven empty without a
    // single solver call.
    out.status = ipc::CheckStatus::Holds;
  } else if (ctx.scheduler && saturate) {
    ipc::SweepResult r = ctx.scheduler->sweep(ctx.miter, assumptions, members, frame);
    out.status = r.status;
    out.s_cex = std::move(r.differing);
    out.seconds = r.seconds;
    out.conflicts = r.conflicts;
    out.unsat_groups = std::move(r.unsat_groups);
    out.timed_out = r.timed_out;
  } else {
    SweepOutcome seq = sweep_main(ctx, assumptions, members, frame, saturate);
    seq.pruned = out.pruned;
    out = std::move(seq);
  }

  // Mine the final refutation cores: each justifies every candidate that was
  // still enabled, and stays valid as long as its assumptions are re-assumed
  // (see upec/incremental.h). Core literals split into eq-assumption state
  // variables, other assumptions (macros), and selector literals — the
  // latter identified by absence from the assumption set and dropped.
  if (saturate) {
    for (const ipc::SweepResult::UnsatGroup& group : out.unsat_groups) {
      FrontierPruner::Justification just;
      rtlir::StateVarId sv = 0;
      for (sat::Lit l : group.core) {
        if (ctx.miter.eq_assumption_var(l, &sv)) {
          just.eq_svs.push_back(sv);
        } else if (assumption_lits.find(l.index()) != assumption_lits.end()) {
          just.other_lits.push_back(l);
        }
      }
      ctx.pruner.record(frame, group.enabled, std::move(just));
    }
  }

  out.pers_hits.clear();
  for (rtlir::StateVarId sv : out.s_cex) {
    if (ctx.in_s_pers(sv)) out.pers_hits.push_back(sv);
  }
  return out;
}

std::optional<ipc::Waveform> extract_pers_waveform(UpecContext& ctx,
                                                   const std::vector<encode::Lit>& assumptions,
                                                   const SweepOutcome& out, unsigned frame,
                                                   IterationLog& log, double& total_seconds) {
  util::trace::Span span("upec.waveform", "upec");
  span.arg("frame", std::uint64_t{frame});
  span.arg("pers_hits", static_cast<std::uint64_t>(out.pers_hits.size()));
  // The persistent hits are registered candidates (pers_hits ⊆ s_cex ⊆ the
  // swept set), so restricting the violation to them is pure assumption
  // selection — no new encoding, and the solve lands on the main solver
  // whose model the waveform extractor reads.
  std::vector<encode::Lit> as = assumptions;
  ctx.miter.select_candidates(frame, out.pers_hits, as);
  const ipc::CheckResult check = ctx.engine.check_assumptions(as);
  log.seconds += check.seconds;
  log.conflicts += check.conflicts;
  total_seconds += check.seconds;
  if (check.status != ipc::CheckStatus::Violated) return std::nullopt;
  return ipc::extract_waveform(ctx.miter, frame, ctx.waveform_probes(), out.s_cex);
}

} // namespace upec
