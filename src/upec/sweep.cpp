#include "upec/sweep.h"

#include <unordered_set>

#include "upec/alg1.h"
#include "upec/engine.h"
#include "util/trace.h"

namespace upec {

namespace {

// Single-model ablation (saturate_cex = false): one group-selected check,
// stop at the first model — per-candidate scanning would change which model
// is reported. The check always lands on worker 0 against the raw store, so
// the reported set is the same at every thread count.
SweepOutcome sweep_single_model(UpecContext& ctx, const std::vector<encode::Lit>& assumptions,
                                const std::vector<rtlir::StateVarId>& members, unsigned frame) {
  SweepOutcome out;
  ctx.miter.register_candidates(members, frame);
  std::vector<encode::Lit> as = assumptions;
  ctx.miter.select_candidates(frame, members, as);
  std::vector<encode::Lit> core;
  const ipc::CheckResult check = ctx.scheduler.check(as, &core);
  out.seconds = check.seconds;
  out.conflicts = check.conflicts;
  out.timed_out = check.timed_out;
  out.status = check.status;
  if (check.status == ipc::CheckStatus::Holds) {
    out.unsat_groups.push_back(ipc::SweepResult::UnsatGroup{members, std::move(core)});
  } else if (check.status == ipc::CheckStatus::Violated) {
    for (rtlir::StateVarId sv : members) {
      if (ctx.miter.differs_in_model(sv, frame)) out.s_cex.push_back(sv);
    }
    // The query forced some member to differ; a model showing none means the
    // diff literals and the model disagree.
    if (out.s_cex.empty()) out.status = ipc::CheckStatus::Unknown;
  }
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

  if (members.empty()) {
    // Everything pruned (or S empty): the frontier is proven empty without a
    // single solver call.
    out.status = ipc::CheckStatus::Holds;
  } else if (saturate) {
    ipc::SweepResult r = ctx.scheduler.sweep(ctx.miter, assumptions, members, frame);
    out.status = r.status;
    out.s_cex = std::move(r.differing);
    out.seconds = r.seconds;
    out.conflicts = r.conflicts;
    out.unsat_groups = std::move(r.unsat_groups);
    out.timed_out = r.timed_out;
  } else {
    out = sweep_single_model(ctx, assumptions, members, frame);
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
  // selection — no new encoding. The check runs on worker 0 against the raw
  // store, whose model the waveform extractor reads.
  std::vector<encode::Lit> as = assumptions;
  ctx.miter.select_candidates(frame, out.pers_hits, as);
  const ipc::CheckResult check = ctx.scheduler.check(as);
  log.seconds += check.seconds;
  log.conflicts += check.conflicts;
  total_seconds += check.seconds;
  if (check.status != ipc::CheckStatus::Violated) return std::nullopt;
  return ipc::extract_waveform(ctx.miter, frame, ctx.waveform_probes(), out.s_cex);
}

util::MetricsSnapshot collect_metrics(const UpecContext& ctx) {
  util::MetricsSnapshot m = ctx.scheduler.metrics();
  m.add_counter("upec.sweep.pruned_candidates", ctx.pruner.total_pruned());
  return m;
}

} // namespace upec
