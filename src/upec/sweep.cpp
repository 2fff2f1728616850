#include "upec/sweep.h"

#include <algorithm>
#include <iterator>
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
    // Earlier frames' refutations go into the store before anything of this
    // sweep does, so they share the store growth of this frame's encoding.
    out.lemmas = emit_frame_lemmas(ctx.miter, ctx.pruner, frame);
    ctx.frame_lemmas += out.lemmas;
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

  if (saturate && !members.empty()) {
    // Registration first: every candidate the pruner left gets its activation
    // literal, as the scheduler would have registered it, before the
    // structural pass takes its share. A candidate that is structural now
    // but swept later then finds itself registered, and the store does not
    // grow (and force a new preprocessing run) late in the run.
    ctx.miter.register_candidates(members, frame);
    out.unsat_groups =
        refute_structurally(ctx.miter, ctx.pruner, eq_assumed, assumption_lits, members, frame);
    out.structural = out.unsat_groups.size();
    ctx.structural_candidates += out.structural;
  }

  if (members.empty()) {
    // Everything pruned or structurally refuted (or S empty): the frontier
    // is proven empty without a single solver call.
    out.status = ipc::CheckStatus::Holds;
  } else if (saturate) {
    ipc::SweepResult r = ctx.scheduler.sweep(ctx.miter, assumptions, members, frame);
    out.status = r.status;
    out.s_cex = std::move(r.differing);
    out.seconds = r.seconds;
    out.conflicts = r.conflicts;
    std::move(r.unsat_groups.begin(), r.unsat_groups.end(), std::back_inserter(out.unsat_groups));
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

std::size_t emit_frame_lemmas(encode::Miter& miter, FrontierPruner& pruner, unsigned frame) {
  const std::vector<FrontierPruner::Record> records = pruner.take_unemitted(frame);
  if (records.empty()) return 0;
  util::trace::Span span("upec.frame_lemmas", "upec");
  span.arg("frame", std::uint64_t{frame});
  span.arg("lemmas", static_cast<std::uint64_t>(records.size()));
  std::vector<sat::Lit> core;
  for (const FrontierPruner::Record& r : records) {
    core.clear();
    for (rtlir::StateVarId u : r.just->eq_svs) core.push_back(miter.eq_assumption(u));
    core.insert(core.end(), r.just->other_lits.begin(), r.just->other_lits.end());
    miter.equality_lemma(r.sv, r.frame, core);
  }
  return records.size();
}

std::vector<ipc::SweepResult::UnsatGroup> refute_structurally(
    encode::Miter& miter, const FrontierPruner& pruner,
    const std::unordered_set<rtlir::StateVarId>& eq_assumed,
    const std::unordered_set<std::int32_t>& assumption_lits,
    std::vector<rtlir::StateVarId>& members, unsigned frame) {
  util::trace::Span span("upec.structural", "upec");
  span.arg("frame", std::uint64_t{frame});
  // How (u, j) is known equal: not at all, through its cone (or, at j = 0,
  // by assumption), or by an earlier frame's entailed record.
  enum Reason : char { kNone, kCone, kRecord };
  const std::size_t n = miter.state_vars().size();
  std::vector<std::vector<char>> reason(frame + 1, std::vector<char>(n, kNone));
  for (rtlir::StateVarId u : eq_assumed) {
    if (miter.cnf().is_false(miter.exempt_lit(u))) reason[0][u] = kCone;
  }
  const auto by_record = [&](unsigned j, rtlir::StateVarId u) {
    // A record exists only for a swept candidate, whose exemption literal is
    // already encoded: the check adds nothing to the store.
    return pruner.entailed(j, u, eq_assumed, assumption_lits) != nullptr &&
           miter.cnf().is_false(miter.exempt_lit(u));
  };
  for (unsigned j = 1; j <= frame; ++j) {
    const std::vector<char>& below = reason[j - 1];
    for (rtlir::StateVarId sv = 0; sv < n; ++sv) {
      const encode::Miter::StructuralSupport& support = miter.structural_support(sv);
      if (!support.per_instance_input &&
          std::all_of(support.state.begin(), support.state.end(),
                      [&below](rtlir::StateVarId u) { return below[u] != kNone; })) {
        reason[j][sv] = kCone;
      } else if (j < frame && by_record(j, sv)) {
        reason[j][sv] = kRecord;
      }
    }
  }

  std::vector<ipc::SweepResult::UnsatGroup> groups;
  std::vector<rtlir::StateVarId> rest;
  for (rtlir::StateVarId sv : members) {
    if (reason[frame][sv] == kNone) {
      rest.push_back(sv);
      continue;
    }
    std::vector<rtlir::StateVarId> eq_svs;
    std::vector<sat::Lit> other_lits;
    std::vector<rtlir::StateVarId> leaves = {sv};
    for (unsigned j = frame; j > 0; --j) {
      std::vector<rtlir::StateVarId> below;
      for (rtlir::StateVarId u : leaves) {
        if (reason[j][u] == kRecord) {
          const FrontierPruner::Justification* just =
              pruner.entailed(j, u, eq_assumed, assumption_lits);
          eq_svs.insert(eq_svs.end(), just->eq_svs.begin(), just->eq_svs.end());
          other_lits.insert(other_lits.end(), just->other_lits.begin(), just->other_lits.end());
          continue;
        }
        const std::vector<rtlir::StateVarId>& state = miter.structural_support(u).state;
        below.insert(below.end(), state.begin(), state.end());
      }
      std::sort(below.begin(), below.end());
      below.erase(std::unique(below.begin(), below.end()), below.end());
      leaves = std::move(below);
    }
    eq_svs.insert(eq_svs.end(), leaves.begin(), leaves.end());
    std::sort(eq_svs.begin(), eq_svs.end());
    eq_svs.erase(std::unique(eq_svs.begin(), eq_svs.end()), eq_svs.end());
    std::sort(other_lits.begin(), other_lits.end(),
              [](sat::Lit a, sat::Lit b) { return a.index() < b.index(); });
    other_lits.erase(std::unique(other_lits.begin(), other_lits.end()), other_lits.end());
    std::vector<sat::Lit> core;
    core.reserve(eq_svs.size() + other_lits.size());
    for (rtlir::StateVarId u : eq_svs) core.push_back(miter.eq_assumption(u));
    core.insert(core.end(), other_lits.begin(), other_lits.end());
    miter.structural_guard(sv, frame);
    groups.push_back(ipc::SweepResult::UnsatGroup{{sv}, std::move(core)});
  }
  members = std::move(rest);
  span.arg("refuted", static_cast<std::uint64_t>(groups.size()));
  return groups;
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
  m.add_counter("upec.sweep.structural_candidates", ctx.structural_candidates);
  m.add_counter("upec.sweep.frame_lemmas", ctx.frame_lemmas);
  return m;
}

} // namespace upec
