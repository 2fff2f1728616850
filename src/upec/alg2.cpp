#include "upec/alg2.h"

#include "upec/engine.h"
#include "upec/sweep.h"
#include "util/trace.h"

namespace upec {

Alg2Result run_alg2(UpecContext& ctx, const Alg2Options& options) {
  util::trace::Span run_span("alg2.run", "upec");
  Alg2Result result;

  // S[0], S[1] ← S_¬victim; S[0] never changes (the victim's influence at the
  // start of the window stays fixed across iterations, Sec 3.5).
  std::vector<StateSet> S;
  S.push_back(s_not_victim(ctx.svt));
  S.push_back(S[0]);
  unsigned k = 1;

  const std::vector<rtlir::StateVarId> s0_members = S[0].to_vector();

  for (unsigned iter = 0; iter < options.max_iterations; ++iter) {
    util::trace::Span step_span("alg2.step", "upec");
    step_span.arg("iteration", std::uint64_t{iter});
    step_span.arg("k", std::uint64_t{k});
    Alg2StepLog step;
    step.k = k;
    step.iteration.s_size = S[k].size();
    if (options.extract_waveform) ctx.touch_probes(k);

    // Violations are only possible at the newest frame: frames 1..k-1 were
    // proven with identical assumptions in previous iterations. As in Alg. 1,
    // the sweep saturates the counterexample at frame k.
    std::vector<encode::Lit> assumptions = ctx.macros.assumptions(k);
    for (rtlir::StateVarId sv : s0_members) {
      assumptions.push_back(ctx.miter.eq_assumption(sv));
    }
    SweepOutcome out = sweep_frame(ctx, assumptions, S[k], k, options.saturate_cex);

    step.iteration.seconds = out.seconds;
    step.iteration.conflicts = out.conflicts;
    step.iteration.status = out.status;
    step.iteration.cex_size = out.s_cex.size();
    step.iteration.pers_hits = out.pers_hits.size();
    step.iteration.removed = out.s_cex;
    step.iteration.pruned = out.pruned;
    step.iteration.structural = out.structural;
    step.iteration.lemmas = out.lemmas;
    step.iteration.timed_out = out.timed_out;
    result.total_seconds += out.seconds;

    if (!out.pers_hits.empty()) {
      if (options.extract_waveform) {
        result.waveform = extract_pers_waveform(ctx, assumptions, out, k, step.iteration,
                                                result.total_seconds);
      }
      result.steps.push_back(std::move(step));
      result.verdict = Verdict::Vulnerable;
      result.final_k = k;
      result.persistent_hits = std::move(out.pers_hits);
      result.full_cex = std::move(out.s_cex);
      result.metrics = collect_metrics(ctx);
      return result;
    }
    result.steps.push_back(std::move(step));

    if (out.status == ipc::CheckStatus::Unknown) {
      result.verdict = Verdict::Unknown;
      result.timed_out = out.timed_out;
      result.final_k = k;
      result.metrics = collect_metrics(ctx);
      return result;
    }
    if (!out.s_cex.empty()) {
      S[k].remove_all(out.s_cex);
      continue;
    }

    if (S[k] == S[k - 1]) {
      // "hold": the victim's influence frontier stopped growing. Close with
      // the inductive proof (Alg. 1 seeded with S[k]) to cover all future
      // cycles k+n.
      result.final_k = k;
      if (options.run_closing_induction) {
        Alg1Options ind;
        ind.initial_s = S[k];
        ind.extract_waveform = options.extract_waveform;
        result.induction = run_alg1(ctx, ind);
        result.verdict = result.induction->verdict;
        result.timed_out = result.induction->timed_out;
        if (result.induction->verdict == Verdict::Vulnerable) {
          result.persistent_hits = result.induction->persistent_hits;
          result.full_cex = result.induction->full_cex;
          result.waveform = result.induction->waveform;
        }
      } else {
        result.verdict = Verdict::Secure;
      }
      result.metrics = collect_metrics(ctx);
      return result;
    }
    if (k + 1 > options.max_k) {
      result.verdict = Verdict::Unknown;
      result.final_k = k;
      result.metrics = collect_metrics(ctx);
      return result;
    }
    ++k;
    S.push_back(S[k - 1]);
  }
  result.verdict = Verdict::Unknown;
  result.final_k = k;
  result.metrics = collect_metrics(ctx);
  return result;
}

} // namespace upec
