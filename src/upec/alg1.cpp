#include "upec/alg1.h"

#include "upec/engine.h"
#include "upec/sweep.h"
#include "util/trace.h"

namespace upec {

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::Secure: return "secure";
    case Verdict::Vulnerable: return "vulnerable";
    case Verdict::Unknown: return "unknown";
  }
  return "?";
}

Alg1Result run_alg1(UpecContext& ctx, const Alg1Options& options) {
  util::trace::Span run_span("alg1.run", "upec");
  Alg1Result result;
  StateSet S = options.initial_s ? *options.initial_s : s_not_victim(ctx.svt);
  if (options.extract_waveform) ctx.touch_probes(1);

  for (unsigned iter = 0; iter < options.max_iterations; ++iter) {
    util::trace::Span iter_span("alg1.iteration", "upec");
    iter_span.arg("iteration", std::uint64_t{iter});
    iter_span.arg("s_size", static_cast<std::uint64_t>(S.size()));
    IterationLog log;
    log.s_size = S.size();

    // UPEC-SSC(S): assume equivalence of S at t (+ macros), prove equivalence
    // of S at t+1 — i.e. search for members of S that can differ at t+1. The
    // sweep saturates the counterexample: one outer iteration corresponds to
    // one propagation step of the victim's influence frontier (the
    // granularity the paper's iteration counts describe), independent of how
    // many solver models realize it and of the thread count.
    std::vector<encode::Lit> assumptions = ctx.macros.assumptions(1);
    for (rtlir::StateVarId sv : S.to_vector()) {
      assumptions.push_back(ctx.miter.eq_assumption(sv));
    }
    SweepOutcome out = sweep_frame(ctx, assumptions, S, 1, options.saturate_cex);

    log.seconds = out.seconds;
    log.conflicts = out.conflicts;
    log.status = out.status;
    log.cex_size = out.s_cex.size();
    log.pers_hits = out.pers_hits.size();
    log.removed = out.s_cex;
    log.pruned = out.pruned;
    log.structural = out.structural;
    log.lemmas = out.lemmas;
    log.timed_out = out.timed_out;
    result.total_seconds += out.seconds;

    if (!out.pers_hits.empty()) {
      // Victim data reaches persistent, attacker-accessible state.
      if (options.extract_waveform) {
        result.waveform =
            extract_pers_waveform(ctx, assumptions, out, 1, log, result.total_seconds);
      }
      result.iterations.push_back(std::move(log));
      result.verdict = Verdict::Vulnerable;
      result.persistent_hits = std::move(out.pers_hits);
      result.full_cex = std::move(out.s_cex);
      result.final_s = std::move(S);
      result.metrics = collect_metrics(ctx);
      return result;
    }

    result.iterations.push_back(std::move(log));

    if (out.status == ipc::CheckStatus::Unknown) {
      result.verdict = Verdict::Unknown;
      result.timed_out = out.timed_out;
      result.metrics = collect_metrics(ctx);
      return result;
    }
    if (out.s_cex.empty()) {
      // S_cex = ∅: the property is inductive for this S; with the trivial
      // base case (no influence before the victim's first access) this gives
      // the unbounded secure verdict.
      result.verdict = Verdict::Secure;
      result.final_s = std::move(S);
      result.metrics = collect_metrics(ctx);
      return result;
    }
    S.remove_all(out.s_cex);
  }
  result.verdict = Verdict::Unknown;
  result.metrics = collect_metrics(ctx);
  return result;
}

} // namespace upec
