#include "upec/alg1.h"

#include <string>

#include "sat/metrics.h"
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

void collect_solver_usage(const UpecContext& ctx, SolverUsage& usage) {
  usage = SolverUsage{};

  // Every aggregate below is a registry merge (util/metrics.h: counters sum,
  // gauges max) over per-component snapshots — there is exactly one place
  // that defines how workers + portfolio members add up, and both `total`
  // and `per_worker` are *derived* from the merged registry.
  const ipc::CheckScheduler& sched = ctx.scheduler;
  util::MetricsSnapshot total_m;
  const std::vector<sat::SolverStats> worker_stats = sched.worker_stats();
  usage.per_worker_members = sched.worker_member_stats();
  usage.per_worker_health = sched.worker_health();
  const std::vector<std::size_t> live = sched.worker_live_learnts();
  const std::vector<std::size_t> arena = sched.worker_arena_bytes();
  const unsigned W = sched.workers();
  usage.per_worker.reserve(W);
  for (unsigned w = 0; w < W; ++w) {
    const std::string wp = "sat.solver.w" + std::to_string(w) + ".";
    util::MetricsSnapshot wm;
    const std::vector<sat::SolverStats>& members = usage.per_worker_members[w];
    if (members.empty()) {
      sat::append_metrics(wm, worker_stats[w]);
    } else {
      for (std::size_t m = 0; m < members.size(); ++m) {
        util::MetricsSnapshot mm;
        sat::append_metrics(mm, members[m]);
        usage.metrics.merge_prefixed(wp + "m" + std::to_string(m) + ".", mm);
        wm.merge(mm);
      }
    }
    usage.per_worker.push_back(sat::solver_stats_from_metrics(wm));
    usage.metrics.merge_prefixed(wp, wm);
    total_m.merge(wm);

    util::MetricsSnapshot hm;
    sat::append_metrics(hm, usage.per_worker_health[w]);
    usage.metrics.merge_prefixed("sat.health.w" + std::to_string(w) + ".", hm);
    usage.retained_learnts += live[w];
    // Clause-arena memory per worker. Gauges outside the sat.solver.* tree,
    // so the identity total == sum of workers covers counters only.
    usage.metrics.set_gauge("sat.arena_bytes.w" + std::to_string(w), arena[w]);
  }
  usage.simplify = sched.simplify_stats();
  usage.metrics.add_counter("sat.channel.published", sched.shared_clauses());
  usage.total = sat::solver_stats_from_metrics(total_m);
  usage.metrics.merge_prefixed("sat.solver.total.", total_m);

  usage.pruned_candidates = ctx.pruner.total_pruned();
  usage.metrics.add_counter("upec.sweep.pruned_candidates", usage.pruned_candidates);
  usage.metrics.set_gauge("upec.sweep.retained_learnts", usage.retained_learnts);
  usage.metrics.add_counter("sat.channel.exported", usage.total.exported_clauses);
  usage.metrics.add_counter("sat.channel.imported", usage.total.imported_clauses);
  util::MetricsSnapshot sm;
  sat::append_metrics(sm, usage.simplify);
  usage.metrics.merge_prefixed("sat.simplify.", sm);
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
      collect_solver_usage(ctx, result.stats);
      return result;
    }

    result.iterations.push_back(std::move(log));

    if (out.status == ipc::CheckStatus::Unknown) {
      result.verdict = Verdict::Unknown;
      result.timed_out = out.timed_out;
      collect_solver_usage(ctx, result.stats);
      return result;
    }
    if (out.s_cex.empty()) {
      // S_cex = ∅: the property is inductive for this S; with the trivial
      // base case (no influence before the victim's first access) this gives
      // the unbounded secure verdict.
      result.verdict = Verdict::Secure;
      result.final_s = std::move(S);
      collect_solver_usage(ctx, result.stats);
      return result;
    }
    S.remove_all(out.s_cex);
  }
  result.verdict = Verdict::Unknown;
  collect_solver_usage(ctx, result.stats);
  return result;
}

} // namespace upec
