#include "upec/report.h"

#include <iomanip>
#include <sstream>

namespace upec {

namespace {

void render_iteration_row(std::ostringstream& os, unsigned idx, const IterationLog& log,
                          int k = -1) {
  os << "  " << std::setw(4) << idx;
  if (k >= 0) os << std::setw(5) << k;
  os << std::setw(10) << log.s_size << std::setw(10) << log.cex_size << std::setw(10)
     << log.pers_hits << std::setw(12) << std::fixed << std::setprecision(3) << log.seconds
     << std::setw(12) << log.conflicts << "  "
     << (log.status == ipc::CheckStatus::Holds      ? "holds"
         : log.status == ipc::CheckStatus::Violated ? "cex"
         : log.timed_out                            ? "unknown (timed out)"
                                                    : "unknown")
     << "\n";
}

void render_hits(std::ostringstream& os, const UpecContext& ctx,
                 const std::vector<rtlir::StateVarId>& hits,
                 const std::vector<rtlir::StateVarId>& full) {
  os << "persistent state reached by victim information (S_cex ∩ S_pers):\n";
  for (rtlir::StateVarId sv : hits) {
    os << "  ! " << ctx.svt.name(sv) << "  [" << persistence_name(ctx.pers.classify(sv))
       << "]\n";
  }
  os << "all differing state variables in the counterexample:\n";
  for (rtlir::StateVarId sv : full) {
    os << "    " << ctx.svt.name(sv) << "  [" << persistence_name(ctx.pers.classify(sv))
       << "]\n";
  }
}

// Aggregated solver statistics: the sum over every scheduler worker.
void render_solver_usage(std::ostringstream& os, const SolverUsage& usage) {
  const sat::SolverStats& t = usage.total;
  const std::size_t workers = usage.per_worker.size();
  os << "solver usage (" << workers << (workers == 1 ? " worker): " : " workers): ")
     << t.solve_calls << " solves, " << t.conflicts << " conflicts, " << t.decisions
     << " decisions, " << t.propagations << " propagations";
  if (t.exported_clauses != 0 || t.imported_clauses != 0) {
    os << ", shared clauses " << t.exported_clauses << " exported / " << t.imported_clauses
       << " imported";
  }
  os << "\n";
  if (usage.pruned_candidates != 0) {
    os << "frontier pruning: " << usage.pruned_candidates << " candidates pruned by cores, "
       << usage.retained_learnts << " learnts retained\n";
  }
  if (usage.simplify.runs != 0) {
    const sat::SimplifyStats& p = usage.simplify;
    os << "preprocessing: " << p.runs << " runs / " << p.reuses << " reuses, "
       << p.eliminated_vars << " vars eliminated, " << p.subsumed_clauses << " subsumed, "
       << p.strengthened_clauses << " strengthened, " << p.failed_literals
       << " failed literals, " << p.fixed_vars << " fixed; last run " << p.input_clauses
       << " -> " << p.output_clauses << " clauses\n";
  }
  for (std::size_t w = 0; w < usage.per_worker.size(); ++w) {
    const sat::SolverStats& s = usage.per_worker[w];
    os << "  worker " << w << ": " << s.solve_calls << " solves, " << s.conflicts
       << " conflicts, " << s.decisions << " decisions, " << s.propagations
       << " propagations, " << s.learned_clauses << " learned";
    if (s.exported_clauses != 0 || s.imported_clauses != 0) {
      os << ", " << s.exported_clauses << " exported, " << s.imported_clauses << " imported";
    }
    os << "\n";
    // Portfolio-member breakdown: the members' counters sum to the worker
    // line above (collect_solver_usage derives the worker from the members
    // through one registry merge, so this is an identity, not a re-count).
    if (w < usage.per_worker_members.size() && !usage.per_worker_members[w].empty()) {
      for (std::size_t m = 0; m < usage.per_worker_members[w].size(); ++m) {
        const sat::SolverStats& ms = usage.per_worker_members[w][m];
        os << "    member " << m << ": " << ms.solve_calls << " solves, " << ms.conflicts
           << " conflicts, " << ms.decisions << " decisions, " << ms.propagations
           << " propagations, " << ms.learned_clauses << " learned\n";
      }
    }
    // Robustness counters only exist under portfolio / external backends;
    // plain in-proc workers report an all-zero BackendHealth and get no line.
    if (w < usage.per_worker_health.size()) {
      const sat::BackendHealth& h = usage.per_worker_health[w];
      if (h.solves != 0) {
        os << "    health: " << h.solves << " backend solves (" << h.sat << " sat / " << h.unsat
           << " unsat / " << h.unknown << " unknown)";
        if (h.external_failures != 0) os << ", " << h.external_failures << " external failures";
        if (h.restarts != 0) os << ", " << h.restarts << " restarts";
        if (h.timeouts != 0) os << ", " << h.timeouts << " timeouts";
        if (h.degraded_solves != 0) os << ", " << h.degraded_solves << " degraded";
        if (h.cancelled != 0) os << ", " << h.cancelled << " cancelled";
        if (h.quarantined) os << ", QUARANTINED";
        os << "\n";
      }
    }
  }
}

} // namespace

std::string iteration_table(const UpecContext& ctx, const Alg1Result& result) {
  (void)ctx;
  std::ostringstream os;
  os << "  iter      |S|    |Scex|     pers     time[s]   conflicts  status\n";
  for (std::size_t i = 0; i < result.iterations.size(); ++i) {
    render_iteration_row(os, static_cast<unsigned>(i + 1), result.iterations[i]);
  }
  return os.str();
}

std::string iteration_table(const UpecContext& ctx, const Alg2Result& result) {
  (void)ctx;
  std::ostringstream os;
  os << "  iter    k      |S|    |Scex|     pers     time[s]   conflicts  status\n";
  for (std::size_t i = 0; i < result.steps.size(); ++i) {
    render_iteration_row(os, static_cast<unsigned>(i + 1), result.steps[i].iteration,
                         static_cast<int>(result.steps[i].k));
  }
  return os.str();
}

std::string render_report(const UpecContext& ctx, const Alg1Result& result) {
  std::ostringstream os;
  os << "UPEC-SSC (Alg. 1, 2-cycle property)\n";
  os << iteration_table(ctx, result);
  os << "verdict: " << verdict_name(result.verdict)
     << (result.verdict == Verdict::Unknown && result.timed_out ? " (timed out)" : "")
     << "  (total " << std::fixed << std::setprecision(3) << result.total_seconds << " s)\n";
  render_solver_usage(os, result.stats);
  if (result.verdict == Verdict::Vulnerable) {
    render_hits(os, ctx, result.persistent_hits, result.full_cex);
    if (result.waveform) {
      os << "counterexample waveform (instance A / instance B where differing):\n"
         << result.waveform->pretty();
    }
  } else if (result.verdict == Verdict::Secure) {
    os << "final inductive set size |S| = " << result.final_s.size() << " of "
       << ctx.svt.size() << " state variables (S_pers ⊆ S ⊆ S_¬victim)\n";
  }
  return os.str();
}

std::string render_report(const UpecContext& ctx, const Alg2Result& result) {
  std::ostringstream os;
  os << "UPEC-SSC unrolled (Alg. 2), final k = " << result.final_k << "\n";
  os << iteration_table(ctx, result);
  os << "verdict: " << verdict_name(result.verdict)
     << (result.verdict == Verdict::Unknown && result.timed_out ? " (timed out)" : "")
     << "  (total " << std::fixed << std::setprecision(3) << result.total_seconds << " s)\n";
  render_solver_usage(os, result.stats);
  if (result.verdict == Verdict::Vulnerable) {
    render_hits(os, ctx, result.persistent_hits, result.full_cex);
    if (result.waveform) {
      os << "explicit " << result.final_k
         << "-cycle counterexample (instance A / instance B where differing):\n"
         << result.waveform->pretty();
    }
  }
  if (result.induction) {
    os << "closing induction: " << verdict_name(result.induction->verdict) << " after "
       << result.induction->iterations.size() << " iteration(s)\n";
  }
  return os.str();
}

} // namespace upec
