#include "upec/report.h"

#include <iomanip>
#include <sstream>
#include <string>

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

// The run's solver statistics, read from its metrics registry: the total over
// every scheduler worker, then one line per worker and its backend health.
void render_solver_usage(std::ostringstream& os, const util::MetricsSnapshot& m,
                         unsigned workers) {
  const auto row = [&](const std::string& p, bool learned) {
    os << m.get(p + "solve_calls") << " solves, " << m.get(p + "conflicts") << " conflicts, "
       << m.get(p + "decisions") << " decisions, " << m.get(p + "propagations") << " propagations";
    if (learned) os << ", " << m.get(p + "learned_clauses") << " learned";
  };
  const std::string t = "sat.solver.total.";
  os << "solver usage (" << workers << (workers == 1 ? " worker): " : " workers): ");
  row(t, false);
  if (m.get(t + "exported_clauses") != 0 || m.get(t + "imported_clauses") != 0) {
    os << ", shared clauses " << m.get(t + "exported_clauses") << " exported / "
       << m.get(t + "imported_clauses") << " imported";
  }
  os << "\n";
  if (m.get("upec.sweep.pruned_candidates") != 0 ||
      m.get("upec.sweep.structural_candidates") != 0 || m.get("upec.sweep.frame_lemmas") != 0) {
    os << "frontier pruning: " << m.get("upec.sweep.pruned_candidates")
       << " candidates pruned by cores, structural: "
       << m.get("upec.sweep.structural_candidates") << " refuted without a solve, ";
    if (m.get("upec.sweep.frame_lemmas") != 0) {
      os << "lemmas: " << m.get("upec.sweep.frame_lemmas") << " carried to later frames, ";
    }
    os << m.get("upec.sweep.retained_learnts") << " learnts retained\n";
  }
  const auto p = [&m](const char* leaf) { return m.get(std::string("sat.simplify.") + leaf); };
  if (p("runs") != 0) {
    os << "preprocessing: " << p("runs") << " runs / " << p("reuses") << " reuses, "
       << p("eliminated_vars") << " vars eliminated, " << p("subsumed_clauses") << " subsumed, "
       << p("strengthened_clauses") << " strengthened, " << p("failed_literals")
       << " failed literals, " << p("fixed_vars") << " fixed; last run " << p("input_clauses")
       << " -> " << p("output_clauses") << " clauses";
    if (p("delta_clauses") != 0 || p("restored_vars") != 0) {
      os << "; incremental: " << p("delta_clauses") << " delta clauses, " << p("restored_vars")
         << " vars restored, " << p("live_eliminated") << " eliminated in the last generation";
    }
    os << "\n";
  }
  for (unsigned w = 0; w < workers; ++w) {
    const std::string wp = "sat.solver.w" + std::to_string(w) + ".";
    os << "  worker " << w << ": ";
    row(wp, true);
    if (m.get(wp + "exported_clauses") != 0 || m.get(wp + "imported_clauses") != 0) {
      os << ", " << m.get(wp + "exported_clauses") << " exported, "
         << m.get(wp + "imported_clauses") << " imported";
    }
    os << "\n";
    // Plain in-proc workers count no backend solves and get no health line.
    const std::string hp = "sat.health.w" + std::to_string(w) + ".";
    const auto h = [&](const char* leaf) { return m.get(hp + leaf); };
    if (h("solves") == 0) continue;
    os << "    health: " << h("solves") << " backend solves (" << h("sat") << " sat / "
       << h("unsat") << " unsat / " << h("unknown") << " unknown)";
    if (h("external_failures") != 0) os << ", " << h("external_failures") << " external failures";
    if (h("restarts") != 0) os << ", " << h("restarts") << " restarts";
    if (h("timeouts") != 0) os << ", " << h("timeouts") << " timeouts";
    if (h("degraded_solves") != 0) os << ", " << h("degraded_solves") << " degraded";
    os << (h("quarantined") != 0 ? ", QUARANTINED\n" : "\n");
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
  render_solver_usage(os, result.metrics, ctx.scheduler.workers());
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
  render_solver_usage(os, result.metrics, ctx.scheduler.workers());
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
