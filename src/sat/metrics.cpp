#include "sat/metrics.h"

#include <cmath>

namespace upec::sat {

void append_metrics(util::MetricsSnapshot& out, const SolverStats& stats) {
  out.add_counter("carried_learnts", stats.carried_learnts);
  out.add_counter("chrono_backtracks", stats.chrono_backtracks);
  out.add_counter("conflicts", stats.conflicts);
  out.add_counter("decisions", stats.decisions);
  out.add_counter("deleted_clauses", stats.deleted_clauses);
  out.add_counter("exported_clauses", stats.exported_clauses);
  out.add_counter("imported_clauses", stats.imported_clauses);
  out.add_counter("learned_clauses", stats.learned_clauses);
  out.add_counter("propagations", stats.propagations);
  out.add_counter("restarts", stats.restarts);
  out.add_counter("solve_calls", stats.solve_calls);
}

void append_metrics(util::MetricsSnapshot& out, const SimplifyStats& stats) {
  out.add_counter("delta_clauses", stats.delta_clauses);
  out.add_counter("eliminated_vars", stats.eliminated_vars);
  out.add_counter("failed_literals", stats.failed_literals);
  out.add_counter("fixed_vars", stats.fixed_vars);
  out.add_counter("frozen_eliminations", stats.frozen_eliminations);
  out.add_counter("resolvents_added", stats.resolvents_added);
  out.add_counter("restored_vars", stats.restored_vars);
  out.add_counter("reuses", stats.reuses);
  out.add_counter("rounds", stats.rounds);
  out.add_counter("runs", stats.runs);
  out.add_counter("strengthened_clauses", stats.strengthened_clauses);
  out.add_counter("subsumed_clauses", stats.subsumed_clauses);
  out.add_counter("wall_us",
                  static_cast<std::uint64_t>(std::llround(stats.seconds * 1e6)));
  out.set_gauge("db_bytes", stats.db_bytes);
  out.set_gauge("elim_bytes", stats.elim_bytes);
  out.set_gauge("input_clauses", stats.input_clauses);
  out.set_gauge("input_literals", stats.input_literals);
  out.set_gauge("input_vars", static_cast<std::uint64_t>(
                                  stats.input_vars < 0 ? 0 : stats.input_vars));
  out.set_gauge("live_eliminated", stats.live_eliminated);
  out.set_gauge("output_clauses", stats.output_clauses);
  out.set_gauge("output_literals", stats.output_literals);
}

void append_metrics(util::MetricsSnapshot& out, const BackendHealth& health) {
  out.add_counter("degraded_solves", health.degraded_solves);
  out.add_counter("external_failures", health.external_failures);
  out.add_counter("restarts", health.restarts);
  out.add_counter("sat", health.sat);
  out.add_counter("solves", health.solves);
  out.add_counter("timeouts", health.timeouts);
  out.add_counter("unknown", health.unknown);
  out.add_counter("unsat", health.unsat);
  out.set_gauge("quarantined", health.quarantined ? 1 : 0);
}

} // namespace upec::sat
