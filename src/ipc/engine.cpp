#include "ipc/engine.h"

#include "util/trace.h"

namespace upec::ipc {

encode::Lit make_violation_any(encode::CnfBuilder& cnf,
                               const std::vector<encode::Lit>& disjuncts) {
  const encode::Lit act = cnf.fresh();
  std::vector<encode::Lit> clause;
  clause.reserve(disjuncts.size() + 1);
  clause.push_back(~act);
  for (encode::Lit d : disjuncts) clause.push_back(d);
  cnf.add_clause(clause);
  return act;
}

CheckResult Engine::check(const BoundedProperty& property) {
  std::vector<encode::Lit> assumptions = property.assumptions;
  assumptions.push_back(property.violation);
  return check_assumptions(assumptions);
}

CheckResult Engine::check_assumptions(const std::vector<encode::Lit>& assumptions,
                                      std::vector<encode::Lit>* core_out) {
  util::trace::Span span("solve.main", "solve");
  span.arg("assumptions", static_cast<std::uint64_t>(assumptions.size()));
  CheckResult result;
  if (core_out != nullptr) core_out->clear();

  const sat::SolverStats before = solver_.stats();
  const auto t0 = std::chrono::steady_clock::now();

  bool sat_result = false;
  bool interrupted = false;
  try {
    sat_result = solver_.solve(assumptions);
  } catch (const sat::SolverInterrupted& e) {
    interrupted = true;
    result.timed_out = e.reason == sat::SolverInterrupted::Reason::Deadline;
  }

  const auto t1 = std::chrono::steady_clock::now();
  result.seconds = std::chrono::duration<double>(t1 - t0).count();
  const sat::SolverStats after = solver_.stats();
  result.conflicts = after.conflicts - before.conflicts;
  result.decisions = after.decisions - before.decisions;
  result.propagations = after.propagations - before.propagations;
  result.status = interrupted ? CheckStatus::Unknown
                  : sat_result ? CheckStatus::Violated
                               : CheckStatus::Holds;

  if (result.status == CheckStatus::Holds && core_out != nullptr) {
    *core_out = solver_.conflict_assumptions();
  }
  return result;
}

} // namespace upec::ipc
