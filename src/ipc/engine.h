// IPC check driver: one SAT query per property check, with wall-clock and
// solver statistics — these are what the Alg. 1 / Alg. 2 iteration reports
// and the reproduction benchmarks print.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "encode/miter.h"
#include "ipc/property.h"

namespace upec::ipc {

enum class CheckStatus : std::uint8_t {
  Holds,    // UNSAT: no behavior violates the property
  Violated, // SAT: a counterexample exists (model available in the solver)
  Unknown,  // resource budget exhausted
};

struct CheckResult {
  CheckStatus status = CheckStatus::Unknown;
  double seconds = 0.0;
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  // Unknown was caused by the wall-clock deadline (VerifyOptions::deadline_ms)
  // rather than a conflict budget — the distinction reports surface so a
  // budget-starved run and a time-starved run are tellable apart.
  bool timed_out = false;
};

// Creates an activation literal `act` with clause act -> OR(disjuncts):
// assuming `act` forces at least one disjunct, i.e. one property violation.
encode::Lit make_violation_any(encode::CnfBuilder& cnf,
                               const std::vector<encode::Lit>& disjuncts);

class Engine {
public:
  explicit Engine(sat::Solver& solver) : solver_(solver) {}

  CheckResult check(const BoundedProperty& property);

  // Pure assumption-based query (the sweep path: candidate selection is
  // entirely in the assumption set, nothing is encoded per check). On Holds,
  // `core_out` (if non-null) receives the refuting subset of the assumptions
  // (see Solver::conflict_assumptions).
  CheckResult check_assumptions(const std::vector<encode::Lit>& assumptions,
                                std::vector<encode::Lit>* core_out = nullptr);

  sat::Solver& solver() { return solver_; }

private:
  sat::Solver& solver_;
};

} // namespace upec::ipc
