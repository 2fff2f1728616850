// Bounded property representation for Interval Property Checking.
//
// A property instance is: a set of assumption literals (activated macros —
// state equivalence, victim constraints, invariants), plus one violation
// activation literal whose clause enumerates the ways the prove-part can
// fail. A check is SAT on   assumptions ∧ violation   — UNSAT means the
// property holds for the given window (CheckScheduler::check, ipc/scheduler.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "encode/cnf.h"

namespace upec::ipc {

enum class CheckStatus : std::uint8_t {
  Holds,    // UNSAT: no behavior violates the property
  Violated, // SAT: a counterexample exists (model available in the backend)
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

struct BoundedProperty {
  std::string name;
  unsigned window = 1; // number of transitions covered (t .. t+window)
  std::vector<encode::Lit> assumptions;
  encode::Lit violation; // activation literal; undef-free: lit_false = no violation part

  // The query's assumption set: `assumptions` plus the violation literal.
  std::vector<encode::Lit> query() const {
    std::vector<encode::Lit> as = assumptions;
    as.push_back(violation);
    return as;
  }
};

// Creates an activation literal `act` with clause act -> OR(disjuncts):
// assuming `act` forces at least one disjunct, i.e. one property violation.
encode::Lit make_violation_any(encode::CnfBuilder& cnf,
                               const std::vector<encode::Lit>& disjuncts);

} // namespace upec::ipc
