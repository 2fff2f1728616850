// Abstract emission and inspection interfaces that decouple the encode layer
// from any concrete solver.
//
//  * ClauseSink — where Tseitin encoders emit variables and clauses. Both the
//    live CDCL Solver and the recording CnfStore implement it, so the same
//    encoding pass can drive a single incremental solver or a shared clause
//    database that a pool of worker solvers hydrates from.
//
//  * ModelSource — where model values are read back after a satisfiable
//    solve. Abstracting this lets the miter's counterexample inspection run
//    against any worker solver's model, not just the one the CNF was first
//    encoded into.
#pragma once

#include <vector>

#include "sat/types.h"

namespace upec::sat {

class ClauseSink {
public:
  virtual ~ClauseSink() = default;

  virtual Var new_var() = 0;
  // Returns false if the formula became trivially UNSAT (sinks that only
  // record always return true).
  virtual bool add_clause(const std::vector<Lit>& lits) = 0;
  virtual int num_vars() const = 0;

  bool add_clause(Lit a) { return add_clause(std::vector<Lit>{a}); }
  bool add_clause(Lit a, Lit b) { return add_clause(std::vector<Lit>{a, b}); }
  bool add_clause(Lit a, Lit b, Lit c) { return add_clause(std::vector<Lit>{a, b, c}); }
};

class ModelSource {
public:
  virtual ~ModelSource() = default;
  // Value of a literal in the most recent satisfying assignment.
  virtual bool model_value(Lit l) const = 0;
};

} // namespace upec::sat
