// DIMACS CNF import/export: writes the solver's problem clauses in the
// standard format so instances can be cross-checked with external SAT
// solvers or archived alongside experiment results, and reads instances
// back for regression testing and replaying archived queries.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>

#include "sat/snapshot.h"
#include "sat/solver.h"

namespace upec::sat {

// Writes `p cnf <vars> <clauses>` followed by one clause per line. Optional
// `assumptions` are appended as unit clauses (freezing one property check
// into a standalone instance).
void write_dimacs(std::ostream& os, const Solver& solver,
                  const std::vector<Lit>& assumptions = {});

// Same, from an immutable CnfSnapshot — the export path for encodings that
// were emitted into a CnfStore (e.g. a full miter), enabling cross-checks of
// individual property queries against external SAT solvers without ever
// constructing an in-process solver.
void write_dimacs(std::ostream& os, const CnfSnapshot& snapshot,
                  const std::vector<Lit>& assumptions = {});

// Incremental serializer for repeated exports of a growing store: caches the
// serialized clause body and, when asked to write a snapshot of the same
// store again, serializes only the clauses appended since the cached prefix.
// The header and assumption units are regenerated per write, so the output is
// byte-identical to write_dimacs(os, snapshot, assumptions) — asserted by the
// external-solver fault suite. A different store id (or a shrunk / renumbered
// view) drops the cache and rebuilds from scratch, so correctness never
// depends on the caller's sync discipline.
class DimacsCache {
public:
  void write(std::ostream& os, const CnfSnapshot& snapshot,
             const std::vector<Lit>& assumptions = {});

  // Serialized-clause bytes appended across all writes — total minus reused
  // lets tests prove the delta path actually engaged.
  std::uint64_t bytes_serialized() const { return bytes_serialized_; }

private:
  std::uint64_t store_id_ = 0;
  int vars_ = 0;
  std::size_t clauses_ = 0;     // cached prefix length, in clauses
  std::string body_;            // serialized clause lines for that prefix
  std::uint64_t bytes_serialized_ = 0;
};

// Reads a DIMACS CNF instance into `solver`, creating the variables the
// header declares (the solver must be freshly constructed or at least have
// no conflicting variable numbering). Comment lines (any line whose first
// token starts with 'c') are accepted anywhere and clauses may span lines,
// but the reader is strict where it protects the solver or would otherwise
// mask corruption: literals outside the header's declared variable range,
// variable counts that cannot be packed into `Lit`, clauses before the
// header, and a clause count that disagrees with the header (e.g. a file
// truncated at a line boundary) all return false, and a false return
// guarantees the solver was not mutated (clauses are staged until the whole
// file validates). A trivially-UNSAT instance still parses successfully
// (the solver just records ok == false).
bool read_dimacs(std::istream& is, Solver& solver);

} // namespace upec::sat
