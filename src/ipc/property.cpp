#include "ipc/property.h"

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

} // namespace upec::ipc
