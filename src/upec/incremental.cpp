#include "upec/incremental.h"

#include <algorithm>
#include <iterator>

namespace upec {

void FrontierPruner::record(unsigned frame, const std::vector<rtlir::StateVarId>& enabled,
                            Justification just) {
  auto shared = std::make_shared<const Justification>(std::move(just));
  for (rtlir::StateVarId sv : enabled) {
    just_[key(frame, sv)] = shared;
    unemitted_.push_back(Record{frame, sv, shared});
  }
}

const FrontierPruner::Justification* FrontierPruner::entailed(
    unsigned frame, rtlir::StateVarId sv, const std::unordered_set<rtlir::StateVarId>& eq_assumed,
    const std::unordered_set<std::int32_t>& assumption_lits) const {
  const auto it = just_.find(key(frame, sv));
  if (it == just_.end()) return nullptr;
  for (rtlir::StateVarId dep : it->second->eq_svs) {
    if (eq_assumed.find(dep) == eq_assumed.end()) return nullptr;
  }
  for (sat::Lit l : it->second->other_lits) {
    if (assumption_lits.find(l.index()) == assumption_lits.end()) return nullptr;
  }
  return it->second.get();
}

void FrontierPruner::filter(unsigned frame, const std::vector<rtlir::StateVarId>& members,
                            const std::unordered_set<rtlir::StateVarId>& eq_assumed,
                            const std::unordered_set<std::int32_t>& assumption_lits,
                            std::vector<rtlir::StateVarId>& eligible,
                            std::vector<rtlir::StateVarId>& pruned) {
  eligible.clear();
  pruned.clear();
  for (rtlir::StateVarId sv : members) {
    if (entailed(frame, sv, eq_assumed, assumption_lits) != nullptr) {
      pruned.push_back(sv);
    } else {
      eligible.push_back(sv);
    }
  }
  total_pruned_ += pruned.size();
}

std::vector<FrontierPruner::Record> FrontierPruner::take_unemitted(unsigned frame) {
  const auto taken = std::stable_partition(unemitted_.begin(), unemitted_.end(),
                                           [frame](const Record& r) { return r.frame >= frame; });
  std::vector<Record> out(std::make_move_iterator(taken),
                          std::make_move_iterator(unemitted_.end()));
  unemitted_.erase(taken, unemitted_.end());
  return out;
}

} // namespace upec
