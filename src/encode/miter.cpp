#include "encode/miter.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "util/trace.h"

namespace upec::encode {

Miter::Miter(sat::ClauseSink& sink, const rtlir::Design& design, const rtlir::StateVarTable& svt,
             MiterOptions options)
    : cnf_(sink),
      svt_(svt),
      options_(std::move(options)),
      a_(cnf_, design, svt, "a"),
      b_(cnf_, design, svt, "b") {
  // Shared inputs: both instances resolve to one image, which enforces
  // Primary_Input_Constraints() structurally. Per-instance inputs (the CPU
  // interface) return an empty binding so each instance allocates its own.
  auto resolver = [this, &design](std::uint32_t input_idx, unsigned frame) -> Bits {
    const rtlir::InputInfo& info = design.inputs()[input_idx];
    const std::string& name = design.net(info.net).name;
    if (options_.per_instance && options_.per_instance(name)) return {};
    const std::uint64_t key = (static_cast<std::uint64_t>(frame) << 32) | input_idx;
    auto it = shared_input_cache_.find(key);
    if (it == shared_input_cache_.end()) {
      it = shared_input_cache_.emplace(key, cnf_.fresh_vec(design.width(info.net))).first;
    }
    return it->second;
  };
  a_.set_input_resolver(resolver);
  b_.set_input_resolver(resolver);
}

Lit Miter::exempt_lit(rtlir::StateVarId sv) {
  auto it = exempt_cache_.find(sv);
  if (it != exempt_cache_.end()) return it->second;
  const Lit l = exempt_fn_ ? exempt_fn_(*this, sv) : cnf_.lit_false();
  exempt_cache_.emplace(sv, l);
  return l;
}

Lit Miter::eq_assumption(rtlir::StateVarId sv) {
  auto it = eq_lits_.find(sv);
  if (it != eq_lits_.end()) return it->second;

  const Lit e = cnf_.fresh();
  const Lit ex = exempt_lit(sv);
  const Bits& av = a_.state_at(0, sv);
  const Bits& bv = b_.state_at(0, sv);
  assert(av.size() == bv.size());
  for (std::size_t i = 0; i < av.size(); ++i) {
    if (cnf_.is_false(ex)) {
      cnf_.add_clause({~e, ~av[i], bv[i]});
      cnf_.add_clause({~e, av[i], ~bv[i]});
    } else {
      cnf_.add_clause({~e, ex, ~av[i], bv[i]});
      cnf_.add_clause({~e, ex, av[i], ~bv[i]});
    }
  }
  eq_lits_.emplace(sv, e);
  eq_lit_sv_.emplace(e.index(), sv);
  return e;
}

Lit Miter::diff_literal(rtlir::StateVarId sv, unsigned frame) {
  const std::uint64_t key = (static_cast<std::uint64_t>(frame) << 32) | sv;
  auto it = diff_lits_.find(key);
  if (it != diff_lits_.end()) return it->second;

  const Bits& av = a_.state_at(frame, sv);
  const Bits& bv = b_.state_at(frame, sv);
  assert(av.size() == bv.size());
  const Lit d = cnf_.fresh();
  // d -> (some bit differs)
  std::vector<Lit> cl;
  cl.push_back(~d);
  for (std::size_t i = 0; i < av.size(); ++i) cl.push_back(cnf_.xor2(av[i], bv[i]));
  cnf_.add_clause(cl);
  // d -> not exempt
  const Lit ex = exempt_lit(sv);
  if (!cnf_.is_false(ex)) cnf_.add_clause({~d, ~ex});
  diff_lits_.emplace(key, d);
  return d;
}

Lit Miter::activation_literal(rtlir::StateVarId sv, unsigned frame) {
  CandidateGroup& group = candidate_groups_[frame];
  auto it = group.activation.find(sv);
  if (it != group.activation.end()) return it->second;
  register_candidates({sv}, frame);
  return group.activation.at(sv);
}

void Miter::register_candidates(const std::vector<rtlir::StateVarId>& svs, unsigned frame) {
  util::trace::Span span("encode.register_candidates", "encode");
  span.arg("candidates", static_cast<std::uint64_t>(svs.size()));
  span.arg("frame", std::uint64_t{frame});
  CandidateGroup& group = candidate_groups_[frame];
  std::vector<Lit> fresh_acts;
  for (rtlir::StateVarId sv : svs) {
    if (group.activation.find(sv) != group.activation.end()) continue;
    const Lit d = diff_literal(sv, frame);
    const Lit e = cnf_.fresh();
    cnf_.add_clause({~e, d}); // e -> diff(sv, frame)
    group.activation.emplace(sv, e);
    group.members.push_back(sv);
    fresh_acts.push_back(e);
  }
  if (fresh_acts.empty()) return;
  // Extend (or open) the group-disjunction chain with the new batch. The new
  // tail stays unconstrained until the next batch; selection assumes it false
  // to close the chain.
  const Lit new_tail = cnf_.fresh();
  std::vector<Lit> clause;
  clause.reserve(fresh_acts.size() + 2);
  if (group.tail != Lit::undef()) clause.push_back(~group.tail);
  clause.insert(clause.end(), fresh_acts.begin(), fresh_acts.end());
  clause.push_back(new_tail);
  cnf_.add_clause(clause);
  group.tail = new_tail;
}

void Miter::select_candidates(unsigned frame, const std::vector<rtlir::StateVarId>& enabled,
                              std::vector<Lit>& out_assumptions) const {
  const auto git = candidate_groups_.find(frame);
  assert(git != candidate_groups_.end() && "select before register_candidates");
  const CandidateGroup& group = git->second;
  std::unordered_set<rtlir::StateVarId> on(enabled.begin(), enabled.end());
  for (rtlir::StateVarId sv : group.members) {
    if (on.find(sv) == on.end()) out_assumptions.push_back(~group.activation.at(sv));
  }
  out_assumptions.push_back(~group.tail);
}

const Miter::StructuralSupport& Miter::structural_support(rtlir::StateVarId sv) {
  if (supports_.empty()) {
    const rtlir::Design& design = a_.design();
    // Folds one cone's terminals into a support: register outputs and every
    // word behind a memory read are state; inputs count only per instance.
    const auto fold = [&](const std::vector<rtlir::NetId>& roots) {
      StructuralSupport out;
      const std::vector<bool> cone = rtlir::comb_fanin(design, roots);
      for (rtlir::NetId n = 0; n < cone.size(); ++n) {
        if (!cone[n]) continue;
        const rtlir::Net& net = design.net(n);
        if (net.kind == rtlir::NetKind::RegQ) {
          out.state.push_back(svt_.of_register(net.payload));
        } else if (net.kind == rtlir::NetKind::MemRead) {
          const std::uint32_t mem = design.mem_reads()[net.payload].mem;
          for (std::uint32_t w = 0; w < design.memories()[mem].words; ++w) {
            out.state.push_back(svt_.of_mem_word(mem, w));
          }
        } else if (net.kind == rtlir::NetKind::Input && options_.per_instance &&
                   options_.per_instance(net.name)) {
          out.per_instance_input = true;
        }
      }
      return out;
    };
    const auto finish = [](StructuralSupport& s) {
      std::sort(s.state.begin(), s.state.end());
      s.state.erase(std::unique(s.state.begin(), s.state.end()), s.state.end());
    };
    supports_.resize(svt_.size());
    for (std::uint32_t r = 0; r < design.registers().size(); ++r) {
      const rtlir::Register& reg = design.registers()[r];
      StructuralSupport& s = supports_[svt_.of_register(r)];
      s = fold({reg.d, reg.en, reg.q});
      finish(s);
    }
    for (std::uint32_t m = 0; m < design.memories().size(); ++m) {
      std::vector<rtlir::NetId> roots;
      for (const rtlir::MemWritePort& wp : design.memories()[m].writes) {
        roots.insert(roots.end(), {wp.addr, wp.data, wp.en});
      }
      const StructuralSupport ports = fold(roots);
      for (std::uint32_t w = 0; w < design.memories()[m].words; ++w) {
        StructuralSupport& s = supports_[svt_.of_mem_word(m, w)];
        s = ports;
        s.state.push_back(svt_.of_mem_word(m, w));
        finish(s);
      }
    }
  }
  return supports_[sv];
}

Lit Miter::structural_guard(rtlir::StateVarId sv, unsigned frame) {
  if (frame == 0) {
    assert(cnf_.is_false(exempt_lit(sv)) && "an exemptible word has no frame-0 guard");
    return eq_assumption(sv);
  }
  const std::uint64_t key = (static_cast<std::uint64_t>(frame) << 32) | sv;
  auto it = guards_.find(key);
  if (it != guards_.end()) return it->second;

  const StructuralSupport& support = structural_support(sv);
  assert(!support.per_instance_input && "a per-instance input breaks structural equality");
  std::vector<Lit> clause;
  clause.reserve(support.state.size() + 1);
  for (rtlir::StateVarId u : support.state) clause.push_back(~structural_guard(u, frame - 1));
  return new_guard(sv, frame, std::move(clause), cnf_.lit_false());
}

Lit Miter::equality_lemma(rtlir::StateVarId sv, unsigned frame, const std::vector<Lit>& core) {
  assert(frame >= 1 && "frame 0 equality is an eq assumption, not a lemma");
  std::vector<Lit> clause;
  clause.reserve(core.size() + 1);
  for (Lit c : core) clause.push_back(~c);
  const auto it = guards_.find((static_cast<std::uint64_t>(frame) << 32) | sv);
  if (it == guards_.end()) return new_guard(sv, frame, std::move(clause), exempt_lit(sv));
  clause.push_back(it->second);
  cnf_.add_clause(clause);
  return it->second;
}

Lit Miter::new_guard(rtlir::StateVarId sv, unsigned frame, std::vector<Lit> reason, Lit exempt) {
  const Lit g = cnf_.fresh();
  reason.push_back(g);
  cnf_.add_clause(reason);
  const Bits& av = a_.state_at(frame, sv);
  const Bits& bv = b_.state_at(frame, sv);
  for (std::size_t i = 0; i < av.size(); ++i) {
    if (av[i] == bv[i]) continue; // one literal (a folded constant): nothing to imply
    if (cnf_.is_false(exempt)) {
      cnf_.add_clause({~g, ~av[i], bv[i]});
      cnf_.add_clause({~g, av[i], ~bv[i]});
    } else {
      cnf_.add_clause({~g, exempt, ~av[i], bv[i]});
      cnf_.add_clause({~g, exempt, av[i], ~bv[i]});
    }
  }
  guards_.emplace((static_cast<std::uint64_t>(frame) << 32) | sv, g);
  return g;
}

std::uint64_t Miter::model_value(const sat::ModelSource& model, const Bits& image) const {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < image.size(); ++i) {
    if (model.model_value(image[i])) v |= 1ULL << i;
  }
  return v;
}

bool Miter::lit_in_model(Lit l) const {
  assert(model_ != nullptr);
  return model_->model_value(l);
}

void Miter::frozen_vars(std::vector<sat::Var>& out) const {
  out.push_back(cnf_.lit_true().var());
  for (const auto& [sv, l] : eq_lits_) out.push_back(l.var());
  for (const auto& [key, l] : diff_lits_) out.push_back(l.var());
  for (const auto& [sv, l] : exempt_cache_) out.push_back(l.var());
  for (const auto& [frame, group] : candidate_groups_) {
    for (const auto& [sv, l] : group.activation) out.push_back(l.var());
    if (group.tail != Lit::undef()) out.push_back(group.tail.var());
  }
}

bool Miter::differs_in_model(rtlir::StateVarId sv, unsigned frame) {
  assert(model_ != nullptr && "no model source installed (store-only miter?)");
  const Lit ex = exempt_lit(sv);
  if (!cnf_.is_false(ex) && model_->model_value(ex)) return false;
  const std::uint64_t va = model_value(*model_, a_.state_at(frame, sv));
  const std::uint64_t vb = model_value(*model_, b_.state_at(frame, sv));
  return va != vb;
}

} // namespace upec::encode
