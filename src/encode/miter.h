// 2-safety miter: two unrolled instances of the design under verification
// inside one CNF, as required by the UPEC computational model (Sec 3.2).
//
// Both instances get independent symbolic starting states;
// State_Equivalence(S) is expressed through per-state-variable activation
// literals passed as solver assumptions. Shrinking S across Alg. 1 / Alg. 2
// iterations only changes the assumption set — clauses and learned clauses
// persist across iterations.
//
// Primary inputs are shared between the instances by default (this *is*
// Primary_Input_Constraints(), enforced with zero clauses); inputs named by
// the per_instance predicate (the CPU/system interface of Obs. 1) get
// independent images so the Victim_Task_Executing() macro can constrain them.
//
// Because shared inputs have one image and every gate is full Tseitin, a
// state variable whose one-step cone reads only state equal in both
// instances (and no per-instance input) is equal too. The miter exposes
// that structure for the sweeps' pre-SAT pass: each state variable's
// support (structural_support) and guarded equality lemmas
// (structural_guard) that hand the solver what structure already proves.
// Refutations from earlier frames enter the same guard table as lemmas of
// their own (equality_lemma), so a later frame's solve and structural pass
// start from what earlier frames proved.
#pragma once

#include <cassert>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "encode/unroller.h"
#include "sat/solver.h"

namespace upec::encode {

struct MiterOptions {
  // Inputs whose image must be independent per instance (CPU interface).
  std::function<bool(const std::string& input_name)> per_instance;
};

class Miter {
public:
  // Encodes into an arbitrary clause sink (a recording CnfStore, a live
  // Solver, ...). Model inspection requires a model source — install one with
  // set_model_source() or use the per-call overloads below.
  Miter(sat::ClauseSink& sink, const rtlir::Design& design, const rtlir::StateVarTable& svt,
        MiterOptions options);

  // Single-solver convenience: encode into `solver` and read models from it.
  Miter(sat::Solver& solver, const rtlir::Design& design, const rtlir::StateVarTable& svt,
        MiterOptions options)
      : Miter(static_cast<sat::ClauseSink&>(solver), design, svt, std::move(options)) {
    model_ = &solver;
  }

  CnfBuilder& cnf() { return cnf_; }
  UnrolledInstance& inst_a() { return a_; }
  UnrolledInstance& inst_b() { return b_; }
  const UnrolledInstance& inst_a() const { return a_; }
  const UnrolledInstance& inst_b() const { return b_; }
  const rtlir::StateVarTable& state_vars() const { return svt_; }

  // Appends every CNF variable the sweep layers address by name — eq
  // assumptions, diff literals, candidate activation literals and chain
  // tails, exemption literals, and the constant-true variable. This is the
  // miter's half of the Simplifier frozen-variable contract (sat/simplify.h):
  // a preprocessor must keep these variables intact or assuming/harvesting
  // them would silently mean nothing. Monotone: registration only ever adds
  // entries, so a set collected now covers every earlier sweep's needs.
  void frozen_vars(std::vector<sat::Var>& out) const;

  // Exemption hook: returns, for a state variable, a literal that is true
  // when the variable is exempt from equivalence (memory word inside the
  // symbolic victim range). Must be installed before the first
  // eq_assumption/diff_literal call; defaults to "never exempt".
  void set_exempt(std::function<Lit(Miter&, rtlir::StateVarId)> fn) { exempt_fn_ = std::move(fn); }
  Lit exempt_lit(rtlir::StateVarId sv);

  // Activation literal for "sv equal at frame 0 (unless exempt)".
  Lit eq_assumption(rtlir::StateVarId sv);

  // Reverse lookup for UNSAT-core mining: true iff `l` is an eq_assumption
  // literal, storing its state variable in *sv.
  bool eq_assumption_var(Lit l, rtlir::StateVarId* sv) const {
    auto it = eq_lit_sv_.find(l.index());
    if (it == eq_lit_sv_.end()) return false;
    *sv = it->second;
    return true;
  }

  // Literal d with d -> (sv differs at `frame` and is not exempt).
  Lit diff_literal(rtlir::StateVarId sv, unsigned frame);

  // --- persistent candidate activation (incremental sweeps) --------------------
  // One activation literal e per (sv, frame), encoded exactly once:
  //   e -> diff(sv, frame)
  // together with a per-frame group disjunction over every registered
  // activation, chain-extended as candidates register late:
  //   (e_1 | ... | e_n | tail_0)        first registration batch
  //   (~tail_0 | e_n+1 | ... | tail_1)  each later batch
  // A sweep round then *selects* its candidate subset purely through
  // assumptions — ~e for every deselected candidate plus ~tail for the open
  // chain end — so the query "can any selected candidate differ at `frame`?"
  // never re-encodes anything: solvers keep their learnt clauses live across
  // rounds and iterations, and the CNF stream is identical for every thread
  // count. See README "Incremental sweeps" for the soundness argument.
  Lit activation_literal(rtlir::StateVarId sv, unsigned frame);

  // Ensures every sv in `svs` has an activation literal registered in the
  // frame's group disjunction (no-op for already-registered candidates).
  void register_candidates(const std::vector<rtlir::StateVarId>& svs, unsigned frame);

  // Appends the selecting assumptions for "some member of `enabled` differs
  // at `frame`": ~e for each registered candidate not in `enabled`, plus the
  // negated open chain tail. Every member of `enabled` must be registered.
  void select_candidates(unsigned frame, const std::vector<rtlir::StateVarId>& enabled,
                         std::vector<Lit>& out_assumptions) const;

  // --- structural equality (the pre-SAT pass of upec::sweep_frame) -------------
  // What a state variable's one-step cone reads: the rtlir::comb_fanin of a
  // register's d, en and q, or, for a memory word, of every write port's
  // addr, data and en, plus the word itself. A MemRead in the cone reads every
  // word of its memory. `per_instance_input` is set when the cone reads an
  // input that MiterOptions::per_instance gives one image per instance. The
  // supports of all state variables are computed on the first call and
  // memoized in this miter.
  struct StructuralSupport {
    std::vector<rtlir::StateVarId> state; // sorted ascending
    bool per_instance_input = false;
  };
  const StructuralSupport& structural_support(rtlir::StateVarId sv);

  // Guard g(sv, frame) of the lemma "sv is equal in both instances at
  // `frame`", encoded once per (sv, frame):
  //   g(sv, 0) is eq_assumption(sv), which sv's exemption must not weaken
  //     (exempt_lit(sv) constant false);
  //   for frame >= 1, a fresh g with
  //     (~g(u, frame - 1) for every u in sv's support) | g
  //     g -> (a_i <-> b_i) for every bit i of state_at(frame, sv)
  //   where sv's cone reads no per-instance input, and every u gets its own
  //   guard at frame - 1 by the same rule.
  // Under those conditions the clauses are implied: the encoding is full
  // Tseitin and shared inputs have one image, so equal support state gives
  // equal next state, and setting each g to the conjunction of its support
  // guards extends every model. Answers never change; the solver only gets
  // the equality without rediscovering it. A (sv, frame) that already has a
  // guard (an equality_lemma) returns it and emits nothing.
  Lit structural_guard(rtlir::StateVarId sv, unsigned frame);

  // The lemma of a refutation F ∧ core ⊨ ¬diff(sv, frame) (a
  // upec::FrontierPruner record, frame >= 1), on sv's guard g at `frame`:
  //   (~c for every c in core) | g
  //   g -> (a_i <-> b_i) for every bit i of state_at(frame, sv), or, if sv is
  //     exemptible, g -> (exempt_lit(sv) | (a_i <-> b_i)).
  // The guard is the one in structural_guard's table: a (sv, frame) that
  // already has one (a structural guard, or an earlier core's lemma) gains
  // only the core clause. The clauses are implied: diff(sv, frame) is
  // "some bit differs and sv is not exempt", so each core entails the
  // guarded equality, and setting g to the disjunction of its reasons
  // extends every model. Exemptible words never enter the structural pass,
  // so their weaker guard is never read as plain equality.
  Lit equality_lemma(rtlir::StateVarId sv, unsigned frame, const std::vector<Lit>& core);

  // --- model inspection (valid after a SAT solve) ------------------------------
  // The default model source (the solver itself in the single-solver setup;
  // the scheduler's worker 0, which answers CheckScheduler::check, in a
  // UpecContext).
  void set_model_source(const sat::ModelSource* model) { model_ = model; }

  std::uint64_t model_value(const sat::ModelSource& model, const Bits& image) const;
  std::uint64_t model_value(const Bits& image) const {
    assert(model_ != nullptr && "no model source installed (store-only miter?)");
    return model_value(*model_, image);
  }
  bool lit_in_model(Lit l) const;
  // True iff the two instances disagree on sv at `frame` in the installed
  // model source and the variable is not exempted by the model's victim
  // range. The images must already be encoded (they are, once a
  // diff_literal for (sv, frame) exists).
  bool differs_in_model(rtlir::StateVarId sv, unsigned frame);

private:
  CnfBuilder cnf_;
  const sat::ModelSource* model_ = nullptr;
  const rtlir::StateVarTable& svt_;
  MiterOptions options_;
  UnrolledInstance a_;
  UnrolledInstance b_;
  std::function<Lit(Miter&, rtlir::StateVarId)> exempt_fn_;
  std::unordered_map<std::uint64_t, Bits> shared_input_cache_; // (frame<<32)|input_idx
  std::unordered_map<rtlir::StateVarId, Lit> eq_lits_;
  std::unordered_map<std::int32_t, rtlir::StateVarId> eq_lit_sv_; // Lit::index -> sv
  std::unordered_map<std::uint64_t, Lit> diff_lits_; // (frame<<32)|sv
  std::unordered_map<rtlir::StateVarId, Lit> exempt_cache_;

  // Per-frame candidate activation groups (registration order preserved for
  // deterministic assumption construction).
  struct CandidateGroup {
    std::vector<rtlir::StateVarId> members;
    std::unordered_map<rtlir::StateVarId, Lit> activation;
    Lit tail = Lit::undef(); // open end of the group-disjunction chain
  };
  std::unordered_map<unsigned, CandidateGroup> candidate_groups_;

  // Creates sv's guard g at `frame`: emits (reason | g) and the guarded
  // equality of every bit, weakened by `exempt` unless it is constant false.
  Lit new_guard(rtlir::StateVarId sv, unsigned frame, std::vector<Lit> reason, Lit exempt);

  std::vector<StructuralSupport> supports_; // per state variable; empty until first use
  // Structural guards and equality lemmas, one guard per (sv, frame).
  std::unordered_map<std::uint64_t, Lit> guards_; // (frame<<32)|sv
};

} // namespace upec::encode
