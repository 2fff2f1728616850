// Tseitin gate library over the CDCL solver.
//
// Word-level values are vectors of literals (`Bits`, LSB first). CNF variable
// 0 is pinned to true so that constant bits are ordinary literals and every
// gate encoder can fold constants on the fly — this is what makes the
// demand-driven unroller a cone-of-influence reduction for free: logic whose
// output is forced by constants never allocates variables or clauses.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sat/clause_sink.h"
#include "util/bitvec.h"

namespace upec::encode {

using sat::Lit;
using Bits = std::vector<Lit>;

class CnfBuilder {
public:
  // Emits into any ClauseSink: a live Solver or a recording CnfStore. The
  // builder never solves — solving is a backend concern (sat/backend.h).
  explicit CnfBuilder(sat::ClauseSink& sink);

  sat::ClauseSink& sink() { return sink_; }

  Lit lit_true() const { return true_; }
  Lit lit_false() const { return ~true_; }
  Lit constant(bool b) const { return b ? true_ : ~true_; }

  Lit fresh();
  Bits fresh_vec(unsigned width);
  Bits constant_vec(const BitVec& value);

  bool is_true(Lit l) const { return l == true_; }
  bool is_false(Lit l) const { return l == ~true_; }
  bool is_const(Lit l) const { return l.var() == true_.var(); }

  // --- single-bit gates (with constant folding) -------------------------------
  Lit and2(Lit a, Lit b);
  Lit or2(Lit a, Lit b) { return ~and2(~a, ~b); }
  Lit xor2(Lit a, Lit b);
  Lit xnor2(Lit a, Lit b) { return ~xor2(a, b); }
  Lit mux(Lit sel, Lit t, Lit f);
  Lit and_all(const Bits& xs);
  Lit or_all(const Bits& xs);

  // --- word-level operators ----------------------------------------------------
  Bits v_not(const Bits& a);
  Bits v_and(const Bits& a, const Bits& b);
  Bits v_or(const Bits& a, const Bits& b);
  Bits v_xor(const Bits& a, const Bits& b);
  Bits v_mux(Lit sel, const Bits& t, const Bits& f);
  Bits v_add(const Bits& a, const Bits& b);
  Bits v_sub(const Bits& a, const Bits& b);
  Lit v_eq(const Bits& a, const Bits& b);
  Lit v_ult(const Bits& a, const Bits& b);
  Bits v_shl(const Bits& a, const Bits& amount);
  Bits v_lshr(const Bits& a, const Bits& amount);
  Bits v_slice(const Bits& a, unsigned lo, unsigned width);
  Bits v_concat(const Bits& hi, const Bits& lo);
  Bits v_zext(const Bits& a, unsigned width);
  Lit v_red_or(const Bits& a) { return or_all(a); }
  Lit v_red_and(const Bits& a) { return and_all(a); }

  // Clause sugar.
  void add_clause(const std::vector<Lit>& c) { sink_.add_clause(c); }
  void imply(Lit a, Lit b) { sink_.add_clause(~a, b); }
  void assert_equal(Lit a, Lit b);
  void assert_equal(const Bits& a, const Bits& b);
  // cond -> (a == b), bit-wise.
  void imply_equal(Lit cond, const Bits& a, const Bits& b);

  std::uint64_t num_aux_vars() const { return aux_vars_; }
  std::uint64_t num_gate_clauses() const { return gate_clauses_; }

private:
  void clause(Lit a, Lit b) {
    sink_.add_clause(a, b);
    ++gate_clauses_;
  }
  void clause(Lit a, Lit b, Lit c) {
    sink_.add_clause(a, b, c);
    ++gate_clauses_;
  }

  sat::ClauseSink& sink_;
  Lit true_;
  std::uint64_t aux_vars_ = 0;
  std::uint64_t gate_clauses_ = 0;
  // Structural hashing (hash-consing): identical AND/XOR gates share one
  // output literal. This is what makes the shared-prefix miter encoding
  // collapse logic cones that see identical inputs in both instances.
  std::unordered_map<std::uint64_t, Lit> and_cache_;
  std::unordered_map<std::uint64_t, Lit> xor_cache_;
};

} // namespace upec::encode
