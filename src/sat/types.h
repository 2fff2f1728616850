// Basic SAT types: variables, literals, ternary logic values.
//
// Follows the MiniSat conventions: a variable is a dense non-negative index,
// a literal packs (variable, sign) as var*2+sign so literals index arrays
// directly (watch lists, assignment saving).
#pragma once

#include <cstdint>
#include <vector>

namespace upec::sat {

using Var = std::int32_t;
constexpr Var kUndefVar = -1;

class Lit {
public:
  Lit() = default;
  Lit(Var v, bool negative) : x_(v + v + (negative ? 1 : 0)) {}

  static Lit from_index(std::int32_t idx) {
    Lit l;
    l.x_ = idx;
    return l;
  }
  static Lit undef() { return from_index(-2); }

  Var var() const { return x_ >> 1; }
  bool sign() const { return x_ & 1; } // true => negated literal
  std::int32_t index() const { return x_; }

  Lit operator~() const { return from_index(x_ ^ 1); }
  friend bool operator==(Lit a, Lit b) { return a.x_ == b.x_; }
  friend bool operator!=(Lit a, Lit b) { return a.x_ != b.x_; }
  friend bool operator<(Lit a, Lit b) { return a.x_ < b.x_; }

private:
  std::int32_t x_ = -2;
};

inline Lit mk_lit(Var v) { return Lit(v, false); }

// Ternary assignment value.
enum class LBool : std::uint8_t { False = 0, True = 1, Undef = 2 };

inline LBool lbool_not(LBool v) {
  if (v == LBool::Undef) return LBool::Undef;
  return v == LBool::True ? LBool::False : LBool::True;
}

using Clause = std::vector<Lit>;

} // namespace upec::sat
