#include "sat/solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <ostream>
#include <utility>

#include "util/rng.h"

namespace upec::sat {
namespace {

Lit pos(Var v) { return Lit(v, false); }
Lit neg(Var v) { return Lit(v, true); }

TEST(Sat, TrivialSat) {
  Solver s;
  const Var a = s.new_var();
  s.add_clause(pos(a));
  EXPECT_TRUE(s.solve());
  EXPECT_TRUE(s.model_value(a));
}

TEST(Sat, TrivialUnsat) {
  Solver s;
  const Var a = s.new_var();
  s.add_clause(pos(a));
  EXPECT_TRUE(s.okay());
  s.add_clause(neg(a));
  EXPECT_FALSE(s.solve());
}

TEST(Sat, EmptyFormulaIsSat) {
  Solver s;
  s.new_var();
  EXPECT_TRUE(s.solve());
}

TEST(Sat, UnitPropagationChain) {
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 20; ++i) v.push_back(s.new_var());
  s.add_clause(pos(v[0]));
  for (int i = 0; i + 1 < 20; ++i) s.add_clause(neg(v[i]), pos(v[i + 1]));
  ASSERT_TRUE(s.solve());
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(s.model_value(v[i])) << i;
}

TEST(Sat, TautologyAndDuplicatesIgnored) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var();
  EXPECT_TRUE(s.add_clause({pos(a), neg(a)})); // tautology: dropped
  EXPECT_TRUE(s.add_clause({pos(b), pos(b), pos(b)}));
  ASSERT_TRUE(s.solve());
  EXPECT_TRUE(s.model_value(b));
}

// Pigeonhole principle: n+1 pigeons into n holes is UNSAT (classic hard-ish
// instance that exercises conflict analysis and learning).
TEST(Sat, Pigeonhole4Into3) {
  Solver s;
  constexpr int P = 4, H = 3;
  Var x[P][H];
  for (auto& row : x) {
    for (auto& v : row) v = s.new_var();
  }
  for (int p = 0; p < P; ++p) {
    std::vector<Lit> c;
    for (int h = 0; h < H; ++h) c.push_back(pos(x[p][h]));
    s.add_clause(c);
  }
  for (int h = 0; h < H; ++h) {
    for (int p1 = 0; p1 < P; ++p1) {
      for (int p2 = p1 + 1; p2 < P; ++p2) s.add_clause(neg(x[p1][h]), neg(x[p2][h]));
    }
  }
  EXPECT_FALSE(s.solve());
}

TEST(Sat, Pigeonhole6Into5) {
  Solver s;
  constexpr int P = 6, H = 5;
  std::vector<std::vector<Var>> x(P, std::vector<Var>(H));
  for (auto& row : x) {
    for (auto& v : row) v = s.new_var();
  }
  for (int p = 0; p < P; ++p) {
    std::vector<Lit> c;
    for (int h = 0; h < H; ++h) c.push_back(pos(x[p][h]));
    s.add_clause(c);
  }
  for (int h = 0; h < H; ++h) {
    for (int p1 = 0; p1 < P; ++p1) {
      for (int p2 = p1 + 1; p2 < P; ++p2) s.add_clause(neg(x[p1][h]), neg(x[p2][h]));
    }
  }
  EXPECT_FALSE(s.solve());
  EXPECT_GT(s.stats().conflicts, 0u);
}

TEST(Sat, AssumptionsSelectBranch) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var();
  s.add_clause(pos(a), pos(b)); // a | b
  ASSERT_TRUE(s.solve({neg(a)}));
  EXPECT_FALSE(s.model_value(a));
  EXPECT_TRUE(s.model_value(b));
  ASSERT_TRUE(s.solve({neg(b)}));
  EXPECT_TRUE(s.model_value(a));
  // Incremental: same solver, contradictory assumptions.
  EXPECT_FALSE(s.solve({neg(a), neg(b)}));
  // The final conflict must mention only assumption literals.
  for (Lit l : s.conflict_assumptions()) {
    EXPECT_TRUE(l.var() == a || l.var() == b);
  }
  // Solver remains usable.
  EXPECT_TRUE(s.solve());
}

TEST(Sat, ConflictAssumptionsAreSubsetAndResolveUnsat) {
  // Core contract: conflict_assumptions() returns a sorted, deduplicated
  // subset of the passed assumption literals, and re-solving with only the
  // core assumed is still UNSAT.
  Solver s;
  const Var a = s.new_var(), b = s.new_var(), c = s.new_var(), d = s.new_var();
  s.add_clause(neg(a), pos(b));  // a -> b
  s.add_clause(neg(b), neg(c));  // b -> ~c
  (void)d;

  const std::vector<Lit> assumptions = {pos(a), pos(c), pos(d)};
  ASSERT_FALSE(s.solve(assumptions));
  const std::vector<Lit> core = s.conflict_assumptions();
  ASSERT_FALSE(core.empty());
  EXPECT_TRUE(std::is_sorted(core.begin(), core.end()));
  EXPECT_EQ(std::adjacent_find(core.begin(), core.end()), core.end());
  for (Lit l : core) {
    EXPECT_NE(std::find(assumptions.begin(), assumptions.end(), l), assumptions.end())
        << "core literal not among the assumptions";
  }
  // d is irrelevant to the conflict; the minimized core must not include it.
  EXPECT_EQ(std::find(core.begin(), core.end(), pos(d)), core.end());
  EXPECT_FALSE(s.solve(core));
  EXPECT_TRUE(s.solve());  // solver stays usable
}

TEST(Sat, ConflictAssumptionsTraceImpliedAssumptions) {
  // The conflicting assumption c is refuted through b, which is *implied* by
  // assumption a — the core must walk the reason chain back to a, reporting
  // exactly {a, c} (as assumption literals, not negations).
  Solver s;
  const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
  s.add_clause(neg(a), pos(b));  // a -> b
  s.add_clause(neg(b), neg(c));  // b -> ~c
  ASSERT_FALSE(s.solve({pos(a), pos(c)}));
  const std::vector<Lit> expected = {pos(a), pos(c)};
  EXPECT_EQ(s.conflict_assumptions(), expected);
}

TEST(Sat, ConflictAssumptionsDeduplicated) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var();
  s.add_clause(pos(a), pos(b));
  ASSERT_FALSE(s.solve({neg(a), neg(b), neg(a), neg(b), neg(a)}));
  const std::vector<Lit> core = s.conflict_assumptions();
  EXPECT_EQ(std::adjacent_find(core.begin(), core.end()), core.end());
  EXPECT_LE(core.size(), 2u);
  EXPECT_FALSE(s.solve(core));
}

TEST(Sat, ConflictAssumptionsEmptyOnFormulaUnsat) {
  // When the formula is UNSAT regardless of assumptions, the core is empty.
  Solver s;
  const Var a = s.new_var(), b = s.new_var();
  s.add_clause(pos(a));
  s.add_clause(neg(a));
  ASSERT_FALSE(s.solve({pos(b)}));
  EXPECT_TRUE(s.conflict_assumptions().empty());
}

TEST(Sat, AssumptionsDoNotPersist) {
  Solver s;
  const Var a = s.new_var();
  EXPECT_TRUE(s.solve({pos(a)}));
  EXPECT_TRUE(s.solve({neg(a)}));
  EXPECT_TRUE(s.solve());
}

TEST(Sat, ManyAssumptions) {
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 300; ++i) v.push_back(s.new_var());
  // Chain: v[i] -> v[i+1]
  for (int i = 0; i + 1 < 300; ++i) s.add_clause(neg(v[i]), pos(v[i + 1]));
  std::vector<Lit> assumps;
  for (int i = 0; i < 299; ++i) assumps.push_back(pos(v[i]));
  ASSERT_TRUE(s.solve(assumps));
  EXPECT_TRUE(s.model_value(v[299]));
  assumps.push_back(neg(v[299]));
  EXPECT_FALSE(s.solve(assumps));
}

TEST(Sat, ConflictBudgetThrows) {
  // A hard pigeonhole with a tiny budget must interrupt, not mis-answer.
  Solver s;
  constexpr int P = 9, H = 8;
  std::vector<std::vector<Var>> x(P, std::vector<Var>(H));
  for (auto& row : x) {
    for (auto& v : row) v = s.new_var();
  }
  for (int p = 0; p < P; ++p) {
    std::vector<Lit> c;
    for (int h = 0; h < H; ++h) c.push_back(pos(x[p][h]));
    s.add_clause(c);
  }
  for (int h = 0; h < H; ++h) {
    for (int p1 = 0; p1 < P; ++p1) {
      for (int p2 = p1 + 1; p2 < P; ++p2) s.add_clause(neg(x[p1][h]), neg(x[p2][h]));
    }
  }
  s.set_conflict_budget(10);
  EXPECT_THROW(s.solve(), SolverInterrupted);
}

// Randomized cross-check against brute force on small instances.
using IntClauses = std::vector<std::vector<int>>; // +v / -v encoding, 1-based

IntClauses random_clauses(Xoshiro256& rng, int vars, int min_len, int max_len, int num_clauses) {
  IntClauses clauses;
  for (int c = 0; c < num_clauses; ++c) {
    std::vector<int> cl;
    const int len =
        min_len + static_cast<int>(rng.below(static_cast<std::uint64_t>(max_len - min_len + 1)));
    for (int i = 0; i < len; ++i) {
      const int v = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(vars)));
      cl.push_back(rng.chance(0.5) ? v : -v);
    }
    clauses.push_back(cl);
  }
  return clauses;
}

bool brute_force_sat(const IntClauses& clauses, int vars) {
  for (unsigned m = 0; m < (1u << vars); ++m) {
    bool all = true;
    for (const auto& cl : clauses) {
      bool any = false;
      for (int lit : cl) {
        const bool val = (m >> (std::abs(lit) - 1)) & 1;
        if ((lit > 0) == val) {
          any = true;
          break;
        }
      }
      if (!any) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

class SatRandom : public ::testing::TestWithParam<int> {};

TEST_P(SatRandom, MatchesBruteForce) {
  Xoshiro256 rng(1000 + GetParam());
  constexpr int kVars = 10;
  const IntClauses clauses =
      random_clauses(rng, kVars, 1, 3, 3 + static_cast<int>(rng.below(50)));
  const bool brute_sat = brute_force_sat(clauses, kVars);

  Solver s;
  std::vector<Var> vars;
  for (int i = 0; i < kVars; ++i) vars.push_back(s.new_var());
  bool ok = true;
  for (const auto& cl : clauses) {
    std::vector<Lit> lits;
    for (int lit : cl) lits.push_back(Lit(vars[std::abs(lit) - 1], lit < 0));
    ok = s.add_clause(lits) && ok;
  }
  const bool solver_sat = ok && s.solve();
  EXPECT_EQ(solver_sat, brute_sat);

  if (solver_sat) {
    // The model must actually satisfy every clause.
    for (const auto& cl : clauses) {
      bool any = false;
      for (int lit : cl) {
        if (s.model_value(vars[std::abs(lit) - 1]) == (lit > 0)) any = true;
      }
      EXPECT_TRUE(any);
    }
  }
}

// The same cross-check with the core behind a deep assumption stack: the
// core is guarded by assumption g, followed by more than kChronoThreshold
// unrelated assumptions, so learnt clauses whose only other literal is ¬g
// backtrack chronologically and the trail leaves level order. The cores are
// random 3-SAT at clause/variable ratio 4.5 to 5.5 over 10 to 16 variables:
// about half are satisfiable, and most learn such clauses.
struct PaddedCore {
  IntClauses clauses;
  bool brute_sat = false;
  Var g = kUndefVar;
  std::vector<Var> vars;
  std::vector<Lit> assumptions;

  PaddedCore(Solver& s, int seed) {
    Xoshiro256 rng(5000 + seed);
    const int core_vars = 10 + static_cast<int>(rng.below(7));
    clauses = random_clauses(rng, core_vars, 3, 3,
                             core_vars * 9 / 2 + static_cast<int>(rng.below(core_vars)));
    brute_sat = brute_force_sat(clauses, core_vars);
    g = s.new_var();
    for (int i = 0; i < core_vars; ++i) vars.push_back(s.new_var());
    assumptions = {pos(g)};
    for (int i = 0; i < Solver::kChronoThreshold + 50; ++i) {
      assumptions.push_back(Lit(s.new_var(), rng.chance(0.5)));
    }
  }

  // Adds every core clause, each extended by ¬g.
  bool add_to(Solver& s) const {
    bool ok = true;
    for (const auto& cl : clauses) {
      std::vector<Lit> lits = {neg(g)};
      for (int lit : cl) lits.push_back(Lit(vars[std::abs(lit) - 1], lit < 0));
      ok = s.add_clause(lits) && ok;
    }
    return ok;
  }

  // Solves under the assumptions and checks the answer: the brute-force
  // verdict, a model that satisfies every clause and assumption, or the core
  // {g}, which refutes on its own.
  void expect_answer(Solver& s) const {
    EXPECT_EQ(s.solve(assumptions), brute_sat);
    if (brute_sat) {
      EXPECT_EQ(s.validate_model(), 0u);
      for (Lit a : assumptions) EXPECT_TRUE(s.model_value(a));
    } else {
      const std::vector<Lit> core = s.conflict_assumptions();
      const std::vector<Lit> expected = {pos(g)};
      EXPECT_EQ(core, expected);
      EXPECT_FALSE(s.solve(core));
    }
    EXPECT_TRUE(s.okay());
  }
};

TEST_P(SatRandom, PaddedCoreMatchesBruteForce) {
  Solver s;
  const PaddedCore core(s, GetParam());
  ASSERT_TRUE(core.add_to(s));
  core.expect_answer(s);
  ASSERT_TRUE(s.solve()); // ¬g satisfies every core clause
  EXPECT_EQ(s.validate_model(), 0u);
}

// The variables of a pigeonhole P into P-1: x[p][h] puts pigeon p in hole h.
std::vector<std::vector<Var>> pigeonhole_vars(Solver& s, int pigeons) {
  std::vector<std::vector<Var>> x(static_cast<std::size_t>(pigeons));
  for (auto& row : x) {
    for (int h = 0; h + 1 < pigeons; ++h) row.push_back(s.new_var());
  }
  return x;
}

// Pigeonhole P into P-1 over `x`, optionally guarded: every clause gets
// ¬guard so the contradiction only fires under the assumption `guard` and
// the solver stays usable (ok) after the UNSAT answer.
void add_pigeonhole_clauses(Solver& s, const std::vector<std::vector<Var>>& x,
                            std::optional<Lit> guard = std::nullopt) {
  const int pigeons = static_cast<int>(x.size());
  const int holes = pigeons - 1;
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> c;
    if (guard) c.push_back(~*guard);
    for (int h = 0; h < holes; ++h) c.push_back(pos(x[p][h]));
    s.add_clause(c);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        std::vector<Lit> c;
        if (guard) c.push_back(~*guard);
        c.push_back(neg(x[p1][h]));
        c.push_back(neg(x[p2][h]));
        s.add_clause(c);
      }
    }
  }
}

void add_pigeonhole(Solver& s, int pigeons, std::optional<Lit> guard = std::nullopt) {
  add_pigeonhole_clauses(s, pigeonhole_vars(s, pigeons), guard);
}

// A guarded pigeonhole behind a deep assumption stack: {g} followed by
// `padding` unrelated assumptions. Every core clause carries ¬g, whose level
// is 1, so each learnt clause (¬g ∨ l) asserts far below the conflict and
// backtracks chronologically once padding exceeds kChronoThreshold.
std::vector<Lit> add_padded_pigeonhole(Solver& s, int pigeons, int padding) {
  const Var g = s.new_var();
  std::vector<Lit> assumptions = {pos(g)};
  for (int i = 0; i < padding; ++i) assumptions.push_back(pos(s.new_var()));
  add_pigeonhole(s, pigeons, pos(g));
  return assumptions;
}

// Checks an UNSAT answer under `assumptions` and the solver's state after
// it: the core is a subset of the assumptions that is UNSAT on its own, and
// dropping the assumptions leaves a satisfiable formula with a valid model.
void expect_padded_unsat(Solver& s, const std::vector<Lit>& assumptions) {
  ASSERT_FALSE(s.solve(assumptions));
  EXPECT_TRUE(s.okay());
  const std::vector<Lit> core = s.conflict_assumptions();
  ASSERT_FALSE(core.empty());
  for (Lit l : core) {
    EXPECT_NE(std::find(assumptions.begin(), assumptions.end(), l), assumptions.end())
        << "core literal not among the assumptions";
  }
  EXPECT_FALSE(s.solve(core));
  ASSERT_TRUE(s.solve());
  EXPECT_EQ(s.validate_model(), 0u);
}

// The padded corpus with the garbage collector under load. Each round adds
// a pigeonhole PHP(7,6) behind a fresh guard h and refutes it behind the
// padding: hundreds of conflicts, so under a learnt-DB cap of 20 reduce_db
// and the arena compaction run many times mid-search. The core's
// brute-force answer is checked after each refutation. Round 2 starts with
// drop_problem_clauses(), itself a compaction, and adds the formula again:
// the core's records then sit above learnt records that the next pigeonhole
// search deletes, so the collector slides them down while they are in use.
TEST_P(SatRandom, GarbageCollectionUnderLoad) {
  Solver s;
  s.set_max_learnts(20);
  const PaddedCore core(s, GetParam());
  for (int round = 0; round < 2; ++round) {
    if (round > 0) {
      s.drop_problem_clauses();
      EXPECT_EQ(s.arena_garbage(), 0u);
      EXPECT_EQ(s.allocated_clauses(), s.num_learnts());
    }
    ASSERT_TRUE(core.add_to(s));
    const Var h = s.new_var();
    add_pigeonhole(s, 7, pos(h));
    std::vector<Lit> assumptions = core.assumptions;
    assumptions[0] = pos(h);  // the padding, behind h instead of g
    const std::uint64_t deleted_before = s.stats().deleted_clauses;
    expect_padded_unsat(s, assumptions);
    EXPECT_GT(s.stats().deleted_clauses, deleted_before);
    EXPECT_LE(s.arena_garbage() * 4, s.arena_size());
    core.expect_answer(s);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SatRandom, ::testing::Range(0, 40));

TEST(Sat, ChronologicalBacktrackingKeepsVerdictAndCore) {
  Solver s;
  const std::vector<Lit> assumptions =
      add_padded_pigeonhole(s, 7, Solver::kChronoThreshold + 50);
  expect_padded_unsat(s, assumptions);
  EXPECT_GT(s.stats().chrono_backtracks, 0u);
  EXPECT_LE(s.stats().chrono_backtracks, s.stats().conflicts);
}

TEST(Sat, ChronologicalBacktrackingNeedsALongJump) {
  // Below the threshold the same instance never backtracks chronologically.
  Solver s;
  const std::vector<Lit> assumptions = add_padded_pigeonhole(s, 7, 20);
  expect_padded_unsat(s, assumptions);
  EXPECT_EQ(s.stats().chrono_backtracks, 0u);
}

TEST(Sat, ChronologicalBacktrackingFindsValidModels) {
  // Satisfiable twin: the guard is a free variable instead of an
  // assumption, created last so it is the first decision after the padding
  // (focused mode decides the newest variable first). Refuting the
  // pigeonhole under it learns the unit ¬g, which lands at the root from
  // more than kChronoThreshold levels up — a root fact in the middle of the
  // trail.
  Solver s;
  std::vector<Lit> assumptions;
  for (int i = 0; i < Solver::kChronoThreshold + 50; ++i) assumptions.push_back(pos(s.new_var()));
  const std::vector<std::vector<Var>> x = pigeonhole_vars(s, 6);
  const Var g = s.new_var();
  add_pigeonhole_clauses(s, x, pos(g));
  ASSERT_TRUE(s.solve(assumptions));
  EXPECT_EQ(s.validate_model(), 0u);
  EXPECT_FALSE(s.model_value(g));
  for (Lit a : assumptions) EXPECT_TRUE(s.model_value(a));
  EXPECT_GT(s.stats().chrono_backtracks, 0u);
  // The learnt unit survives as a root fact.
  EXPECT_FALSE(s.solve({pos(g)}));
  EXPECT_TRUE(s.conflict_assumptions() == std::vector<Lit>{pos(g)});
}

TEST(Sat, DistinctLevelCountBitmapSplit) {
  EXPECT_EQ(Solver::distinct_level_count({}), 0u);
  EXPECT_EQ(Solver::distinct_level_count({0}), 1u);
  EXPECT_EQ(Solver::distinct_level_count({5, 5, 5}), 1u);
  EXPECT_EQ(Solver::distinct_level_count({0, 63, 64, 127}), 4u);
  // The historical aliasing bug: selecting the high bitmap word with
  // (lv & 64) instead of (lv >= 64) filed levels 128..191 under the low word
  // again, so level 128 shared level 0's bit and 192 shared 64's — each of
  // these pairs collapsed to a count of 1.
  EXPECT_EQ(Solver::distinct_level_count({0, 128}), 2u);
  EXPECT_EQ(Solver::distinct_level_count({64, 192}), 2u);
  EXPECT_EQ(Solver::distinct_level_count({1, 129, 129}), 2u);
}

TEST(Sat, DistinctLevelCountDeepLevelsExact) {
  std::vector<int> levels;
  for (int lv = 0; lv < 200; ++lv) levels.push_back(lv);
  EXPECT_EQ(Solver::distinct_level_count(levels), 200u);
  for (int lv = 199; lv >= 0; --lv) levels.push_back(lv); // duplicates, reversed
  EXPECT_EQ(Solver::distinct_level_count(levels), 200u);
}

TEST(Sat, LearntLbdCountsDeepDecisionStack) {
  // End-to-end regression for the same aliasing bug: force a conflict whose
  // learnt clause spans ~200 distinct decision levels. Assumptions are placed
  // one per pseudo-decision level, so asserting x0..x199 and the clause pair
  //   (¬x0 ∨ … ∨ ¬x199 ∨ y) and (¬x0 ∨ … ∨ ¬x199 ∨ ¬y)
  // yields a first-UIP clause over all 200 assumption levels (assumption
  // literals have no reason, so minimization cannot shrink it). The capped
  // bitmap computed an LBD of at most 128 here.
  Solver s;
  constexpr int N = 200;
  std::vector<Var> x;
  for (int i = 0; i < N; ++i) x.push_back(s.new_var());
  const Var y = s.new_var();
  std::vector<Lit> c1, c2;
  for (Var v : x) c1.push_back(neg(v));
  c2 = c1;
  c1.push_back(pos(y));
  c2.push_back(neg(y));
  s.add_clause(c1);
  s.add_clause(c2);

  unsigned max_lbd = 0;
  s.set_export_hook(
      [&](const std::vector<Lit>&, unsigned lbd) {
        if (lbd > max_lbd) max_lbd = lbd;
      },
      /*lbd_cap=*/1u << 20, /*size_cap=*/1u << 20);

  std::vector<Lit> assumptions;
  for (Var v : x) assumptions.push_back(pos(v));
  EXPECT_FALSE(s.solve(assumptions));
  EXPECT_GE(max_lbd, 150u);
}

TEST(Sat, ExportHookRespectsCaps) {
  Solver s;
  add_pigeonhole(s, 6);
  std::uint64_t exported = 0;
  s.set_export_hook(
      [&](const std::vector<Lit>& lits, unsigned lbd) {
        ++exported;
        EXPECT_LE(lbd, 3u);
        EXPECT_LE(lits.size(), 4u);
      },
      /*lbd_cap=*/3, /*size_cap=*/4);
  EXPECT_FALSE(s.solve());
  EXPECT_EQ(s.stats().exported_clauses, exported);
  EXPECT_LE(exported, s.stats().learned_clauses);
}

TEST(Sat, ImportedUnitForcesUnsat) {
  Solver s;
  const Var a = s.new_var();
  s.add_clause(pos(a));
  bool fed = false;
  s.set_import_hook([&](std::vector<SharedClause>& out) {
    if (!fed) {
      out.push_back(SharedClause{{neg(a)}, 1});
      fed = true;
    }
  });
  EXPECT_FALSE(s.solve());
  EXPECT_EQ(s.stats().imported_clauses, 1u);
}

TEST(Sat, ImportedClauseConstrainsModel) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var();
  s.add_clause(pos(a), pos(b));
  bool fed = false;
  s.set_import_hook([&](std::vector<SharedClause>& out) {
    if (!fed) {
      out.push_back(SharedClause{{neg(a)}, 1});
      fed = true;
    }
  });
  ASSERT_TRUE(s.solve());
  EXPECT_FALSE(s.model_value(a));
  EXPECT_TRUE(s.model_value(b));
  EXPECT_EQ(s.validate_model(), 0u);
}

TEST(Sat, ImportSimplifiesAgainstRootFacts) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
  s.add_clause(pos(a)); // root fact
  bool fed = false;
  s.set_import_hook([&](std::vector<SharedClause>& out) {
    if (!fed) {
      out.push_back(SharedClause{{neg(a), pos(b)}, 2}); // ¬a false at root → unit b
      out.push_back(SharedClause{{pos(a), pos(c)}, 2}); // satisfied at root → dropped
      out.push_back(SharedClause{{Lit(Var(100), false)}, 1}); // out of range → dropped
      fed = true;
    }
  });
  ASSERT_TRUE(s.solve());
  EXPECT_TRUE(s.model_value(b));
  // Only the clause that actually entered the database is counted.
  EXPECT_EQ(s.stats().imported_clauses, 1u);
}

TEST(Sat, ReduceDbReclaimsArena) {
  // A small learnt-DB cap on a conflict-heavy instance forces repeated
  // reductions; deleted clauses must hand their arena storage back instead of
  // leaking it for the lifetime of the solver.
  Solver s;
  add_pigeonhole(s, 7);
  s.set_max_learnts(50);
  EXPECT_FALSE(s.solve());
  ASSERT_GT(s.stats().deleted_clauses, 0u);
  // Garbage collection keeps dead words (literals, headers and learnt
  // trailers) bounded by a quarter of the arena.
  EXPECT_LE(s.arena_garbage() * 4, s.arena_size());
  // And actually compacts: live allocation sits well below total-ever.
  EXPECT_LT(s.allocated_clauses(),
            static_cast<std::size_t>(s.stats().learned_clauses) / 2);
}

TEST(Sat, ArenaAccounting) {
  // A stored problem clause costs its literals plus one header word. Units,
  // tautologies and duplicate literals are normalized away before storage.
  Solver s;
  add_pigeonhole(s, 7);  // 7 clauses of 6 literals, 6 * C(7,2) binary ones
  const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
  s.add_clause({pos(a), pos(a), neg(b)});  // stored as (a ∨ ¬b)
  s.add_clause(pos(b), neg(b));            // tautology: not stored
  s.add_clause(pos(c));                    // unit: a root fact, not stored
  const std::size_t problem_clauses = 7 + 6 * 21 + 1;
  const std::size_t problem_lits = 7 * 6 + 6 * 21 * 2 + 2;
  EXPECT_EQ(s.allocated_clauses(), problem_clauses);
  EXPECT_EQ(s.arena_size(), problem_clauses + problem_lits);
  EXPECT_EQ(s.arena_garbage(), 0u);

  // A learnt clause costs its literals plus three words (header, LBD,
  // activity). Far below the reduction threshold, every learnt clause of two
  // or more literals is still stored after the solve.
  std::size_t learnt_words = 0;
  s.set_export_hook(
      [&](const std::vector<Lit>& lits, unsigned) {
        if (lits.size() >= 2) learnt_words += lits.size() + 3;
      },
      /*lbd_cap=*/~0u, /*size_cap=*/~0u);
  EXPECT_FALSE(s.solve());
  ASSERT_LT(s.stats().learned_clauses, 8192u);
  EXPECT_GT(learnt_words, 0u);
  EXPECT_EQ(s.arena_size(), problem_clauses + problem_lits + learnt_words);
  EXPECT_GE(s.arena_bytes(), s.arena_size() * sizeof(Lit));
}

// Differential check of binary reasons against brute force: random 2-/3-SAT
// mixes over 8 to 14 variables, about 45% binary and below the threshold,
// each solved under eight assumption sets. Every answer must match the
// oracle; a model must satisfy the formula and the assumptions; a core must
// be a subset of the assumptions that a fresh solver, given the formula and
// the core alone, refutes. Each set is checked three times: as loaded,
// after a forced garbage collection, and after drop_problem_clauses switches
// to a new generation of the same formula, which keeps the learnt binaries.
// A learnt cap of 4 runs reduce_db and the collector mid-search as well.
TEST(Sat, BinaryReasonsMatchBruteForce) {
  std::uint64_t sat_answers = 0, unsat_answers = 0, carried_binaries = 0;
  for (int seed = 0; seed < 150; ++seed) {
    Xoshiro256 rng(7000 + static_cast<std::uint64_t>(seed));
    const int n = 8 + static_cast<int>(rng.below(7));
    IntClauses clauses =
        random_clauses(rng, n, 2, 2, n * 7 / 10 + static_cast<int>(rng.below(n * 3 / 10)));
    for (auto& cl : random_clauses(rng, n, 3, 3, n * 8 / 10 + static_cast<int>(rng.below(n / 2)))) {
      clauses.push_back(cl);
    }
    const auto to_lit = [](int lit) { return Lit(std::abs(lit) - 1, lit < 0); };
    const auto add_formula = [&](Solver& solver) {
      while (solver.num_vars() < n) solver.new_var();
      for (const auto& cl : clauses) {
        std::vector<Lit> lits;
        for (int lit : cl) lits.push_back(to_lit(lit));
        solver.add_clause(lits);
      }
    };
    // Each assumption set with its brute-force answer: the formula plus the
    // assumptions as unit clauses.
    std::vector<std::pair<std::vector<Lit>, bool>> cases;
    for (int k = 0; k < 8; ++k) {
      IntClauses with_units = clauses;
      std::vector<Lit> assumptions;
      for (int i = 0, size = 1 + static_cast<int>(rng.below(4)); i < size; ++i) {
        const int v = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
        const int lit = rng.chance(0.5) ? -v : v;
        with_units.push_back({lit});
        assumptions.push_back(to_lit(lit));
      }
      cases.emplace_back(assumptions, brute_force_sat(with_units, n));
    }

    Solver s;
    s.set_max_learnts(4);
    int phase = 0;
    s.set_export_hook(
        [&](const std::vector<Lit>& lits, unsigned) {
          carried_binaries += phase < 2 && lits.size() == 2;
        },
        /*lbd_cap=*/~0u, /*size_cap=*/~0u);
    add_formula(s);
    for (; phase < 3; ++phase) {
      if (phase == 1) {
        s.garbage_collect();
        EXPECT_EQ(s.arena_garbage(), 0u);
      } else if (phase == 2) {
        s.drop_problem_clauses();
        add_formula(s);
      }
      for (const auto& [assumptions, expected] : cases) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " phase " << phase);
        ASSERT_EQ(s.solve(assumptions), expected);
        if (expected) {
          ++sat_answers;
          EXPECT_EQ(s.validate_model(), 0u);
          for (const Lit a : assumptions) EXPECT_TRUE(s.model_value(a));
          continue;
        }
        ++unsat_answers;
        const std::vector<Lit> core = s.conflict_assumptions();
        for (const Lit l : core) {
          EXPECT_NE(std::find(assumptions.begin(), assumptions.end(), l), assumptions.end())
              << "core literal not among the assumptions";
        }
        Solver fresh;
        add_formula(fresh);
        for (const Lit l : core) fresh.add_clause(l);
        EXPECT_FALSE(fresh.solve());
      }
    }
  }
  // The corpus exercises both answers, and the generation switches carry
  // learnt binaries (a binary learnt has LBD <= 2, so reduce_db keeps it).
  EXPECT_GT(sat_answers, 1000u);
  EXPECT_GT(unsat_answers, 1000u);
  EXPECT_GT(carried_binaries, 20u);
}

TEST(Sat, ArenaBoundIsCheckedAtTheLimit) {
  // A clause needs its literals plus up to three words (header, LBD,
  // activity), and every header offset must stay below the binary tag bit.
  constexpr std::size_t kMax = Solver::kMaxArenaWords;
  static_assert(kMax == std::size_t{1} << 31);
  EXPECT_TRUE(Solver::clause_fits(0, 2));
  EXPECT_TRUE(Solver::clause_fits(kMax - 5, 2));
  EXPECT_FALSE(Solver::clause_fits(kMax - 4, 2));
  EXPECT_TRUE(Solver::clause_fits(kMax - 1003, 1000));
  EXPECT_FALSE(Solver::clause_fits(kMax - 1002, 1000));
  EXPECT_FALSE(Solver::clause_fits(kMax, 2));
  EXPECT_FALSE(Solver::clause_fits(kMax + 1, 2));
  // No wrap-around on huge inputs.
  EXPECT_FALSE(Solver::clause_fits(std::numeric_limits<std::size_t>::max(), 2));
  EXPECT_FALSE(Solver::clause_fits(0, std::numeric_limits<std::size_t>::max()));
  // The header holds the size in 30 bits.
  EXPECT_TRUE(Solver::clause_fits(0, (std::size_t{1} << 30) - 1));
  EXPECT_FALSE(Solver::clause_fits(0, std::size_t{1} << 30));
}

TEST(Sat, GarbageCollectionKeepsSolverUsable) {
  // Same workload but guarded by an assumption, so the solver survives the
  // UNSAT answer: after reductions + compaction all watcher and reason
  // references must still be valid for further solves in both directions.
  Solver s;
  const Var g = s.new_var();
  add_pigeonhole(s, 7, pos(g));
  s.set_max_learnts(50);
  EXPECT_FALSE(s.solve({pos(g)}));
  EXPECT_GT(s.stats().deleted_clauses, 0u);
  EXPECT_TRUE(s.okay());
  ASSERT_TRUE(s.solve()); // g is free: ¬g satisfies every guarded clause
  EXPECT_EQ(s.validate_model(), 0u);
  EXPECT_FALSE(s.solve({pos(g)})); // still UNSAT through remapped clauses

  // The same under a deep assumption stack: reductions and compaction now
  // remap reasons on an out-of-order trail, mid-search.
  Solver deep;
  const std::vector<Lit> assumptions =
      add_padded_pigeonhole(deep, 7, Solver::kChronoThreshold + 50);
  deep.set_max_learnts(50);
  expect_padded_unsat(deep, assumptions);
  EXPECT_GT(deep.stats().deleted_clauses, 0u);
  EXPECT_GT(deep.stats().chrono_backtracks, 0u);
  EXPECT_FALSE(deep.solve(assumptions)); // still UNSAT through remapped clauses
}

// The search counters that any change to clause storage, garbage collection
// or reduce_db bookkeeping must leave exactly as they are. A layout change
// that moves one of them changed which literal is watched, which clause is
// deleted, or which reason is followed — not just where bytes live.
struct SearchCounters {
  std::uint64_t conflicts, propagations, decisions, learned, deleted, chrono;
  friend bool operator==(const SearchCounters&, const SearchCounters&) = default;
  friend std::ostream& operator<<(std::ostream& os, const SearchCounters& c) {
    return os << "{" << c.conflicts << ", " << c.propagations << ", " << c.decisions << ", "
              << c.learned << ", " << c.deleted << ", " << c.chrono << "}";
  }
};

SearchCounters counters_of(const SolverStats& st) {
  return {st.conflicts,       st.propagations,    st.decisions,
          st.learned_clauses, st.deleted_clauses, st.chrono_backtracks};
}

// Focused mode decides the newest variable of the queue first, and conflict
// analysis moves the variables it bumps to the newest end. Each free y_i
// follows from a either way, (¬a ∨ y_i) ∧ (a ∨ y_i), so deciding a first
// costs one decision where deciding the y_i first costs one each; the
// clauses (¬g ∨ ¬a ∨ c) ∧ (¬g ∨ ¬a ∨ ¬c) refute a under g.
TEST(Sat, FocusedModeDecidesTheLatestBumpFirst) {
  constexpr std::uint64_t kFree = 8;
  Solver s;
  const Var g = s.new_var();
  const Var c = s.new_var();
  const Var a = s.new_var();
  std::vector<Var> y;
  for (std::uint64_t i = 0; i < kFree; ++i) y.push_back(s.new_var());
  for (const Var v : y) {
    ASSERT_TRUE(s.add_clause(neg(a), pos(v)));
    ASSERT_TRUE(s.add_clause(pos(a), pos(v)));
  }
  ASSERT_TRUE(s.add_clause({neg(g), neg(a), pos(c)}));
  ASSERT_TRUE(s.add_clause({neg(g), neg(a), neg(c)}));

  // Under g the newest variables go first: y_8 .. y_1, then a, which
  // conflicts and bumps g, c and a, in that order. Then c, and the final
  // pick that finds every variable assigned.
  ASSERT_TRUE(s.solve({pos(g)}));
  EXPECT_EQ(s.validate_model(), 0u);
  EXPECT_EQ(s.stats().conflicts, 1u);
  EXPECT_EQ(s.stats().decisions, kFree + 3);

  // a is now the most recently bumped variable: it goes first (on its saved
  // phase, false) and implies every y_i; then c, g and the final pick.
  const std::uint64_t before = s.stats().decisions;
  ASSERT_TRUE(s.solve());
  EXPECT_EQ(s.validate_model(), 0u);
  EXPECT_EQ(s.stats().decisions - before, 4u);
  EXPECT_FALSE(s.model_value(a));
  for (const Var v : y) EXPECT_TRUE(s.model_value(v));
}

// A call that passes kStableAfterConflicts finishes on the VSIDS heap, and
// the next call starts focused again.
TEST(Sat, StableModeLastsOneCall) {
  Solver s;
  const Var g = s.new_var();
  const std::vector<std::vector<Var>> x = pigeonhole_vars(s, 8);
  add_pigeonhole_clauses(s, x, pos(g));
  EXPECT_FALSE(s.solve({pos(g)}));
  EXPECT_GT(s.stats().conflicts, Solver::kStableAfterConflicts);
  EXPECT_TRUE(s.conflict_assumptions() == std::vector<Lit>{pos(g)});

  // A fresh variable b that either value of x[0][0] refutes. Focused mode
  // decides b, the newest variable, first: one conflict, which learns ¬b.
  // The heap would decide the bumped x[0][0] before b, and imply ¬b with
  // no conflict.
  const Var b = s.new_var();
  ASSERT_TRUE(s.add_clause(pos(x[0][0]), neg(b)));
  ASSERT_TRUE(s.add_clause(neg(x[0][0]), neg(b)));
  const std::uint64_t conflicts = s.stats().conflicts;
  ASSERT_TRUE(s.solve());
  EXPECT_EQ(s.validate_model(), 0u);
  EXPECT_FALSE(s.model_value(b));
  EXPECT_EQ(s.stats().conflicts - conflicts, 1u);

  // A second long call switches again, from the heap the first one left.
  const Var h = s.new_var();
  add_pigeonhole(s, 8, pos(h));
  const std::uint64_t before = s.stats().conflicts;
  EXPECT_FALSE(s.solve({pos(h)}));
  EXPECT_GT(s.stats().conflicts - before, Solver::kStableAfterConflicts);
  ASSERT_TRUE(s.solve());
  EXPECT_EQ(s.validate_model(), 0u);
}

// renumber_queue() compacts the queue by itself once holes make it 2n+64
// slots long. Compacting before every call must leave the search exactly as
// it was: the twins below agree on every answer, model and counter.
TEST(Sat, RenumberingStampsKeepsTheQueueOrder) {
  Xoshiro256 rng(2024);
  constexpr int kVars = 120;
  Solver plain, renumbered;
  for (Solver* s : {&plain, &renumbered}) {
    s->set_max_learnts(50);
    for (int i = 0; i < kVars; ++i) s->new_var();
  }
  for (const auto& cl : random_clauses(rng, kVars, 3, 3, kVars * 40 / 10)) {
    std::vector<Lit> lits;
    for (int lit : cl) lits.push_back(Lit(std::abs(lit) - 1, lit < 0));
    ASSERT_TRUE(plain.add_clause(lits));
    ASSERT_TRUE(renumbered.add_clause(lits));
  }
  int sat_answers = 0;
  for (int round = 0; round < 30; ++round) {
    std::vector<Lit> assumptions;
    for (int i = 0; i < 4; ++i) {
      assumptions.push_back(Lit(static_cast<Var>(rng.below(kVars)), rng.chance(0.5)));
    }
    renumbered.renumber_queue();
    const bool sat = plain.solve(assumptions);
    ASSERT_EQ(renumbered.solve(assumptions), sat) << "round " << round;
    if (sat) {
      ++sat_answers;
      for (Var v = 0; v < kVars; ++v) EXPECT_EQ(renumbered.model_value(v), plain.model_value(v));
    } else {
      EXPECT_EQ(renumbered.conflict_assumptions(), plain.conflict_assumptions());
    }
    EXPECT_EQ(counters_of(renumbered.stats()), counters_of(plain.stats())) << "round " << round;
  }
  EXPECT_GT(sat_answers, 0);
  EXPECT_LT(sat_answers, 30);
  EXPECT_GT(plain.stats().conflicts, 1000u);
}

TEST(Sat, SearchFingerprint) {
  {
    Solver s;
    add_pigeonhole(s, 8);
    EXPECT_FALSE(s.solve());
    EXPECT_EQ(counters_of(s.stats()), (SearchCounters{4846, 61446, 5873, 4842, 0, 0}));
  }
  {
    Solver s;
    const std::vector<Lit> assumptions = add_padded_pigeonhole(s, 7, 150);
    EXPECT_FALSE(s.solve(assumptions));
    EXPECT_EQ(counters_of(s.stats()), (SearchCounters{1084, 13396, 1337, 1083, 0, 4}));
  }
  {
    // Random 3-SAT near the threshold, re-solved under a changing set of
    // assumptions with a tiny learnt-DB cap, so reduce_db and garbage
    // collection run many times in the middle of searches.
    Xoshiro256 rng(2024);
    constexpr int kVars = 200;
    Solver s;
    s.set_max_learnts(50);
    std::vector<Var> vars;
    for (int i = 0; i < kVars; ++i) vars.push_back(s.new_var());
    for (const auto& cl : random_clauses(rng, kVars, 3, 3, kVars * 42 / 10)) {
      std::vector<Lit> lits;
      for (int lit : cl) lits.push_back(Lit(vars[std::abs(lit) - 1], lit < 0));
      ASSERT_TRUE(s.add_clause(lits));
    }
    int sat_answers = 0;
    for (int round = 0; round < 20; ++round) {
      std::vector<Lit> assumptions;
      for (int i = 0; i < 6; ++i) {
        assumptions.push_back(Lit(vars[rng.below(kVars)], rng.chance(0.5)));
      }
      if (s.solve(assumptions)) {
        ++sat_answers;
        EXPECT_EQ(s.validate_model(), 0u);
      }
    }
    EXPECT_EQ(sat_answers, 3);
    EXPECT_EQ(counters_of(s.stats()), (SearchCounters{37087, 1383267, 45394, 37087, 32143, 0}));
  }
}

// FNV-1a over the eight bytes of `x`, for the answer digest below.
std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) h = (h ^ ((x >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
  return h;
}

// The same pin for binary clauses, whose implications propagate straight
// from the watcher and whose records are reordered only where they are
// read. Random 3-SAT near the threshold over 200 variables plus 60 random
// binary clauses; every variable x has a twin y tied to it by (¬x ∨ y) and
// (x ∨ ¬y), and each ternary literal names x or y at random, so 460 of the
// 1120 problem clauses are binary and most implications run through them.
// Each round assumes 4 random literals and then kChronoThreshold + 30
// padding literals: learnt clauses over the first four levels backtrack
// chronologically, and a learnt cap of 40 runs reduce_db and the collector
// while binary reasons sit on the trail. The digest covers every round's
// verdict and its model or core. The expected values were first computed
// with the eager solver, which reordered a binary record at each
// implication, and computed again when decisions became focused-then-stable.
TEST(Sat, BinaryHeavySearchFingerprint) {
  Xoshiro256 rng(2026);
  constexpr int kVars = 200;
  Solver s;
  s.set_max_learnts(40);
  std::vector<Var> vars, twins;
  for (int i = 0; i < kVars; ++i) vars.push_back(s.new_var());
  IntClauses clauses = random_clauses(rng, kVars, 2, 2, 60);
  for (auto& cl : random_clauses(rng, kVars, 3, 3, 660)) clauses.push_back(cl);
  for (int i = 0; i < kVars; ++i) {
    twins.push_back(s.new_var());
    ASSERT_TRUE(s.add_clause(neg(vars[i]), pos(twins[i])));
    ASSERT_TRUE(s.add_clause(pos(vars[i]), neg(twins[i])));
  }
  for (const auto& cl : clauses) {
    std::vector<Lit> lits;
    for (int lit : cl) {
      const auto i = static_cast<std::size_t>(std::abs(lit) - 1);
      lits.push_back(Lit(rng.chance(0.5) ? twins[i] : vars[i], lit < 0));
    }
    ASSERT_TRUE(s.add_clause(lits));
  }
  std::vector<Var> padding;
  for (int i = 0; i < Solver::kChronoThreshold + 30; ++i) padding.push_back(s.new_var());
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  int sat_answers = 0;
  for (int round = 0; round < 24; ++round) {
    std::vector<Lit> assumptions;
    for (int i = 0; i < 4; ++i) {
      assumptions.push_back(Lit(vars[rng.below(kVars)], rng.chance(0.5)));
    }
    for (const Var v : padding) assumptions.push_back(Lit(v, rng.chance(0.5)));
    const bool sat = s.solve(assumptions);
    digest = fnv_mix(digest, sat);
    if (sat) {
      ++sat_answers;
      EXPECT_EQ(s.validate_model(), 0u);
      for (Var v = 0; v < s.num_vars(); ++v) digest = fnv_mix(digest, s.model_value(v));
    } else {
      for (const Lit l : s.conflict_assumptions()) {
        digest = fnv_mix(digest, static_cast<std::uint64_t>(l.index()));
      }
    }
  }
  EXPECT_EQ(sat_answers, 14);
  EXPECT_EQ(counters_of(s.stats()), (SearchCounters{2993, 252875, 4282, 2993, 2578, 45}));
  EXPECT_EQ(digest, 0x424019bdeb3dadc2ULL);
}

// The same pin at width, for the focused mode's decision queue: 1,000
// variables of random 3-SAT below the threshold, re-solved under 40 sets of
// 30 random assumption literals. Every fourth round first adds a PHP(7,6)
// behind a fresh guard and assumes the guard too, so the queue grows between
// calls, 8 of those 10 rounds answer UNSAT only after more than
// kStableAfterConflicts conflicts (finishing on the heap, and the next call
// starting focused again), and the run ends with 1,430 variables. A learnt
// cap of 60 runs reduce_db and the collector in the middle of searches, and
// each conflict moves its bumped variables to the newest end of a queue far
// wider than one 64-bit word. The digest covers every round's verdict and
// its model or core. The expected values were computed with the linked-list
// queue, before the queue became a slot array with a free-slot bitset.
TEST(Sat, WideQueueSearchFingerprint) {
  Xoshiro256 rng(7);
  constexpr int kVars = 1000;
  Solver s;
  s.set_max_learnts(60);
  std::vector<Var> vars;
  for (int i = 0; i < kVars; ++i) vars.push_back(s.new_var());
  for (const auto& cl : random_clauses(rng, kVars, 3, 3, kVars * 32 / 10)) {
    std::vector<Lit> lits;
    for (int lit : cl) lits.push_back(Lit(vars[std::abs(lit) - 1], lit < 0));
    ASSERT_TRUE(s.add_clause(lits));
  }
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  int sat_answers = 0;
  for (int round = 0; round < 40; ++round) {
    std::vector<Lit> assumptions;
    if (round % 4 == 3) {
      const Var g = s.new_var();
      add_pigeonhole(s, 7, pos(g));
      assumptions.push_back(pos(g));
    }
    for (int i = 0; i < 30; ++i) {
      assumptions.push_back(Lit(vars[rng.below(kVars)], rng.chance(0.5)));
    }
    const bool sat = s.solve(assumptions);
    digest = fnv_mix(digest, sat);
    if (sat) {
      ++sat_answers;
      EXPECT_EQ(s.validate_model(), 0u);
      for (Var v = 0; v < s.num_vars(); ++v) digest = fnv_mix(digest, s.model_value(v));
    } else {
      for (const Lit l : s.conflict_assumptions()) {
        digest = fnv_mix(digest, static_cast<std::uint64_t>(l.index()));
      }
    }
  }
  EXPECT_EQ(s.num_vars(), 1430);
  EXPECT_EQ(sat_answers, 26);
  EXPECT_EQ(counters_of(s.stats()), (SearchCounters{14810, 858409, 34458, 14802, 13443, 0}));
  EXPECT_EQ(digest, 0xd901149a5381f29dULL);
}

} // namespace
} // namespace upec::sat
