// sat::Simplifier: SatELite-style preprocessing over CnfSnapshots.
//
// The contracts under test (sat/simplify.h):
//  * equisatisfiability — under assumptions over frozen variables, the
//    simplified formula answers exactly like the original;
//  * frozen variables are never eliminated (the soundness tripwire);
//  * reconstruct() turns any model of the simplified formula into a model of
//    the original one;
//  * each technique actually fires on its textbook case;
//  * simplification is idempotent (a fixed point re-simplifies to itself) and
//    the generation cache reuses identical requests;
//  * a backend switching generations keeps what it learned, soundly;
//  * end to end, preprocessing cuts the work of a secure Alg. 1 run.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "sat/backend.h"
#include "sat/metrics.h"
#include "sat/share.h"
#include "sat/simplify.h"
#include "sat/snapshot.h"
#include "sat/solver.h"
#include "upec/report.h"

namespace upec::sat {
namespace {

Lit pos(int v) { return Lit(v, false); }
Lit neg(int v) { return Lit(v, true); }

void fill(CnfStore& store, int nvars, const std::vector<Clause>& clauses) {
  for (int v = 0; v < nvars; ++v) store.new_var();
  for (const Clause& c : clauses) store.add_clause(c);
}

bool lit_true(const std::vector<bool>& model, Lit l) {
  return model[static_cast<std::size_t>(l.var())] != l.sign();
}

bool satisfies(const std::vector<bool>& model, const std::vector<Clause>& clauses) {
  for (const Clause& c : clauses) {
    bool sat = false;
    for (Lit l : c) {
      if (lit_true(model, l)) {
        sat = true;
        break;
      }
    }
    if (!sat) return false;
  }
  return true;
}

// Solves a snapshot from scratch; nullopt = UNSAT, otherwise a full model.
std::optional<std::vector<bool>> solve(const CnfSnapshot& snap,
                                       const std::vector<Lit>& assumptions = {}) {
  Solver solver;
  if (!snap.load_into(solver)) return std::nullopt;
  if (!solver.solve(assumptions)) return std::nullopt;
  std::vector<bool> model(static_cast<std::size_t>(snap.num_vars()));
  for (int v = 0; v < snap.num_vars(); ++v) {
    model[static_cast<std::size_t>(v)] = solver.model_value(pos(v));
  }
  return model;
}

TEST(Simplify, SubsumptionRemovesSupersetClause) {
  CnfStore store;
  fill(store, 3, {{pos(0), pos(1)}, {pos(0), pos(1), pos(2)}});
  SimplifyOptions opts;
  opts.bve = false;
  opts.probing = false;
  Simplifier simp(opts);
  simp.simplify(store.snapshot(), {});
  EXPECT_EQ(simp.stats().subsumed_clauses, 1u);
  EXPECT_EQ(simp.stats().output_clauses, 1u);
}

TEST(Simplify, SelfSubsumingResolutionStrengthens) {
  // C = (a | b), D = (a | ~b | c): the resolvent of C and D on b is (a | c),
  // which subsumes D — D must be strengthened to (a | c).
  CnfStore store;
  fill(store, 3, {{pos(0), pos(1)}, {pos(0), neg(1), pos(2)}});
  SimplifyOptions opts;
  opts.bve = false;
  opts.probing = false;
  Simplifier simp(opts);
  simp.simplify(store.snapshot(), {});
  EXPECT_EQ(simp.stats().strengthened_clauses, 1u);
  EXPECT_EQ(simp.stats().output_clauses, 2u);
  EXPECT_EQ(simp.stats().output_literals, 4u);  // (a b), (a c)
}

TEST(Simplify, FailedLiteralProbingFixesVariable) {
  // (~a | b), (~a | ~b): assuming a propagates b and ~b — a fails, ~a becomes
  // a root unit.
  CnfStore store;
  fill(store, 2, {{neg(0), pos(1)}, {neg(0), neg(1)}});
  SimplifyOptions opts;
  opts.subsumption = false;
  opts.bve = false;
  Simplifier simp(opts);
  const CnfSnapshot view = simp.simplify(store.snapshot(), {0, 1});
  EXPECT_GE(simp.stats().failed_literals, 1u);
  EXPECT_GE(simp.stats().fixed_vars, 1u);
  EXPECT_FALSE(solve(view, {pos(0)}).has_value());  // a now refuted outright
  EXPECT_TRUE(solve(view, {neg(0)}).has_value());
}

TEST(Simplify, BveEliminatesGateAndReconstructsModel) {
  // Tseitin AND gate x = a & b with a, b frozen: every resolvent on x is
  // tautological, so x is eliminated and the output formula is empty. A model
  // of the empty output must reconstruct to a model of the gate clauses.
  const std::vector<Clause> gate = {
      {neg(2), pos(0)}, {neg(2), pos(1)}, {pos(2), neg(0), neg(1)}};
  CnfStore store;
  fill(store, 3, gate);
  Simplifier simp;
  simp.simplify(store.snapshot(), {0, 1});
  EXPECT_EQ(simp.stats().eliminated_vars, 1u);
  EXPECT_EQ(simp.stats().frozen_eliminations, 0u);
  EXPECT_EQ(simp.stats().output_clauses, 0u);

  // Try every assignment of the frozen variables: reconstruction must repair
  // x to match a & b each time.
  for (bool a : {false, true}) {
    for (bool b : {false, true}) {
      std::vector<bool> model = {a, b, false};
      simp.reconstruct(model);
      EXPECT_TRUE(satisfies(model, gate)) << "a=" << a << " b=" << b;
      EXPECT_EQ(model[2], a && b);
    }
  }
}

TEST(Simplify, FrozenVariablesAreNeverEliminated) {
  const std::vector<Clause> gate = {
      {neg(2), pos(0)}, {neg(2), pos(1)}, {pos(2), neg(0), neg(1)}};
  CnfStore store;
  fill(store, 3, gate);
  Simplifier simp;
  simp.simplify(store.snapshot(), {0, 1, 2});
  EXPECT_EQ(simp.stats().eliminated_vars, 0u);
  EXPECT_EQ(simp.stats().frozen_eliminations, 0u);
  EXPECT_EQ(simp.stats().output_clauses, 3u);
}

TEST(Simplify, GenerationCacheReusesAndInvalidates) {
  CnfStore store;
  fill(store, 3, {{pos(0), pos(1)}, {pos(0), pos(1), pos(2)}});
  Simplifier simp;
  simp.simplify(store.snapshot(), {0});
  EXPECT_EQ(simp.stats().runs, 1u);
  // Same prefix, frozen subset of the cached set: reuse.
  simp.simplify(store.snapshot(), {});
  EXPECT_EQ(simp.stats().runs, 1u);
  EXPECT_EQ(simp.stats().reuses, 1u);
  // Larger frozen set: must re-run (variable 2 was eligible before).
  simp.simplify(store.snapshot(), {0, 1, 2});
  EXPECT_EQ(simp.stats().runs, 2u);
  // Store growth invalidates.
  store.add_clause({neg(2)});
  simp.simplify(store.snapshot(), {0, 1, 2});
  EXPECT_EQ(simp.stats().runs, 3u);
}

TEST(Simplify, RefutedFormulaYieldsEmptyClause) {
  CnfStore store;
  fill(store, 2, {{pos(0)}, {neg(0), pos(1)}, {neg(0), neg(1)}});
  Simplifier simp;
  const CnfSnapshot view = simp.simplify(store.snapshot(), {0, 1});
  EXPECT_TRUE(simp.output_unsat());
  EXPECT_FALSE(solve(view).has_value());
}

// Deterministic random CNF around the 3-SAT phase transition: hard enough
// that all three techniques fire, small enough to solve exhaustively. Without
// binaries the formulas stay satisfiable at higher density, so a solver
// learns clauses before the formula is refuted.
std::vector<Clause> random_cnf(std::mt19937& rng, int nvars, std::size_t nclauses,
                               bool binaries = true) {
  std::uniform_int_distribution<int> var(0, nvars - 1);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> width(1, 3);
  std::vector<Clause> out;
  out.reserve(nclauses);
  for (std::size_t i = 0; i < nclauses; ++i) {
    Clause c;
    const int w = binaries && width(rng) == 1 ? 2 : 3;  // mostly ternary, some binary
    for (int j = 0; j < w; ++j) c.push_back(Lit(var(rng), coin(rng) == 1));
    out.push_back(std::move(c));
  }
  return out;
}

TEST(Simplify, RandomCorpusVerdictEquivalenceAndReconstruction) {
  // For each random formula and each assumption set over frozen variables:
  // the simplified formula's verdict matches the original's, and a SAT
  // model — after reconstruct() — satisfies the original formula.
  std::mt19937 rng(0xC0FFEE);
  const int nvars = 24;
  const std::vector<Var> frozen = {0, 1, 2, 3, 4, 5};
  std::uniform_int_distribution<int> coin(0, 1);
  for (int round = 0; round < 25; ++round) {
    const std::vector<Clause> formula = random_cnf(rng, nvars, 95);
    CnfStore store;
    fill(store, nvars, formula);
    const CnfSnapshot original = store.snapshot();
    Simplifier simp;
    const CnfSnapshot view = simp.simplify(original, frozen);
    ASSERT_EQ(simp.stats().frozen_eliminations, 0u);

    for (int trial = 0; trial < 4; ++trial) {
      std::vector<Lit> assumptions;
      for (Var v : frozen) {
        if (trial > 0 && coin(rng) == 1) assumptions.push_back(Lit(v, coin(rng) == 1));
      }
      const auto base = solve(original, assumptions);
      const auto simplified = solve(view, assumptions);
      ASSERT_EQ(base.has_value(), simplified.has_value())
          << "round " << round << " trial " << trial;
      if (!simplified) continue;
      std::vector<bool> model = *simplified;
      simp.reconstruct(model);
      EXPECT_TRUE(satisfies(model, formula)) << "round " << round << " trial " << trial;
      for (Lit a : assumptions) {
        EXPECT_TRUE(lit_true(model, a)) << "round " << round << " trial " << trial;
      }
    }
  }
}

// --- Warm generation switches ------------------------------------------------
//
// An InprocBackend keeps its learnt clauses, root facts, activity and phases
// when sync() moves it to a new simplified generation (sat/backend.h). These
// tests hold one backend across generations of a growing store and check its
// answers against fresh solvers on the raw store.

std::vector<bool> backend_model(const SolverBackend& backend, int nvars) {
  std::vector<bool> model(static_cast<std::size_t>(nvars));
  for (int v = 0; v < nvars; ++v) model[static_cast<std::size_t>(v)] = backend.model_value(pos(v));
  return model;
}

// Variables of `input` that no clause of `generation` mentions: the
// generation eliminated them (root facts stay as unit clauses).
std::vector<char> eliminated_vars(const CnfSnapshot& input, const CnfSnapshot& generation) {
  std::vector<char> in(static_cast<std::size_t>(input.num_vars()), 0);
  std::vector<char> out(in.size(), 0);
  input.for_each_clause([&](const std::vector<Lit>& c) {
    for (Lit l : c) in[static_cast<std::size_t>(l.var())] = 1;
  });
  generation.for_each_clause([&](const std::vector<Lit>& c) {
    for (Lit l : c) out[static_cast<std::size_t>(l.var())] = 1;
  });
  for (std::size_t v = 0; v < in.size(); ++v) in[v] = in[v] && !out[v];
  return in;
}

void grow(CnfStore& store, std::mt19937& rng, int new_vars, std::size_t new_clauses,
          std::vector<Clause>& raw) {
  for (int v = 0; v < new_vars; ++v) store.new_var();
  for (Clause& c : random_cnf(rng, store.num_vars(), new_clauses, /*binaries=*/false)) {
    store.add_clause(c);
    raw.push_back(std::move(c));
  }
}

TEST(WarmSwitch, LearntClausesSurviveGenerationSwitch) {
  std::mt19937 rng(0xA11CE);
  std::vector<Clause> raw;
  CnfStore store;
  grow(store, rng, 100, 420, raw);
  std::vector<Var> frozen;
  for (Var v = 0; v < 12; ++v) frozen.push_back(v);

  Simplifier simp;
  InprocBackend backend;
  backend.sync(simp.simplify(store.snapshot(), frozen));
  std::uniform_int_distribution<int> coin(0, 1);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<Lit> assumptions;
    for (Var v : frozen) {
      if (coin(rng) == 1) assumptions.push_back(Lit(v, coin(rng) == 1));
    }
    backend.solve(assumptions);
  }
  const std::size_t learnts = backend.live_learnts();
  ASSERT_GT(learnts, 0u);

  grow(store, rng, 4, 12, raw);
  const CnfSnapshot next = simp.simplify(store.snapshot(), frozen);
  backend.sync(next);
  EXPECT_EQ(backend.live_learnts(), learnts);
  EXPECT_EQ(backend.stats().carried_learnts, learnts);

  // The warm solver still answers like a fresh one on the raw store.
  const auto base = solve(store.snapshot());
  ASSERT_EQ(backend.solve({}) == SolveStatus::Sat, base.has_value());
  if (base) {
    std::vector<bool> model = backend_model(backend, store.num_vars());
    simp.reconstruct(model);
    EXPECT_TRUE(satisfies(model, raw));
  }
}

TEST(WarmSwitch, RandomCorpusAcrossThreeGenerations) {
  // Each formula grows over three generations, and the frozen set moves:
  // variables 6-13 are frozen (assumed) in generation 1 and free in 2, so
  // generation 2 may eliminate variables that learnt clauses from generation
  // 1 mention; 6-9 come back frozen in generation 3, next to the variables
  // generation 3 added. After every switch, the warm backend's verdicts
  // under frozen-variable assumptions must match a fresh solver on the raw
  // store, its reconstructed models must satisfy the raw store, and its
  // UNSAT cores must refute the raw store.
  const std::vector<std::vector<Var>> frozen = {
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13},
      {0, 1, 2, 3, 4, 5, 14, 15, 16, 17, 18, 19, 20, 21},
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 42, 43}};
  const int new_vars[] = {40, 2, 2};
  const std::size_t new_clauses[] = {150, 12, 12};
  std::mt19937 rng(0xC0FFEE);
  std::uniform_int_distribution<int> coin(0, 1);
  std::size_t carried_eliminated = 0;  // learnts mentioning a newly eliminated var
  for (int round = 0; round < 25; ++round) {
    std::vector<Clause> raw;
    CnfStore store;
    Simplifier simp;
    InprocBackend backend;
    std::vector<Clause> learnts;  // every non-unit learnt clause of the backend
    backend.solver().set_export_hook(
        [&learnts](const std::vector<Lit>& lits, unsigned) {
          if (lits.size() > 1) learnts.push_back(lits);
        },
        ~0u, ~std::uint32_t{0});
    for (int gen = 0; gen < 3; ++gen) {
      SCOPED_TRACE("round " + std::to_string(round) + " generation " + std::to_string(gen + 1));
      grow(store, rng, new_vars[gen], new_clauses[gen], raw);
      const CnfSnapshot original = store.snapshot();
      const CnfSnapshot view = simp.simplify(original, frozen[gen]);
      ASSERT_EQ(simp.stats().frozen_eliminations, 0u);
      const std::vector<char> gone = eliminated_vars(original, view);
      for (const Clause& c : learnts) {
        carried_eliminated += std::any_of(c.begin(), c.end(), [&](Lit l) {
          return gone[static_cast<std::size_t>(l.var())] != 0;
        });
      }
      const std::uint64_t carried_before = backend.stats().carried_learnts;
      backend.sync(view);
      if (gen > 0) {
        EXPECT_EQ(backend.stats().carried_learnts - carried_before, learnts.size());
      }

      for (int trial = 0; trial < 4; ++trial) {
        std::vector<Lit> assumptions;
        for (Var v : frozen[gen]) {
          if (trial > 0 && coin(rng) == 1) assumptions.push_back(Lit(v, coin(rng) == 1));
        }
        const auto base = solve(original, assumptions);
        const SolveStatus status = backend.solve(assumptions);
        ASSERT_EQ(status == SolveStatus::Sat, base.has_value()) << "trial " << trial;
        if (status == SolveStatus::Sat) {
          std::vector<bool> model = backend_model(backend, original.num_vars());
          simp.reconstruct(model);
          EXPECT_TRUE(satisfies(model, raw)) << "trial " << trial;
          for (Lit a : assumptions) EXPECT_TRUE(lit_true(model, a)) << "trial " << trial;
        } else {
          const std::vector<Lit>& core = backend.unsat_core();
          for (Lit l : core) {
            EXPECT_NE(std::find(assumptions.begin(), assumptions.end(), l), assumptions.end());
          }
          EXPECT_FALSE(solve(original, core).has_value()) << "trial " << trial;
        }
      }
    }
  }
  EXPECT_GT(carried_eliminated, 0u);
}

TEST(WarmSwitch, ChannelImportsAreNotRepeated) {
  // Two backends share a channel. After a generation switch, the importer
  // keeps its channel cursor: nothing it already imported comes in again.
  std::mt19937 rng(0xBEEF);
  std::vector<Clause> raw;
  CnfStore store;
  grow(store, rng, 100, 420, raw);
  std::vector<Var> frozen;
  for (Var v = 0; v < 12; ++v) frozen.push_back(v);
  ClauseChannel channel;
  InprocBackend exporter(0, &channel, 0);
  InprocBackend importer(0, &channel, 1);
  Simplifier simp;

  const CnfSnapshot first = simp.simplify(store.snapshot(), frozen);
  exporter.sync(first);
  importer.sync(first);
  std::uniform_int_distribution<int> coin(0, 1);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<Lit> assumptions;
    for (Var v : frozen) {
      if (coin(rng) == 1) assumptions.push_back(Lit(v, coin(rng) == 1));
    }
    exporter.solve(assumptions);
  }
  importer.solve({});
  ASSERT_GT(exporter.stats().exported_clauses, 0u);
  ASSERT_GT(importer.stats().imported_clauses, 0u);

  grow(store, rng, 2, 8, raw);
  const CnfSnapshot second = simp.simplify(store.snapshot(), frozen);
  exporter.sync(second);
  importer.sync(second);
  const std::uint64_t imported = importer.stats().imported_clauses;
  importer.solve({});
  EXPECT_EQ(importer.stats().imported_clauses, imported);
}

TEST(Simplify, FixedPointIsIdempotent) {
  // Re-simplifying a simplified formula (same frozen set, fresh Simplifier)
  // must change nothing: the output is a fixed point of all three techniques.
  std::mt19937 rng(0x5EED);
  const std::vector<Var> frozen = {0, 1, 2, 3};
  for (int round = 0; round < 10; ++round) {
    const std::vector<Clause> formula = random_cnf(rng, 20, 70);
    CnfStore store;
    fill(store, 20, formula);
    SimplifyOptions opts;
    opts.max_rounds = 50;  // run all the way to the fixed point
    Simplifier first(opts);
    const CnfSnapshot once = first.simplify(store.snapshot(), frozen);
    if (first.output_unsat()) continue;
    Simplifier second(opts);
    second.simplify(once, frozen);
    EXPECT_EQ(second.stats().eliminated_vars, 0u) << "round " << round;
    EXPECT_EQ(second.stats().subsumed_clauses, 0u) << "round " << round;
    EXPECT_EQ(second.stats().strengthened_clauses, 0u) << "round " << round;
    EXPECT_EQ(second.stats().failed_literals, 0u) << "round " << round;
    EXPECT_EQ(second.stats().output_clauses, first.stats().output_clauses) << "round " << round;
    EXPECT_EQ(second.stats().output_literals, first.stats().output_literals) << "round " << round;
  }
}

// --- Pinned output formula ---------------------------------------------------
//
// The simplifier's output is a pure function of (input, frozen set, options),
// and a storage change must not move it: every input below is pinned to an
// FNV-1a digest of the emitted clause sequence and to the work counters. The
// expected values were computed with the per-clause-vector storage that
// preceded the flat layout.

std::uint64_t formula_digest(const CnfSnapshot& snap) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ull;
  };
  mix(static_cast<std::uint64_t>(snap.num_vars()));
  snap.for_each_clause([&](const std::vector<Lit>& c) {
    mix(c.size());
    for (Lit l : c) mix(static_cast<std::uint64_t>(l.index()));
  });
  return h;
}

// Tseitin chain x_{i+1} = x_i & a_i over frozen a_i and ends, plus a
// self-subsumption pair (b_i | c_i), (b_i | ~c_i | d_i) per stage and one
// failed literal p: (~p | q), (~p | r), (~q | ~r). BVE removes the inner
// x_i, strengthening shortens every pair, probing refutes p.
std::vector<Clause> gate_chain(int stages, std::vector<Var>& frozen, int& nvars) {
  std::vector<Clause> out;
  int next = 0;
  frozen.clear();
  auto fresh = [&](bool freeze = true) {
    if (freeze) frozen.push_back(next);
    return next++;
  };
  int x = fresh();
  for (int i = 0; i < stages; ++i) {
    const int a = fresh();
    const int y = fresh(i + 1 == stages);
    out.push_back({neg(y), pos(x)});
    out.push_back({neg(y), pos(a)});
    out.push_back({pos(y), neg(x), neg(a)});
    const int b = fresh(), c = fresh(), d = fresh();
    out.push_back({pos(b), pos(c)});
    out.push_back({pos(b), neg(c), pos(d)});
    x = y;
  }
  const int p = fresh(), q = fresh(), r = fresh();
  out.push_back({neg(p), pos(q)});
  out.push_back({neg(p), pos(r)});
  out.push_back({neg(q), neg(r)});
  nvars = next;
  return out;
}

struct PinnedRun {
  std::uint64_t digest = 0xcbf29ce484222325ull;  // folded over generations
  std::uint64_t eliminated_vars = 0;
  std::uint64_t resolvents_added = 0;
  std::uint64_t strengthened_clauses = 0;
};

// Simplifies one generation, folds its digest into `run`, and checks that a
// model of the output reconstructs into a model of `formula`.
void pin_generation(Simplifier& simp, const CnfStore& store, const std::vector<Clause>& formula,
                    const std::vector<Var>& frozen, PinnedRun& run) {
  const CnfSnapshot view = simp.simplify(store.snapshot(), frozen);
  ASSERT_EQ(simp.stats().frozen_eliminations, 0u);
  run.digest = (run.digest ^ formula_digest(view)) * 0x100000001b3ull;
  if (const auto model = solve(view)) {
    std::vector<bool> full = *model;
    simp.reconstruct(full);
    EXPECT_TRUE(satisfies(full, formula));
  } else {
    EXPECT_FALSE(solve(store.snapshot()).has_value());
  }
}

void finish(const Simplifier& simp, PinnedRun& run) {
  run.eliminated_vars += simp.stats().eliminated_vars;
  run.resolvents_added += simp.stats().resolvents_added;
  run.strengthened_clauses += simp.stats().strengthened_clauses;
}

void expect_pinned(const PinnedRun& run, const PinnedRun& want) {
  EXPECT_EQ(run.digest, want.digest);
  EXPECT_EQ(run.eliminated_vars, want.eliminated_vars);
  EXPECT_EQ(run.resolvents_added, want.resolvents_added);
  EXPECT_EQ(run.strengthened_clauses, want.strengthened_clauses);
}

TEST(Simplify, OutputPinnedOnRandomCorpora) {
  // The seeds and shapes of the random corpora above, one fresh Simplifier
  // per formula.
  struct Corpus {
    std::uint32_t seed;
    int nvars;
    std::size_t nclauses;
    int rounds;
    std::vector<Var> frozen;
    PinnedRun want;
  };
  const std::vector<Corpus> corpora = {
      {0xC0FFEE, 24, 95, 25, {0, 1, 2, 3, 4, 5}, {0xf12317138f75b45cull, 24, 90, 142}},
      {0x5EED, 20, 70, 10, {0, 1, 2, 3}, {0x1ef7f4ce49d6336dull, 11, 26, 39}},
  };
  for (const Corpus& corpus : corpora) {
    SCOPED_TRACE("seed " + std::to_string(corpus.seed));
    std::mt19937 rng(corpus.seed);
    PinnedRun run;
    for (int round = 0; round < corpus.rounds; ++round) {
      const std::vector<Clause> formula = random_cnf(rng, corpus.nvars, corpus.nclauses);
      CnfStore store;
      fill(store, corpus.nvars, formula);
      Simplifier simp;
      pin_generation(simp, store, formula, corpus.frozen, run);
      finish(simp, run);
    }
    expect_pinned(run, corpus.want);
  }
}

TEST(Simplify, OutputPinnedAcrossGenerations) {
  // One Simplifier over three growing generations of the warm-switch corpora:
  // each real run replaces (and frees) the previous generation.
  struct Corpus {
    std::uint32_t seed;
    PinnedRun want;
  };
  const std::vector<Corpus> corpora = {
      {0xA11CE, {0xd6866e88a618ea4cull, 11, 28, 6}},
      {0xBEEF, {0xab0341061f0fb031ull, 6, 24, 3}},
  };
  std::vector<Var> frozen;
  for (Var v = 0; v < 12; ++v) frozen.push_back(v);
  for (const Corpus& corpus : corpora) {
    SCOPED_TRACE("seed " + std::to_string(corpus.seed));
    std::mt19937 rng(corpus.seed);
    std::vector<Clause> raw;
    CnfStore store;
    Simplifier simp;
    PinnedRun run;
    grow(store, rng, 100, 420, raw);
    pin_generation(simp, store, raw, frozen, run);
    grow(store, rng, 4, 12, raw);
    pin_generation(simp, store, raw, frozen, run);
    grow(store, rng, 2, 8, raw);
    pin_generation(simp, store, raw, frozen, run);
    finish(simp, run);
    EXPECT_EQ(simp.stats().runs, 3u);
    expect_pinned(run, corpus.want);
  }
}

TEST(Simplify, OutputPinnedOnGateChain) {
  std::vector<Var> frozen;
  int nvars = 0;
  const std::vector<Clause> formula = gate_chain(16, frozen, nvars);
  CnfStore store;
  fill(store, nvars, formula);
  Simplifier simp;
  PinnedRun run;
  pin_generation(simp, store, formula, frozen, run);
  finish(simp, run);
  EXPECT_GT(simp.stats().eliminated_vars, 0u);
  EXPECT_GT(simp.stats().strengthened_clauses, 0u);
  EXPECT_GT(simp.stats().failed_literals, 0u);
  expect_pinned(run, {0xd2bdfe98e614f09cull, 14, 85, 16});
}

TEST(Simplify, MemoryGaugesCoverDatabaseAndReconstructionStack) {
  std::vector<Var> frozen;
  int nvars = 0;
  const std::vector<Clause> formula = gate_chain(16, frozen, nvars);
  CnfStore store;
  fill(store, nvars, formula);

  Simplifier simp;
  simp.simplify(store.snapshot(), frozen);
  ASSERT_GT(simp.stats().eliminated_vars, 0u);
  EXPECT_GT(simp.stats().db_bytes, 0u);
  EXPECT_GT(simp.stats().elim_bytes, 0u);
  util::MetricsSnapshot m;
  append_metrics(m, simp.stats());
  for (const char* name : {"db_bytes", "elim_bytes"}) {
    ASSERT_TRUE(m.has(name)) << name;
    EXPECT_EQ(m.entries().at(name).kind, util::MetricKind::Gauge) << name;
  }
  EXPECT_EQ(m.get("db_bytes"), simp.stats().db_bytes);
  EXPECT_EQ(m.get("elim_bytes"), simp.stats().elim_bytes);

  // Without BVE nothing is saved for reconstruction.
  SimplifyOptions opts;
  opts.bve = false;
  Simplifier no_bve(opts);
  no_bve.simplify(store.snapshot(), frozen);
  EXPECT_GT(no_bve.stats().db_bytes, 0u);
  EXPECT_EQ(no_bve.stats().elim_bytes, 0u);
}

// --- end-to-end payoff ---------------------------------------------------------

// Secure Alg. 1 on the countermeasure SoC, four workers with clause sharing:
// the simplified generation must cut conflicts + propagations by at least
// 10% against the same run on the raw store. The secure run is the
// UNSAT-heavy workload where every removed clause pays off in every repeated
// proof. Sharing makes the counters vary from run to run (single-run ratios
// spread over 0.62-0.92 on a 4-vCPU x86_64 guest), so each side sums three
// runs.
TEST(PreprocessPayoff, SecureAlg1WorkDropsByTenPercent) {
  soc::SocConfig cfg;
  cfg.pub_ram_words = 8;
  cfg.priv_ram_words = 4;
  const soc::Soc soc = soc::build_pulpissimo(cfg);
  Alg1Options alg;
  alg.extract_waveform = false;
  const auto work = [&](bool preprocess) {
    VerifyOptions options = countermeasure_options();
    options.threads = 4;
    options.preprocess = preprocess;
    std::uint64_t total = 0;
    for (int run = 0; run < 3; ++run) {
      const Alg1Result r = verify_2cycle(soc, options, alg);
      EXPECT_EQ(r.verdict, Verdict::Secure);
      total += r.metrics.get("sat.solver.total.conflicts") +
               r.metrics.get("sat.solver.total.propagations");
    }
    return total;
  };
  const std::uint64_t off = work(false);
  const std::uint64_t on = work(true);
  EXPECT_LE(static_cast<double>(on), 0.90 * static_cast<double>(off))
      << "work off " << off << ", on " << on;
}

} // namespace
} // namespace upec::sat
