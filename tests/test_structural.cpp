// Structural equality before each sweep (upec::refute_structurally,
// Miter::structural_support / structural_guard): the candidates whose
// next-state cones read only assumed-equal state and shared inputs are
// refuted with no solve, and the solver gets their equality as guarded
// lemmas. These tests pin the rule on a hand-built design, check every
// refutation and every lemma bit against a second context that emits no
// lemmas, and check that two contexts in one process emit one clause stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "rtlir/builder.h"
#include "upec/engine.h"
#include "upec/sweep.h"

namespace upec {
namespace {

using rtlir::StateVarId;
using Groups = std::vector<ipc::SweepResult::UnsatGroup>;

std::vector<StateVarId> refuted_of(const Groups& groups) {
  std::vector<StateVarId> out;
  for (const auto& g : groups) {
    EXPECT_EQ(g.enabled.size(), 1u);
    out.push_back(g.enabled.front());
  }
  return out;
}

// ------------------------------------------------------------- hand-built

// Eight registers and one four-word memory (no write port) over a shared
// input and a per-instance one:
//   shared_q  <- shared_q + shared      support in S, shared input
//   cpu_q     <- cpu_q ^ cpu            per-instance input
//   mem_q     <- m[shared[1:0]]         reads m[3], which may be exempt
//   outside_q <- free_q                 reads state outside S
//   free_q    <- free_q                 (not in S)
//   c1_q      <- shared_q ^ shared      frame-2 chain: c2 <- c1 <- shared_q
//   c2_q      <- c1_q + 1
//   lag_q     <- cpu_q                  equal at frame 1, not at frame 2
struct Toy {
  rtlir::Design design;
  StateVarId shared_q = 0, cpu_q = 0, mem_q = 0, outside_q = 0, free_q = 0, c1_q = 0,
             c2_q = 0, lag_q = 0, word3 = 0;
};

Toy build_toy() {
  Toy t;
  rtlir::Builder b(t.design);
  const rtlir::NetId shared = b.input("shared", 8);
  const rtlir::NetId cpu = b.input("cpu", 8);
  const rtlir::MemHandle m = b.memory("m", 4, 8);
  const rtlir::RegHandle shared_q = b.reg("shared_q", 8);
  const rtlir::RegHandle cpu_q = b.reg("cpu_q", 8);
  const rtlir::RegHandle mem_q = b.reg("mem_q", 8);
  const rtlir::RegHandle outside_q = b.reg("outside_q", 8);
  const rtlir::RegHandle free_q = b.reg("free_q", 8);
  const rtlir::RegHandle c1_q = b.reg("c1_q", 8);
  const rtlir::RegHandle c2_q = b.reg("c2_q", 8);
  const rtlir::RegHandle lag_q = b.reg("lag_q", 8);
  b.connect(shared_q, b.add(shared_q.q, shared));
  b.connect(cpu_q, b.xor_(cpu_q.q, cpu));
  b.connect(mem_q, b.mem_read(m, b.slice(shared, 1, 0)));
  b.connect(outside_q, free_q.q);
  b.connect(free_q, free_q.q);
  b.connect(c1_q, b.xor_(shared_q.q, shared));
  b.connect(c2_q, b.add_const(c1_q.q, 1));
  b.connect(lag_q, cpu_q.q);
  EXPECT_EQ(t.design.validate(), "");
  const rtlir::StateVarTable svt(t.design);
  t.shared_q = svt.of_register(shared_q.index);
  t.cpu_q = svt.of_register(cpu_q.index);
  t.mem_q = svt.of_register(mem_q.index);
  t.outside_q = svt.of_register(outside_q.index);
  t.free_q = svt.of_register(free_q.index);
  t.c1_q = svt.of_register(c1_q.index);
  t.c2_q = svt.of_register(c2_q.index);
  t.lag_q = svt.of_register(lag_q.index);
  t.word3 = svt.of_mem_word(m.index, 3);
  return t;
}

TEST(StructuralEquality, HandBuiltDesignSplitsTheFiveCases) {
  const Toy t = build_toy();
  const rtlir::StateVarTable svt(t.design);
  sat::Solver solver;
  encode::Miter miter(solver, t.design, svt,
                      encode::MiterOptions{
                          .per_instance = [](const std::string& name) { return name == "cpu"; },
                          .shared_prefix = false});
  // m[3] lies in a symbolic victim range: exempt whenever `victim` holds.
  const encode::Lit victim = miter.cnf().fresh();
  miter.set_exempt([&](encode::Miter& m, StateVarId sv) {
    return sv == t.word3 ? victim : m.cnf().lit_false();
  });

  // S is every state variable but free_q, all assumed equal.
  std::unordered_set<StateVarId> eq_set;
  std::vector<encode::Lit> assumptions;
  for (StateVarId sv = 0; sv < svt.size(); ++sv) {
    if (sv == t.free_q) continue;
    eq_set.insert(sv);
    assumptions.push_back(miter.eq_assumption(sv));
  }

  EXPECT_FALSE(miter.structural_support(t.shared_q).per_instance_input);
  EXPECT_TRUE(miter.structural_support(t.cpu_q).per_instance_input);
  EXPECT_EQ(miter.structural_support(t.shared_q).state, std::vector<StateVarId>{t.shared_q});
  EXPECT_EQ(miter.structural_support(t.c2_q).state, (std::vector<StateVarId>{t.c1_q, t.c2_q}));
  EXPECT_EQ(miter.structural_support(t.mem_q).state.size(), 5u); // four words and mem_q
  // A memory word without write ports reads only itself.
  EXPECT_EQ(miter.structural_support(t.word3).state, std::vector<StateVarId>{t.word3});

  const auto diff_sat = [&](StateVarId sv, unsigned frame) {
    std::vector<encode::Lit> as = assumptions;
    as.push_back(miter.diff_literal(sv, frame));
    return solver.solve(as);
  };

  // Frame 1. The pass never solves.
  std::vector<StateVarId> members = {t.shared_q, t.cpu_q,  t.mem_q, t.outside_q,
                                     t.c1_q,     t.c2_q,   t.lag_q};
  const std::uint64_t solves_before = solver.stats().solve_calls;
  const Groups g1 = refute_structurally(miter, eq_set, members, 1);
  EXPECT_EQ(solver.stats().solve_calls, solves_before);
  EXPECT_EQ(refuted_of(g1), (std::vector<StateVarId>{t.shared_q, t.c1_q, t.c2_q, t.lag_q}));
  // The per-instance input, the exemptible word and the state outside S go
  // to SAT, where each can differ.
  EXPECT_EQ(members, (std::vector<StateVarId>{t.cpu_q, t.mem_q, t.outside_q}));
  for (StateVarId sv : members) EXPECT_TRUE(diff_sat(sv, 1)) << svt.name(sv);
  for (StateVarId sv : refuted_of(g1)) EXPECT_FALSE(diff_sat(sv, 1)) << svt.name(sv);
  // Cores are the eq assumptions of the frame-0 leaves.
  EXPECT_EQ(g1[0].core, std::vector<encode::Lit>{miter.eq_assumption(t.shared_q)});
  EXPECT_EQ(g1[3].core, (std::vector<encode::Lit>{miter.eq_assumption(t.cpu_q),
                                                  miter.eq_assumption(t.lag_q)}));

  // Frame 2: the chain c2 <- c1 <- shared_q stays equal; lag_q now reads
  // cpu_q's frame-1 value, which the per-instance input reached.
  members = {t.c2_q, t.lag_q};
  const Groups g2 = refute_structurally(miter, eq_set, members, 2);
  EXPECT_EQ(refuted_of(g2), std::vector<StateVarId>{t.c2_q});
  EXPECT_EQ(g2[0].core,
            (std::vector<encode::Lit>{miter.eq_assumption(t.shared_q), miter.eq_assumption(t.c1_q),
                                      miter.eq_assumption(t.c2_q)}));
  EXPECT_EQ(members, std::vector<StateVarId>{t.lag_q});
  EXPECT_FALSE(diff_sat(t.c2_q, 2));
  EXPECT_TRUE(diff_sat(t.lag_q, 2));

  // The guards are implied: assuming S equal forces each one true, and the
  // lemmas leave the formula satisfiable.
  for (auto [sv, frame] : {std::pair{t.shared_q, 1u}, {t.c1_q, 1u}, {t.c2_q, 2u}}) {
    std::vector<encode::Lit> as = assumptions;
    as.push_back(~miter.structural_guard(sv, frame));
    EXPECT_FALSE(solver.solve(as)) << svt.name(sv) << " at frame " << frame;
  }
  EXPECT_TRUE(solver.solve(assumptions));

  // Guards are encoded once: a repeated pass adds no variable.
  const int vars = solver.num_vars();
  members = {t.shared_q, t.c1_q, t.c2_q, t.lag_q};
  EXPECT_EQ(refute_structurally(miter, eq_set, members, 1).size(), 4u);
  EXPECT_EQ(solver.num_vars(), vars);
}

// ----------------------------------------------------------------- oracle

// The frame-0 leaves under (sv, frame): the state the guard rests on.
std::vector<StateVarId> leaves_of(encode::Miter& miter, StateVarId sv, unsigned frame) {
  std::vector<StateVarId> leaves = {sv};
  for (unsigned j = frame; j > 0; --j) {
    std::set<StateVarId> below;
    for (StateVarId u : leaves) {
      for (StateVarId w : miter.structural_support(u).state) below.insert(w);
    }
    leaves.assign(below.begin(), below.end());
  }
  return leaves;
}

// Runs the pass at frames 1..max_frame in `ctx` with every state variable of
// S_¬victim assumed equal and swept, then checks in `oracle`, a second
// context that never runs the pass and so holds no lemma:
//   - every refuted candidate's diff is UNSAT under its core, and
//   - for every guard (u, j) the refutations rest on, every bit of u at j
//     is equal: eq(leaves) ∧ (a_i ≠ b_i) is UNSAT.
// Returns the number of refuted candidates per frame.
std::vector<std::size_t> check_against_oracle(UpecContext& ctx, UpecContext& oracle,
                                              unsigned max_frame) {
  const std::vector<StateVarId> s = s_not_victim(ctx.svt).to_vector();
  const std::unordered_set<StateVarId> eq_set(s.begin(), s.end());
  for (StateVarId sv : s) {
    ctx.miter.eq_assumption(sv);
    oracle.miter.eq_assumption(sv);
  }
  const auto eq_of = [&oracle](const std::vector<StateVarId>& leaves) {
    std::vector<encode::Lit> as;
    for (StateVarId u : leaves) as.push_back(oracle.miter.eq_assumption(u));
    return as;
  };

  std::vector<std::size_t> refuted;
  std::set<std::pair<unsigned, StateVarId>> guards;
  for (unsigned frame = 1; frame <= max_frame; ++frame) {
    std::vector<StateVarId> members = s;
    const Groups groups = refute_structurally(ctx.miter, eq_set, members, frame);
    refuted.push_back(groups.size());
    for (const auto& g : groups) {
      const StateVarId sv = g.enabled.front();
      std::vector<StateVarId> core_svs;
      for (encode::Lit l : g.core) {
        StateVarId u = 0;
        EXPECT_TRUE(ctx.miter.eq_assumption_var(l, &u));
        core_svs.push_back(u);
      }
      EXPECT_EQ(core_svs, leaves_of(ctx.miter, sv, frame));
      std::vector<encode::Lit> as = eq_of(core_svs);
      as.push_back(oracle.miter.diff_literal(sv, frame));
      EXPECT_EQ(oracle.scheduler.check(as).status, ipc::CheckStatus::Holds)
          << ctx.svt.name(sv) << " at frame " << frame;
      // Every guard under this one: (u, j) for u reached j frames up.
      std::vector<StateVarId> level = {sv};
      for (unsigned j = frame; j > 0; --j) {
        std::set<StateVarId> below;
        for (StateVarId u : level) {
          guards.insert({j, u});
          for (StateVarId w : ctx.miter.structural_support(u).state) below.insert(w);
        }
        level.assign(below.begin(), below.end());
      }
    }
  }

  for (const auto& [j, u] : guards) {
    const encode::Bits a = oracle.miter.inst_a().state_at(j, u);
    const encode::Bits b = oracle.miter.inst_b().state_at(j, u);
    const std::vector<encode::Lit> eq = eq_of(leaves_of(ctx.miter, u, j));
    for (std::size_t i = 0; i < a.size(); ++i) {
      std::vector<encode::Lit> as = eq;
      as.push_back(oracle.miter.cnf().xor2(a[i], b[i]));
      EXPECT_EQ(oracle.scheduler.check(as).status, ipc::CheckStatus::Holds)
          << ctx.svt.name(u) << " bit " << i << " at frame " << j;
    }
  }
  return refuted;
}

TEST(StructuralEquality, OracleAgreesOnAlg1Pub4) {
  soc::SocConfig cfg;
  cfg.pub_ram_words = 4;
  cfg.priv_ram_words = 2;
  const soc::Soc soc = soc::build_pulpissimo(cfg);
  UpecContext ctx(soc);
  UpecContext oracle(soc);
  const std::vector<std::size_t> refuted = check_against_oracle(ctx, oracle, 1);
  // Alg. 1's first sweep on this SoC: 59 of its 125 candidates.
  EXPECT_EQ(refuted, std::vector<std::size_t>{59});
}

TEST(StructuralEquality, OracleAgreesOnAlg2CountermeasureFramesOneToThree) {
  soc::SocConfig cfg;
  cfg.pub_ram_words = 2;
  cfg.priv_ram_words = 2;
  const soc::Soc soc = soc::build_pulpissimo(cfg);
  UpecContext ctx(soc, countermeasure_options());
  UpecContext oracle(soc, countermeasure_options());
  const std::vector<std::size_t> refuted = check_against_oracle(ctx, oracle, 3);
  ASSERT_EQ(refuted.size(), 3u);
  for (std::size_t n : refuted) EXPECT_GT(n, 0u);
}

// ---------------------------------------------------------- clause stream

std::vector<std::vector<std::int32_t>> clause_stream(const sat::CnfStore& store) {
  std::vector<std::vector<std::int32_t>> out;
  store.snapshot().for_each_clause([&out](const std::vector<sat::Lit>& c) {
    std::vector<std::int32_t> idx;
    for (sat::Lit l : c) idx.push_back(l.index());
    out.push_back(std::move(idx));
  });
  return out;
}

TEST(StructuralEquality, TwoContextsEmitTheSameClauseStream) {
  // Supports and guards are memoized per miter, never process-wide: a
  // second context in the same process emits every lemma again.
  soc::SocConfig cfg;
  cfg.pub_ram_words = 2;
  cfg.priv_ram_words = 2;
  const soc::Soc soc = soc::build_pulpissimo(cfg);
  Alg2Options opts;
  opts.extract_waveform = false;
  opts.max_k = 2; // frames 1 and 2, then Unknown
  UpecContext first(soc, countermeasure_options());
  const Alg2Result a = run_alg2(first, opts);
  UpecContext second(soc, countermeasure_options());
  const Alg2Result b = run_alg2(second, opts);
  ASSERT_EQ(a.final_k, 2u);
  EXPECT_EQ(b.verdict, a.verdict);
  EXPECT_EQ(b.steps.size(), a.steps.size());
  EXPECT_GT(a.metrics.get("upec.sweep.structural_candidates"), 0u);
  EXPECT_EQ(b.metrics.get("upec.sweep.structural_candidates"),
            a.metrics.get("upec.sweep.structural_candidates"));
  EXPECT_EQ(second.store.num_clauses(), first.store.num_clauses());
  EXPECT_TRUE(clause_stream(second.store) == clause_stream(first.store));
}

} // namespace
} // namespace upec
