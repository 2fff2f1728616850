// Structural equality before each sweep (upec::refute_structurally,
// Miter::structural_support / structural_guard): the candidates whose
// next-state cones read only assumed-equal state and shared inputs are
// refuted with no solve, and the solver gets their equality as guarded
// lemmas. These tests pin the rule on a hand-built design, check every
// refutation and every lemma bit against a second context that emits no
// lemmas, and check that two contexts in one process emit one clause stream.
//
// FrameLemmas: Alg. 2's refutations at earlier frames, written into the
// store as guarded lemmas (upec::emit_frame_lemmas, Miter::equality_lemma)
// and read by the structural pass at later frames. The same three checks:
// a hand-built design, an oracle for every lemma bit and every refutation
// that rests on a lemma, and one clause stream per context.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "ipc/scheduler.h"
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
                          .per_instance = [](const std::string& name) { return name == "cpu"; }});
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
  const Groups g1 = refute_structurally(miter, FrontierPruner{}, eq_set, {}, members, 1);
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
  const Groups g2 = refute_structurally(miter, FrontierPruner{}, eq_set, {}, members, 2);
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
  EXPECT_EQ(refute_structurally(miter, FrontierPruner{}, eq_set, {}, members, 1).size(), 4u);
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
    const Groups groups =
        refute_structurally(ctx.miter, FrontierPruner{}, eq_set, {}, members, frame);
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

// ------------------------------------------------------------ frame lemmas

// Four registers over a per-instance input:
//   base_q   <- base_q              support in S
//   sem_q    <- (base_q + cpu) - cpu equal by arithmetic, not by structure
//   follow_q <- sem_q
//   lag_q    <- sem_q + cpu          reads the per-instance input
TEST(FrameLemmas, HandBuiltRefutationCarriesToTheNextFrame) {
  rtlir::Design design;
  rtlir::Builder b(design);
  const rtlir::NetId cpu = b.input("cpu", 8);
  const rtlir::RegHandle base_q = b.reg("base_q", 8);
  const rtlir::RegHandle sem_q = b.reg("sem_q", 8);
  const rtlir::RegHandle follow_q = b.reg("follow_q", 8);
  const rtlir::RegHandle lag_q = b.reg("lag_q", 8);
  b.connect(base_q, base_q.q);
  b.connect(sem_q, b.sub(b.add(base_q.q, cpu), cpu));
  b.connect(follow_q, sem_q.q);
  b.connect(lag_q, b.add(sem_q.q, cpu));
  ASSERT_EQ(design.validate(), "");
  const rtlir::StateVarTable svt(design);
  const StateVarId base = svt.of_register(base_q.index);
  const StateVarId sem = svt.of_register(sem_q.index);
  const StateVarId follow = svt.of_register(follow_q.index);
  const StateVarId lag = svt.of_register(lag_q.index);

  sat::CnfStore store;
  encode::Miter miter(store, design, svt,
                      encode::MiterOptions{
                          .per_instance = [](const std::string& name) { return name == "cpu"; }});
  ipc::CheckScheduler scheduler(store, ipc::SchedulerOptions{});
  miter.set_model_source(&scheduler.backend(0));
  std::unordered_set<StateVarId> eq_set;
  std::vector<encode::Lit> assumptions;
  std::unordered_set<std::int32_t> lits;
  for (StateVarId sv = 0; sv < svt.size(); ++sv) {
    eq_set.insert(sv);
    assumptions.push_back(miter.eq_assumption(sv));
    lits.insert(assumptions.back().index());
  }
  const auto holds = [&](std::vector<encode::Lit> as, StateVarId sv, unsigned frame) {
    as.push_back(miter.diff_literal(sv, frame));
    return scheduler.check(as).status == ipc::CheckStatus::Holds;
  };

  // Frame 1: sem_q's cone reads the per-instance input, so structure leaves
  // it to SAT, which refutes it; its core becomes a record. Nothing to emit.
  FrontierPruner pruner;
  EXPECT_EQ(emit_frame_lemmas(miter, pruner, 1), 0u);
  std::vector<StateVarId> members = {sem, follow};
  miter.register_candidates(members, 1);
  EXPECT_EQ(refuted_of(refute_structurally(miter, pruner, eq_set, lits, members, 1)),
            std::vector<StateVarId>{follow});
  ASSERT_EQ(members, std::vector<StateVarId>{sem});
  std::vector<encode::Lit> as = assumptions;
  as.push_back(miter.diff_literal(sem, 1));
  std::vector<encode::Lit> core;
  ASSERT_EQ(scheduler.check(as, &core).status, ipc::CheckStatus::Holds);
  FrontierPruner::Justification just;
  for (encode::Lit l : core) {
    StateVarId u = 0;
    if (miter.eq_assumption_var(l, &u)) just.eq_svs.push_back(u);
  }
  EXPECT_NE(std::find(just.eq_svs.begin(), just.eq_svs.end(), base), just.eq_svs.end());
  pruner.record(1, {sem}, just);

  // Frame 2: without the record, follow_q (which reads sem_q) goes to SAT.
  std::vector<StateVarId> alone = {follow, lag};
  EXPECT_TRUE(refute_structurally(miter, FrontierPruner{}, eq_set, lits, alone, 2).empty());
  // The record becomes one lemma: its core clause and two clauses per bit.
  std::size_t clauses = store.num_clauses();
  EXPECT_EQ(emit_frame_lemmas(miter, pruner, 2), 1u);
  EXPECT_EQ(store.num_clauses(), clauses + 1 + 2 * 8);
  EXPECT_EQ(emit_frame_lemmas(miter, pruner, 2), 0u); // handed out once
  // A second core for the same (sv, frame) adds its core clause only.
  pruner.record(1, {sem}, just);
  clauses = store.num_clauses();
  const int vars = store.num_vars();
  EXPECT_EQ(emit_frame_lemmas(miter, pruner, 2), 1u);
  EXPECT_EQ(store.num_clauses(), clauses + 1);
  EXPECT_EQ(store.num_vars(), vars);

  // The structural pass now refutes follow_q at frame 2 through the lemma;
  // lag_q still reads the per-instance input.
  members = {follow, lag};
  miter.register_candidates(members, 2);
  const Groups g2 = refute_structurally(miter, pruner, eq_set, lits, members, 2);
  ASSERT_EQ(refuted_of(g2), std::vector<StateVarId>{follow});
  EXPECT_EQ(members, std::vector<StateVarId>{lag});
  // Its core: follow_q's own frame-0 leaves (follow_q at 1 reads sem_q and
  // follow_q) and the record's core.
  std::set<StateVarId> expected(just.eq_svs.begin(), just.eq_svs.end());
  expected.insert({sem, follow});
  std::vector<encode::Lit> expected_core;
  for (StateVarId u : expected) expected_core.push_back(miter.eq_assumption(u));
  EXPECT_EQ(g2[0].core, expected_core);
  EXPECT_TRUE(holds(g2[0].core, follow, 2));
  EXPECT_FALSE(holds(assumptions, lag, 2));

  // A record the assumptions do not entail is not read.
  std::unordered_set<StateVarId> without_base = eq_set;
  without_base.erase(base);
  members = {follow};
  EXPECT_TRUE(refute_structurally(miter, pruner, without_base, lits, members, 2).empty());
}

// A one-word memory (no write port) in a symbolic victim range, a register
// that reads it when a shared input selects it, and a copy of that
// register:
//   m[0]    holds                    exempt whenever `victim` holds
//   read_q  <- sel ? m[0] : 0
//   copy_q  <- read_q
// An extra assumption `quiet` (standing in for a macro) deselects m[0] at
// frame 0, so read_q is equal at frame 1 by SAT but not by structure.
TEST(FrameLemmas, ExemptibleWordLemmaIsNeverReadAsEquality) {
  rtlir::Design design;
  rtlir::Builder b(design);
  const rtlir::NetId sel = b.input("sel", 1);
  const rtlir::MemHandle m = b.memory("m", 1, 8);
  const rtlir::RegHandle read_q = b.reg("read_q", 8);
  const rtlir::RegHandle copy_q = b.reg("copy_q", 8);
  b.connect(read_q, b.mux(sel, b.mem_read(m, b.zero(1)), b.zero(8)));
  b.connect(copy_q, read_q.q);
  ASSERT_EQ(design.validate(), "");
  const rtlir::StateVarTable svt(design);
  const StateVarId word = svt.of_mem_word(m.index, 0);
  const StateVarId read = svt.of_register(read_q.index);
  const StateVarId copy = svt.of_register(copy_q.index);

  sat::CnfStore store;
  encode::Miter miter(store, design, svt, encode::MiterOptions{});
  const encode::Lit victim = miter.cnf().fresh();
  miter.set_exempt([&](encode::Miter& mi, StateVarId sv) {
    return sv == word ? victim : mi.cnf().lit_false();
  });
  ipc::CheckScheduler scheduler(store, ipc::SchedulerOptions{});
  miter.set_model_source(&scheduler.backend(0));
  const encode::Lit quiet = miter.cnf().fresh();
  miter.cnf().add_clause({~quiet, ~miter.inst_a().input_at(0, 0)[0]});
  const std::unordered_set<StateVarId> eq_set = {word, read, copy};
  std::vector<encode::Lit> assumptions = {quiet};
  for (StateVarId sv : eq_set) assumptions.push_back(miter.eq_assumption(sv));
  std::unordered_set<std::int32_t> lits;
  for (encode::Lit l : assumptions) lits.insert(l.index());
  const auto refute_by_sat = [&](StateVarId sv, unsigned frame) {
    std::vector<encode::Lit> as = assumptions;
    as.push_back(miter.diff_literal(sv, frame));
    std::vector<encode::Lit> core;
    EXPECT_EQ(scheduler.check(as, &core).status, ipc::CheckStatus::Holds);
    FrontierPruner::Justification just;
    for (encode::Lit l : core) {
      StateVarId u = 0;
      if (miter.eq_assumption_var(l, &u)) {
        just.eq_svs.push_back(u);
      } else if (lits.count(l.index()) != 0) {
        just.other_lits.push_back(l);
      }
    }
    return just;
  };

  // Frame 1: structure refutes only copy_q; SAT refutes the word (it can
  // differ only while exempt, which diff rules out) and read_q (`quiet`
  // keeps it at 0).
  std::vector<StateVarId> members = {word, read, copy};
  miter.register_candidates(members, 1);
  FrontierPruner pruner;
  EXPECT_EQ(refuted_of(refute_structurally(miter, pruner, eq_set, lits, members, 1)),
            std::vector<StateVarId>{copy});
  pruner.record(1, {word}, refute_by_sat(word, 1));
  const FrontierPruner::Justification read_just = refute_by_sat(read, 1);
  ASSERT_EQ(read_just.other_lits, std::vector<encode::Lit>{quiet});
  pruner.record(1, {read}, read_just);

  // Frame 2. copy_q reads read_q at frame 1, which its record proves equal
  // as long as `quiet` is assumed. read_q reads the word at frame 1, whose
  // lemma only says "equal or exempt": it stays with SAT and can differ.
  EXPECT_EQ(emit_frame_lemmas(miter, pruner, 2), 2u);
  members = {read, copy};
  miter.register_candidates(members, 2);
  std::unordered_set<std::int32_t> loud = lits;
  loud.erase(quiet.index());
  std::vector<StateVarId> unproven = members;
  EXPECT_TRUE(refute_structurally(miter, pruner, eq_set, loud, unproven, 2).empty());
  EXPECT_EQ(refuted_of(refute_structurally(miter, pruner, eq_set, lits, members, 2)),
            std::vector<StateVarId>{copy});
  ASSERT_EQ(members, std::vector<StateVarId>{read});
  std::vector<encode::Lit> as = assumptions;
  as.push_back(miter.diff_literal(read, 2));
  ASSERT_EQ(scheduler.check(as).status, ipc::CheckStatus::Violated);
  EXPECT_TRUE(miter.lit_in_model(victim));
  as.push_back(~victim);
  EXPECT_EQ(scheduler.check(as).status, ipc::CheckStatus::Holds);
}

// Maps literals of `ctx`'s store to the same literals of `oracle`'s: eq
// assumptions by state variable, macro assumptions of windows 1..max_k by
// position (both contexts encode them in the same order).
class OracleLits {
public:
  OracleLits(UpecContext& ctx, UpecContext& oracle, unsigned max_k) : ctx_(ctx), oracle_(oracle) {
    for (unsigned k = 1; k <= max_k; ++k) {
      const std::vector<encode::Lit> a = ctx.macros.assumptions(k);
      const std::vector<encode::Lit> b = oracle.macros.assumptions(k);
      EXPECT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) macros_[a[i].index()] = b[i];
    }
  }

  encode::Lit operator()(encode::Lit l) const {
    StateVarId sv = 0;
    if (ctx_.miter.eq_assumption_var(l, &sv)) return oracle_.miter.eq_assumption(sv);
    const auto it = macros_.find(l.index());
    EXPECT_NE(it, macros_.end()) << "literal " << l.index() << " is no assumption";
    return it == macros_.end() ? oracle_.miter.cnf().lit_true() : it->second;
  }

private:
  UpecContext& ctx_;
  UpecContext& oracle_;
  std::map<std::int32_t, encode::Lit> macros_;
};

// Alg. 2's unrolled steps k = 1..max_k on `ctx`, swept as run_alg2 sweeps
// them (S_k starts as S_{k-1} and shrinks until its sweep holds). Returns
// each step's assumptions and every structural refutation per frame.
struct Steps {
  std::vector<std::vector<encode::Lit>> assumptions; // [k]
  std::vector<Groups> structural;                    // [k]
};

Steps run_steps(UpecContext& ctx, unsigned max_k) {
  Steps steps;
  steps.assumptions.resize(max_k + 1);
  steps.structural.resize(max_k + 1);
  StateSet s = s_not_victim(ctx.svt);
  const std::vector<StateVarId> s0 = s.to_vector();
  for (unsigned k = 1; k <= max_k; ++k) {
    std::vector<encode::Lit>& as = steps.assumptions[k];
    as = ctx.macros.assumptions(k);
    for (StateVarId sv : s0) as.push_back(ctx.miter.eq_assumption(sv));
    for (unsigned sweep = 0;; ++sweep) {
      const SweepOutcome out = sweep_frame(ctx, as, s, k, true);
      EXPECT_NE(out.status, ipc::CheckStatus::Unknown);
      // Only the first sweep of a step emits, and only from frame 2 on.
      EXPECT_EQ(out.lemmas != 0, k >= 2 && sweep == 0) << "step " << k << " sweep " << sweep;
      steps.structural[k].insert(steps.structural[k].end(), out.unsat_groups.begin(),
                                 out.unsat_groups.begin() + out.structural);
      if (out.s_cex.empty() || out.status == ipc::CheckStatus::Unknown) break;
      s.remove_all(out.s_cex);
    }
  }
  return steps;
}

// The candidates structure alone puts in E_frame (no lemma), as
// refute_structurally's rule defines it.
std::vector<char> cone_equal(encode::Miter& miter, const std::unordered_set<StateVarId>& eq_set,
                             unsigned frame) {
  const std::size_t n = miter.state_vars().size();
  std::vector<char> equal(n, 0);
  for (StateVarId u : eq_set) equal[u] = miter.cnf().is_false(miter.exempt_lit(u));
  for (unsigned j = 1; j <= frame; ++j) {
    std::vector<char> next(n, 0);
    for (StateVarId sv = 0; sv < n; ++sv) {
      const auto& support = miter.structural_support(sv);
      next[sv] = !support.per_instance_input &&
                 std::all_of(support.state.begin(), support.state.end(),
                             [&equal](StateVarId u) { return equal[u] != 0; });
    }
    equal = std::move(next);
  }
  return equal;
}

TEST(FrameLemmas, OracleProvesEveryLemmaAndEveryRefutationThroughOne) {
  soc::SocConfig cfg;
  cfg.pub_ram_words = 2;
  cfg.priv_ram_words = 2;
  const soc::Soc soc = soc::build_pulpissimo(cfg);
  UpecContext ctx(soc, countermeasure_options());
  UpecContext oracle(soc, countermeasure_options());
  constexpr unsigned kMaxK = 3;
  const Steps steps = run_steps(ctx, kMaxK);
  EXPECT_GT(ctx.frame_lemmas, 0u);
  const OracleLits to_oracle(ctx, oracle, kMaxK);
  const std::vector<StateVarId> s0 = s_not_victim(ctx.svt).to_vector();
  const std::unordered_set<StateVarId> eq_set(s0.begin(), s0.end());

  // Every lemma the sweeps at frames 1..3 emitted, one per record of frames
  // 1 and 2 (frame 3's records wait for a fourth step): its core, with a
  // word's exemption assumed false, leaves no bit of the state variable
  // free to differ. The oracle proves each bit without any lemma.
  std::size_t records = 0, word_records = 0, bits = 0;
  for (unsigned j = 1; j < kMaxK; ++j) {
    std::unordered_set<std::int32_t> lits;
    for (encode::Lit l : steps.assumptions[j]) lits.insert(l.index());
    for (StateVarId sv = 0; sv < ctx.svt.size(); ++sv) {
      const FrontierPruner::Justification* just = ctx.pruner.entailed(j, sv, eq_set, lits);
      if (just == nullptr) continue;
      ++records;
      std::vector<encode::Lit> as;
      for (StateVarId u : just->eq_svs) as.push_back(oracle.miter.eq_assumption(u));
      for (encode::Lit l : just->other_lits) as.push_back(to_oracle(l));
      const encode::Lit ex = oracle.miter.exempt_lit(sv);
      if (!oracle.miter.cnf().is_false(ex)) {
        ++word_records;
        as.push_back(~ex);
      }
      const encode::Bits a = oracle.miter.inst_a().state_at(j, sv);
      const encode::Bits b = oracle.miter.inst_b().state_at(j, sv);
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] == b[i]) continue;
        ++bits;
        std::vector<encode::Lit> q = as;
        q.push_back(oracle.miter.cnf().xor2(a[i], b[i]));
        EXPECT_EQ(oracle.scheduler.check(q).status, ipc::CheckStatus::Holds)
            << ctx.svt.name(sv) << " bit " << i << " at frame " << j;
      }
    }
  }
  EXPECT_EQ(records, ctx.frame_lemmas);
  EXPECT_GT(word_records, 0u); // the exempt form is exercised
  EXPECT_GT(bits, records);

  // Every structural refutation at frames 2 and 3 that structure alone does
  // not give rests on a lemma: its core refutes it in the oracle.
  std::size_t through_lemmas = 0;
  for (unsigned k = 2; k <= kMaxK; ++k) {
    const std::vector<char> by_cone = cone_equal(ctx.miter, eq_set, k);
    for (const auto& g : steps.structural[k]) {
      const StateVarId sv = g.enabled.front();
      if (by_cone[sv]) continue;
      ++through_lemmas;
      std::vector<encode::Lit> as;
      for (encode::Lit l : g.core) as.push_back(to_oracle(l));
      as.push_back(oracle.miter.diff_literal(sv, k));
      EXPECT_EQ(oracle.scheduler.check(as).status, ipc::CheckStatus::Holds)
          << ctx.svt.name(sv) << " at frame " << k;
    }
  }
  EXPECT_GT(through_lemmas, 0u);
}

TEST(FrameLemmas, TwoContextsEmitTheSameClauseStream) {
  soc::SocConfig cfg;
  cfg.pub_ram_words = 2;
  cfg.priv_ram_words = 2;
  const soc::Soc soc = soc::build_pulpissimo(cfg);
  Alg2Options opts;
  opts.extract_waveform = false;
  opts.run_closing_induction = false;
  opts.max_k = 3; // lemmas of frames 1 and 2, emitted at steps 2 and 3
  UpecContext first(soc, countermeasure_options());
  const Alg2Result a = run_alg2(first, opts);
  UpecContext second(soc, countermeasure_options());
  const Alg2Result b = run_alg2(second, opts);
  ASSERT_EQ(a.final_k, 3u);
  EXPECT_EQ(b.verdict, a.verdict);
  EXPECT_GT(a.metrics.get("upec.sweep.frame_lemmas"), 0u);
  EXPECT_EQ(b.metrics.get("upec.sweep.frame_lemmas"), a.metrics.get("upec.sweep.frame_lemmas"));
  ASSERT_EQ(b.steps.size(), a.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(b.steps[i].iteration.lemmas, a.steps[i].iteration.lemmas);
  }
  EXPECT_EQ(second.store.num_clauses(), first.store.num_clauses());
  EXPECT_TRUE(clause_stream(second.store) == clause_stream(first.store));
}

} // namespace
} // namespace upec
