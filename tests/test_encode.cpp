// Cross-validation of the CNF encoder against the concrete simulator: for
// random circuits and random stimuli, the bit-blasted unrolling must agree
// with cycle-accurate evaluation. This pins down that the formal engine and
// the attack-simulation engine see the same hardware semantics.
#include <gtest/gtest.h>
#include "sat/solver.h"

#include "encode/coi.h"
#include "encode/miter.h"
#include "encode/unroller.h"
#include "rtlir/builder.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace upec::encode {
namespace {

using rtlir::Builder;
using rtlir::Design;
using rtlir::MemHandle;
using rtlir::NetId;
using rtlir::RegHandle;

// Constrain an input image to a concrete value.
void fix_input(sat::Solver& s, CnfBuilder& cnf, const Bits& image, std::uint64_t value) {
  for (std::size_t i = 0; i < image.size(); ++i) {
    s.add_clause((value >> i) & 1 ? image[i] : ~image[i]);
  }
}

std::uint64_t model_of(const sat::Solver& s, const Bits& image) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < image.size(); ++i) {
    if (s.model_value(image[i])) v |= 1ull << i;
  }
  return v;
}

TEST(Unroller, CombinationalOpsMatchSimulator) {
  Design d;
  Builder b(d);
  const NetId x = b.input("x", 8);
  const NetId y = b.input("y", 8);
  const NetId sh = b.input("sh", 4);

  std::vector<NetId> probes = {
      b.add(x, y),       b.sub(x, y),     b.and_(x, y),   b.or_(x, y),  b.xor_(x, y),
      b.not_(x),         b.eq(x, y),      b.ult(x, y),    b.ule(x, y),  b.shl(x, sh),
      b.lshr(x, sh),     b.concat(x, y),  b.slice(x, 6, 2), b.zext(x, 14), b.red_or(x),
      b.red_and(x),      b.mux(b.bit(x, 0), x, y),
  };

  rtlir::StateVarTable svt(d);
  Xoshiro256 rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    const std::uint64_t vx = rng.below(256), vy = rng.below(256), vsh = rng.below(16);

    sim::Simulator simulator(d);
    simulator.set_input("x", vx);
    simulator.set_input("y", vy);
    simulator.set_input("sh", vsh);

    sat::Solver solver;
    CnfBuilder cnf(solver);
    UnrolledInstance inst(cnf, d, svt, "t");
    // Touch all probe images, then fix inputs and solve.
    std::vector<Bits> images;
    for (NetId p : probes) images.push_back(inst.net_at(0, p));
    fix_input(solver, cnf, inst.input_at(0, 0), vx);
    fix_input(solver, cnf, inst.input_at(0, 1), vy);
    fix_input(solver, cnf, inst.input_at(0, 2), vsh);
    ASSERT_TRUE(solver.solve());

    for (std::size_t i = 0; i < probes.size(); ++i) {
      EXPECT_EQ(model_of(solver, images[i]), simulator.value(probes[i]))
          << "probe " << i << " trial " << trial;
    }
  }
}

// A small sequential design: accumulator + memory, unrolled k cycles, checked
// against the simulator from a known starting state.
TEST(Unroller, SequentialUnrollingMatchesSimulator) {
  Design d;
  Builder b(d);
  const NetId in = b.input("in", 8);
  const NetId wen = b.input("wen", 1);
  const RegHandle acc = b.reg("acc_q", 8);
  b.connect(acc, b.add(acc.q, in));
  const MemHandle mem = b.memory("m", 4, 8);
  const NetId addr = b.slice(acc.q, 1, 0);
  b.mem_write(mem, addr, b.xor_(acc.q, in), wen);
  const NetId rd = b.mem_read(mem, addr);
  const NetId probe = b.add(rd, acc.q);

  rtlir::StateVarTable svt(d);
  Xoshiro256 rng(123);

  constexpr unsigned K = 5;
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::uint64_t> ins(K), wens(K);
    for (unsigned k = 0; k < K; ++k) {
      ins[k] = rng.below(256);
      wens[k] = rng.below(2);
    }

    sim::Simulator simulator(d);
    // Randomize starting state, mirroring it into the CNF below.
    const std::uint64_t acc0 = rng.below(256);
    std::vector<std::uint64_t> mem0(4);
    simulator.set_reg(acc.index, acc0);
    for (unsigned w = 0; w < 4; ++w) {
      mem0[w] = rng.below(256);
      simulator.set_mem_word(mem.index, w, mem0[w]);
    }

    sat::Solver solver;
    CnfBuilder cnf(solver);
    UnrolledInstance inst(cnf, d, svt, "t");

    std::vector<Bits> probe_images;
    for (unsigned k = 0; k <= K; ++k) probe_images.push_back(inst.net_at(k, probe));
    // Pin the symbolic start and all inputs.
    fix_input(solver, cnf, inst.reg_at(0, acc.index), acc0);
    for (unsigned w = 0; w < 4; ++w) {
      fix_input(solver, cnf, inst.mem_word_at(0, mem.index, w), mem0[w]);
    }
    for (unsigned k = 0; k < K; ++k) {
      fix_input(solver, cnf, inst.input_at(k, 0), ins[k]);
      fix_input(solver, cnf, inst.input_at(k, 1), wens[k]);
    }
    ASSERT_TRUE(solver.solve());

    for (unsigned k = 0; k <= K; ++k) {
      simulator.set_input("in", ins[k < K ? k : K - 1]);
      simulator.set_input("wen", wens[k < K ? k : K - 1]);
      EXPECT_EQ(model_of(solver, probe_images[k]), simulator.value(probe))
          << "frame " << k << " trial " << trial;
      if (k < K) simulator.step();
    }
  }
}

TEST(Unroller, StableInputsSharedAcrossFrames) {
  Design d;
  Builder b(d);
  b.input("stable_cfg", 8, /*stable=*/true);
  b.input("free", 8);
  rtlir::StateVarTable svt(d);

  sat::Solver solver;
  CnfBuilder cnf(solver);
  UnrolledInstance inst(cnf, d, svt, "t");
  EXPECT_EQ(inst.input_at(0, 0), inst.input_at(3, 0)) << "stable input: one image";
  EXPECT_NE(inst.input_at(0, 1), inst.input_at(3, 1)) << "free input: fresh per frame";
}

TEST(Unroller, SymbolicStartAllowsAllStates) {
  // From a symbolic starting state, any register value must be reachable at
  // frame 0 — this is the IPC "all histories" property.
  Design d;
  Builder b(d);
  const RegHandle r = b.reg("r_q", 8, /*reset=*/0);
  b.connect(r, b.add_const(r.q, 1));
  rtlir::StateVarTable svt(d);

  sat::Solver solver;
  CnfBuilder cnf(solver);
  UnrolledInstance inst(cnf, d, svt, "t");
  const Bits r0 = inst.reg_at(0, r.index);
  fix_input(solver, cnf, r0, 0xAB);
  ASSERT_TRUE(solver.solve());
  // And the successor is forced by the transition relation.
  const Bits r1 = inst.reg_at(1, r.index);
  ASSERT_TRUE(solver.solve());
  EXPECT_EQ(model_of(solver, r1), 0xACu);
}

TEST(Miter, SharedInputsEnforceEquality) {
  Design d;
  Builder b(d);
  const NetId shared_in = b.input("pad", 8);
  const NetId cpu_in = b.input("cpu.data", 8);
  const RegHandle r = b.reg("r_q", 8);
  b.connect(r, b.add(shared_in, cpu_in));
  rtlir::StateVarTable svt(d);

  sat::Solver solver;
  MiterOptions opts;
  opts.per_instance = [](const std::string& name) { return name.rfind("cpu.", 0) == 0; };
  Miter miter(solver, d, svt, opts);

  // Shared input: the same literals; per-instance input: distinct.
  EXPECT_EQ(miter.inst_a().input_at(0, 0), miter.inst_b().input_at(0, 0));
  EXPECT_NE(miter.inst_a().input_at(0, 1), miter.inst_b().input_at(0, 1));
}

TEST(Miter, EqAssumptionForcesEquality) {
  Design d;
  Builder b(d);
  const NetId in = b.input("cpu.in", 8);
  const RegHandle r = b.reg("r_q", 8);
  b.connect(r, b.add(r.q, in));
  rtlir::StateVarTable svt(d);

  sat::Solver solver;
  MiterOptions opts;
  opts.per_instance = [](const std::string& name) { return name.rfind("cpu.", 0) == 0; };
  Miter miter(solver, d, svt, opts);

  const rtlir::StateVarId sv = svt.of_register(r.index);
  const Lit eq = miter.eq_assumption(sv);
  const Lit diff0 = miter.diff_literal(sv, 0);
  // Equal at 0 and different at 0 is contradictory.
  EXPECT_FALSE(solver.solve({eq, diff0}));
  // Different next state is reachable via differing per-instance inputs.
  const Lit diff1 = miter.diff_literal(sv, 1);
  ASSERT_TRUE(solver.solve({eq, diff1}));
  EXPECT_TRUE(miter.differs_in_model(sv, 1));
  EXPECT_FALSE(miter.differs_in_model(sv, 0));
}

TEST(Coi, TwoCycleConeIsSmall) {
  // Chain of registers: a 2-cycle property on the head only reaches 2 stages.
  Design d;
  Builder b(d);
  const NetId in = b.input("in", 4);
  NetId cur = in;
  std::vector<RegHandle> regs;
  for (int i = 0; i < 10; ++i) {
    RegHandle r = b.reg("r" + std::to_string(i) + "_q", 4);
    b.connect(r, cur);
    regs.push_back(r);
    cur = r.q;
  }
  rtlir::StateVarTable svt(d);
  const auto coi = cone_of_influence(d, svt, {regs[9].q}, 2);
  // Reaches r9 (root), r8, r7 — exactly three state variables.
  EXPECT_EQ(coi.state_vars.size(), 3u);
  EXPECT_LT(coi.reachable_nets, d.num_nets());
}

} // namespace
} // namespace upec::encode
