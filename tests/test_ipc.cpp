// Tests of the IPC layer: bounded checks with symbolic starting states,
// counterexample waveform extraction, the inductive-invariant machinery
// (including the environment-constraint split used by firmware constraints),
// and CheckScheduler's single-check and one-worker policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <thread>

#include "ipc/cex.h"
#include "ipc/invariant.h"
#include "ipc/scheduler.h"
#include "rtlir/builder.h"

namespace upec::ipc {
namespace {

using rtlir::Builder;
using rtlir::Design;
using rtlir::NetId;
using rtlir::RegHandle;

// A saturating counter: counts up to 200 and holds. Reset 0.
struct SatCounter {
  Design d;
  std::uint32_t reg = 0;
  NetId q = rtlir::kNullNet;

  SatCounter() {
    Builder b(d);
    RegHandle r = b.reg("cnt_q", 8);
    const NetId at_max = b.eq_const(r.q, 200);
    b.connect(r, b.mux(at_max, r.q, b.add_const(r.q, 1)));
    reg = r.index;
    q = r.q;
  }
};

TEST(Invariant, InductiveBoundHolds) {
  SatCounter c;
  rtlir::StateVarTable svt(c.d);
  Invariant inv;
  inv.name = "cnt <= 200";
  inv.build = [&](encode::CnfBuilder& cnf, encode::UnrolledInstance& inst, unsigned f) {
    return ~cnf.v_ult(cnf.constant_vec(BitVec(8, 200)), inst.reg_at(f, c.reg));
  };
  EXPECT_EQ(check_inductive(c.d, svt, inv), "");
}

TEST(Invariant, NonInductiveBoundRejectedAtStep) {
  SatCounter c;
  rtlir::StateVarTable svt(c.d);
  Invariant inv;
  inv.name = "cnt <= 100"; // true from reset for a while, but not inductive
  inv.build = [&](encode::CnfBuilder& cnf, encode::UnrolledInstance& inst, unsigned f) {
    return ~cnf.v_ult(cnf.constant_vec(BitVec(8, 100)), inst.reg_at(f, c.reg));
  };
  const std::string err = check_inductive(c.d, svt, inv);
  EXPECT_NE(err.find("not inductive"), std::string::npos) << err;
}

TEST(Invariant, ResetViolationRejectedAtBase) {
  SatCounter c;
  rtlir::StateVarTable svt(c.d);
  Invariant inv;
  inv.name = "cnt >= 1"; // false in reset
  inv.build = [&](encode::CnfBuilder& cnf, encode::UnrolledInstance& inst, unsigned f) {
    return cnf.v_ult(cnf.constant_vec(BitVec(8, 0)), inst.reg_at(f, c.reg));
  };
  const std::string err = check_inductive(c.d, svt, inv);
  EXPECT_NE(err.find("reset state"), std::string::npos) << err;
}

TEST(Invariant, EnvironmentConstraintEnablesInduction) {
  // r' = r | in: "r == 0" is inductive only under the environment constraint
  // "in == 0".
  Design d;
  Builder b(d);
  const NetId in = b.input("in", 8);
  RegHandle r = b.reg("r_q", 8);
  b.connect(r, b.or_(r.q, in));
  rtlir::StateVarTable svt(d);

  Invariant without;
  without.name = "r == 0";
  without.build = [&](encode::CnfBuilder& cnf, encode::UnrolledInstance& inst, unsigned f) {
    return cnf.v_eq(inst.reg_at(f, r.index), cnf.constant_vec(BitVec(8, 0)));
  };
  EXPECT_NE(check_inductive(d, svt, without), "");

  Invariant with = without;
  with.constrain = [&](encode::CnfBuilder& cnf, encode::UnrolledInstance& inst, unsigned f) {
    return cnf.v_eq(inst.input_at(f, 0), cnf.constant_vec(BitVec(8, 0)));
  };
  EXPECT_EQ(check_inductive(d, svt, with), "");
}

TEST(SchedulerCheck, HoldsViolatedAndViolationAny) {
  // Single register copying an input; "r@1 == 0x5A is unreachable" is false.
  Design d;
  Builder b(d);
  const NetId in = b.input("in", 8);
  RegHandle r = b.reg("r_q", 8);
  b.connect(r, in);
  rtlir::StateVarTable svt(d);

  sat::CnfStore store;
  encode::CnfBuilder cnf(store);
  encode::UnrolledInstance inst(cnf, d, svt, "t");
  CheckScheduler scheduler(store, {});

  const encode::Lit is_5a =
      cnf.v_eq(inst.reg_at(1, r.index), cnf.constant_vec(BitVec(8, 0x5A)));

  BoundedProperty reachable;
  reachable.window = 1;
  reachable.violation = make_violation_any(cnf, {is_5a});
  EXPECT_EQ(scheduler.check(reachable.query()).status, CheckStatus::Violated);
  EXPECT_TRUE(scheduler.backend(0).model_value(reachable.violation));

  // An unsatisfiable violation: r@1 equals the input yet differs from it.
  const encode::Lit eq_in = cnf.v_eq(inst.reg_at(1, r.index), inst.input_at(0, 0));
  BoundedProperty impossible;
  impossible.window = 1;
  impossible.assumptions = {is_5a};
  impossible.violation = make_violation_any(cnf, {cnf.and2(eq_in, ~eq_in)});
  const std::vector<encode::Lit> query = impossible.query();
  std::vector<encode::Lit> core;
  EXPECT_EQ(scheduler.check(query, &core).status, CheckStatus::Holds);
  for (encode::Lit l : core) {
    EXPECT_NE(std::find(query.begin(), query.end(), l), query.end()) << "core lit " << l.index();
  }
}

// Pigeonhole P/H whose clauses all carry ~gate: free unless `gate` is
// assumed, then UNSAT only after real search.
encode::Lit gated_pigeonhole(encode::CnfBuilder& cnf, int P, int H) {
  const encode::Lit gate = cnf.fresh();
  std::vector<std::vector<encode::Lit>> x(P);
  for (auto& row : x) row = cnf.fresh_vec(H);
  for (int p = 0; p < P; ++p) {
    std::vector<sat::Lit> c{~gate};
    c.insert(c.end(), x[p].begin(), x[p].end());
    cnf.add_clause(c);
  }
  for (int h = 0; h < H; ++h) {
    for (int p1 = 0; p1 < P; ++p1) {
      for (int p2 = p1 + 1; p2 < P; ++p2) cnf.add_clause({~gate, ~x[p1][h], ~x[p2][h]});
    }
  }
  return gate;
}

TEST(SchedulerCheck, ConflictBudgetReportsUnknown) {
  // Pigeonhole 9/8 wrapped as a property with a tiny budget.
  sat::CnfStore store;
  encode::CnfBuilder cnf(store);
  BoundedProperty prop;
  prop.violation = gated_pigeonhole(cnf, 9, 8);
  SchedulerOptions options;
  options.conflict_budget = 20;
  CheckScheduler scheduler(store, options);
  EXPECT_EQ(scheduler.check(prop.query()).status, CheckStatus::Unknown);
}

// The single-solver rule: a scheduler with one in-proc worker neither
// preprocesses nor shares clauses, and runs its worker inline on the caller.
// Preprocessing at one worker doubled the peak RSS of a fresh Alg. 1 run at
// 4 public words (13.9 MB -> 27.1 MB), and a spawned pool thread cost about
// 30% more setup time.
TEST(SchedulerCheck, OneWorkerRunsInlineWithoutPreprocessing) {
  // A held register: the two miter instances start from independent states,
  // so diff(r) at frame 1 is satisfiable on its own; the gated pigeonhole
  // makes the sweep's query UNSAT only after real search.
  Design d;
  Builder b(d);
  RegHandle r = b.reg("r_q", 8);
  b.connect(r, r.q);
  rtlir::StateVarTable svt(d);
  sat::CnfStore store;
  encode::Miter miter(store, d, svt, encode::MiterOptions{});
  const encode::Lit hard = gated_pigeonhole(miter.cnf(), 7, 6);

  std::mutex mu;
  std::vector<std::thread::id> hook_threads;
  SchedulerOptions options;
  options.threads = 1;
  options.frozen_vars = [&miter] {
    std::vector<sat::Var> vars;
    miter.frozen_vars(vars);
    return vars;
  };
  options.progress_every = 1;
  options.progress = [&](unsigned, const sat::SolverProgress&) {
    std::lock_guard<std::mutex> lock(mu);
    hook_threads.push_back(std::this_thread::get_id());
  };
  CheckScheduler scheduler(store, options);
  EXPECT_FALSE(scheduler.preprocessing());

  const SweepResult result = scheduler.sweep(miter, {hard}, {svt.of_register(r.index)}, 1);
  EXPECT_EQ(result.status, CheckStatus::Holds);
  EXPECT_EQ(scheduler.metrics().get("sat.channel.published"), 0u);
  ASSERT_FALSE(hook_threads.empty());
  for (const std::thread::id& id : hook_threads) EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(SchedulerCheck, TwoWorkersPreprocess) {
  sat::CnfStore store;
  SchedulerOptions options;
  options.threads = 2;
  options.frozen_vars = [] { return std::vector<sat::Var>{}; };
  CheckScheduler scheduler(store, options);
  EXPECT_TRUE(scheduler.preprocessing());
}

TEST(Waveform, DivergenceMarking) {
  SignalTrace tr;
  tr.name = "x";
  tr.inst_a = {1, 2, 3};
  tr.inst_b = {1, 2, 4};
  EXPECT_TRUE(tr.diverges());
  SignalTrace same = tr;
  same.inst_b = tr.inst_a;
  EXPECT_FALSE(same.diverges());

  Waveform wf;
  wf.frames = 2;
  wf.signals = {tr, same};
  const std::string all = wf.pretty(false);
  EXPECT_NE(all.find("3/4*"), std::string::npos);
  const std::string diverging_only = wf.pretty(true);
  EXPECT_NE(diverging_only.find("x"), std::string::npos);
  // Exactly one signal row survives the filter.
  EXPECT_EQ(diverging_only.find("3/4*"), diverging_only.rfind("3/4*"));
}

} // namespace
} // namespace upec::ipc
