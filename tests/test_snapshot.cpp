// The shared clause database under the multi-solver architecture:
// CnfStore/CnfSnapshot recording + hydration, the InprocBackend sync
// protocol, and the snapshot DIMACS export of a full
// miter encoding (round-tripped through read_dimacs and cross-checked
// against an in-process solve of the same query).
#include <gtest/gtest.h>

#include <sstream>

#include "encode/miter.h"
#include "rtlir/builder.h"
#include "sat/backend.h"
#include "sat/dimacs.h"
#include "sat/snapshot.h"

namespace upec {
namespace {

using sat::Lit;
using sat::Var;

TEST(CnfStore, RecordsVarsAndClauses) {
  sat::CnfStore store;
  const Var a = store.new_var();
  const Var b = store.new_var();
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(store.num_vars(), 2);
  EXPECT_TRUE(store.add_clause(Lit(a, false), Lit(b, true)));
  store.add_clause(Lit(b, false));
  EXPECT_EQ(store.num_clauses(), 2u);

  std::vector<std::vector<Lit>> seen;
  store.snapshot().for_each_clause([&](const std::vector<Lit>& c) { seen.push_back(c); });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::vector<Lit>{Lit(a, false), Lit(b, true)}));
  EXPECT_EQ(seen[1], (std::vector<Lit>{Lit(b, false)}));
}

TEST(CnfSnapshot, BoundsAreImmutableWhileStoreGrows) {
  sat::CnfStore store;
  const Var a = store.new_var();
  store.add_clause(Lit(a, false));
  const sat::CnfSnapshot snap = store.snapshot();

  const Var b = store.new_var();
  store.add_clause(Lit(b, true));
  EXPECT_EQ(snap.num_vars(), 1);
  EXPECT_EQ(snap.num_clauses(), 1u);
  EXPECT_EQ(store.num_vars(), 2);
  EXPECT_EQ(store.num_clauses(), 2u);

  sat::Solver solver;
  snap.load_into(solver);
  EXPECT_EQ(solver.num_vars(), 1);
}

TEST(CnfSnapshot, CursorReplaysOnlyTheDelta) {
  sat::CnfStore store;
  const Var a = store.new_var();
  const Var b = store.new_var();
  store.add_clause(Lit(a, false), Lit(b, false));

  sat::Solver solver;
  sat::CnfSnapshot::Cursor cursor;
  EXPECT_TRUE(store.snapshot().load_into(solver, cursor));
  EXPECT_EQ(solver.num_vars(), 2);
  EXPECT_TRUE(solver.solve({}));

  // Grow the store; a second sync must only replay the new suffix (the
  // cursor-advanced solver would go inconsistent if clauses were replayed
  // twice into freshly created duplicate variables).
  const Var c = store.new_var();
  store.add_clause(Lit(c, false));
  store.add_clause(Lit(a, true));
  EXPECT_TRUE(store.snapshot().load_into(solver, cursor));
  EXPECT_EQ(solver.num_vars(), 3);
  EXPECT_EQ(cursor.clauses, 3u);
  ASSERT_TRUE(solver.solve({}));
  EXPECT_FALSE(solver.model_value(a));
  EXPECT_TRUE(solver.model_value(b));
  EXPECT_TRUE(solver.model_value(c));
}

TEST(InprocBackend, SyncSolveAndModel) {
  sat::CnfStore store;
  const Var a = store.new_var();
  const Var b = store.new_var();
  store.add_clause(Lit(a, false), Lit(b, false));

  sat::InprocBackend backend;
  backend.sync(store.snapshot());
  EXPECT_EQ(backend.solve({Lit(a, true)}), sat::SolveStatus::Sat);
  EXPECT_TRUE(backend.model_value(Lit(b, false)));

  store.add_clause(Lit(b, true));
  backend.sync(store.snapshot());
  EXPECT_EQ(backend.solve({Lit(a, true)}), sat::SolveStatus::Unsat);
  EXPECT_GE(backend.stats().solve_calls, 2u);
}

// A two-register pipeline a_q <- x, b_q <- a_q, encoded as a miter into a
// pure CnfStore (no solver anywhere during encoding).
struct PipelineMiter {
  rtlir::Design design;
  std::unique_ptr<rtlir::StateVarTable> svt;
  sat::CnfStore store;
  std::unique_ptr<encode::Miter> miter;
  rtlir::StateVarId a_sv, b_sv;

  PipelineMiter() {
    rtlir::Builder b(design);
    const rtlir::NetId x = b.input("x", 1);
    const rtlir::RegHandle ra = b.reg("a_q", 1);
    const rtlir::RegHandle rb = b.reg("b_q", 1);
    b.connect(ra, x);
    b.connect(rb, ra.q);
    svt = std::make_unique<rtlir::StateVarTable>(design);
    a_sv = svt->of_register(ra.index);
    b_sv = svt->of_register(rb.index);
    miter = std::make_unique<encode::Miter>(store, design, *svt, encode::MiterOptions{});
  }
};

TEST(SnapshotDimacs, MiterExportRoundTripsAndAgreesWithInprocSolve) {
  PipelineMiter pm;
  // b_q at frame 1 is a_q at frame 0: it can differ across the instances
  // unless a_q is assumed equal.
  const Lit eq_a = pm.miter->eq_assumption(pm.a_sv);
  const Lit diff_b = pm.miter->diff_literal(pm.b_sv, 1);
  const sat::CnfSnapshot snap = pm.store.snapshot();

  const std::vector<std::vector<Lit>> queries = {
      {diff_b},        // SAT: frame-0 a_q unconstrained
      {eq_a, diff_b},  // UNSAT: a_q equal forces b_q equal at frame 1
  };
  for (const std::vector<Lit>& assumptions : queries) {
    // Reference answer: a solver hydrated straight from the snapshot.
    sat::Solver direct;
    ASSERT_TRUE(snap.load_into(direct));
    const bool expect_sat = direct.solve(assumptions);

    // DIMACS round trip with the assumptions frozen as unit clauses.
    std::ostringstream os;
    sat::write_dimacs(os, snap, assumptions);
    std::istringstream is(os.str());
    sat::Solver reread;
    ASSERT_TRUE(sat::read_dimacs(is, reread)) << os.str();
    EXPECT_EQ(reread.num_vars(), snap.num_vars());
    EXPECT_EQ(reread.okay() && reread.solve({}), expect_sat);
  }
}

TEST(SnapshotDimacs, HeaderCountsMatchBody) {
  PipelineMiter pm;
  pm.miter->diff_literal(pm.b_sv, 1);
  const sat::CnfSnapshot snap = pm.store.snapshot();
  std::ostringstream os;
  sat::write_dimacs(os, snap);

  std::istringstream is(os.str());
  std::string p, cnf;
  long vars = 0, clauses = 0;
  ASSERT_TRUE(is >> p >> cnf >> vars >> clauses);
  EXPECT_EQ(p, "p");
  EXPECT_EQ(vars, snap.num_vars());
  EXPECT_EQ(clauses, static_cast<long>(snap.num_clauses()));
}

} // namespace
} // namespace upec
