// Worker-to-worker learned-clause sharing: the ClauseChannel protocol, the
// InprocBackend wiring, and budget-exhaustion reporting through the
// scheduler.
//
// The determinism side (sharing on/off × thread counts must produce
// bit-identical frontiers) is pinned in test_determinism; this file covers
// the machinery itself.
#include <gtest/gtest.h>

#include "sat/backend.h"
#include "sat/share.h"
#include "sat/snapshot.h"
#include "registry_rows.h"
#include "upec/report.h"

namespace upec {
namespace {

sat::Lit pos(sat::Var v) { return sat::Lit(v, false); }
sat::Lit neg(sat::Var v) { return sat::Lit(v, true); }

// Pigeonhole P into P-1 pushed into a sink (Solver or CnfStore tee).
void add_pigeonhole(sat::ClauseSink& sink, int pigeons) {
  const int holes = pigeons - 1;
  std::vector<std::vector<sat::Var>> x(static_cast<std::size_t>(pigeons));
  for (auto& row : x) {
    for (int h = 0; h < holes; ++h) row.push_back(sink.new_var());
  }
  for (int p = 0; p < pigeons; ++p) {
    std::vector<sat::Lit> c;
    for (int h = 0; h < holes; ++h) c.push_back(pos(x[p][h]));
    sink.add_clause(c);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        sink.add_clause({neg(x[p1][h]), neg(x[p2][h])});
      }
    }
  }
}

TEST(ClauseSharing, ChannelCollectSkipsOwnAndAdvancesCursor) {
  sat::ClauseChannel ch;
  std::vector<sat::SharedClause> out;
  std::size_t cursor0 = 0, cursor1 = 0;
  EXPECT_EQ(ch.collect(0, cursor0, out), 0u);
  EXPECT_TRUE(out.empty());

  ch.publish(0, {pos(1), neg(2)}, 2);
  ch.publish(1, {pos(3)}, 1);
  EXPECT_EQ(ch.published(), 2u);

  // Reader 0 sees only worker 1's clause.
  EXPECT_EQ(ch.collect(0, cursor0, out), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].lits, (std::vector<sat::Lit>{pos(3)}));
  EXPECT_EQ(out[0].lbd, 1u);
  // Cursor advanced: nothing new on a second collect.
  EXPECT_EQ(ch.collect(0, cursor0, out), 0u);
  EXPECT_EQ(out.size(), 1u);

  // Reader 1 starts from scratch and sees only worker 0's clause.
  std::vector<sat::SharedClause> out1;
  EXPECT_EQ(ch.collect(1, cursor1, out1), 1u);
  ASSERT_EQ(out1.size(), 1u);
  EXPECT_EQ(out1[0].lits, (std::vector<sat::Lit>{pos(1), neg(2)}));
  EXPECT_EQ(out1[0].lbd, 2u);

  // A third party (distinct reader id) sees both.
  std::vector<sat::SharedClause> out2;
  std::size_t cursor2 = 0;
  EXPECT_EQ(ch.collect(7, cursor2, out2), 2u);
}

TEST(ClauseSharing, ChannelBytesCoverArenaAndEntries) {
  sat::ClauseChannel ch;
  EXPECT_EQ(ch.bytes(), 0u);  // nothing reserved before the first publish
  ch.publish(0, {pos(1), neg(2), pos(3)}, 2);
  const std::size_t one = ch.bytes();
  EXPECT_GT(one, 3 * sizeof(sat::Lit));  // the three literals plus their entry
  for (int i = 0; i < 64; ++i) ch.publish(1, {pos(4), neg(5)}, 1);
  EXPECT_GE(ch.bytes(), one + 64 * 2 * sizeof(sat::Lit));  // only grows
}

TEST(ClauseSharing, TwoSolversExchangeThroughChannel) {
  // Solver 0 proves a pigeonhole UNSAT and exports its glue clauses; solver 1,
  // loaded with the same formula plus an indicator that keeps it satisfiable,
  // imports them at its restart boundaries and must stay correct.
  sat::ClauseChannel ch;
  sat::Solver a;
  add_pigeonhole(a, 7);
  a.set_export_hook(
      [&](const std::vector<sat::Lit>& lits, unsigned lbd) { ch.publish(0, lits, lbd); },
      ch.lbd_cap(), ch.size_cap());
  EXPECT_FALSE(a.solve());
  EXPECT_GT(a.stats().exported_clauses, 0u);
  EXPECT_EQ(ch.published(), a.stats().exported_clauses);

  sat::Solver b;
  add_pigeonhole(b, 7);
  std::size_t cursor = 0;
  b.set_import_hook([&](std::vector<sat::SharedClause>& out) { ch.collect(1, cursor, out); });
  EXPECT_FALSE(b.solve());
  EXPECT_GT(b.stats().imported_clauses, 0u);
  // Everything worker 0 published is foreign to worker 1; at most that many
  // enter (root-satisfied / simplified-away clauses are not counted).
  EXPECT_LE(b.stats().imported_clauses, ch.published());
}

TEST(ClauseSharing, BackendReportsUnknownOnBudget) {
  sat::CnfStore store;
  add_pigeonhole(store, 9);
  sat::InprocBackend backend(/*conflict_budget=*/5);
  backend.sync(store.snapshot());
  EXPECT_EQ(backend.solve({}), sat::SolveStatus::Unknown);
}

TEST(ClauseSharing, BackendsShareThroughChannelAgainstOneStore) {
  // The scheduler wiring in miniature: two backends over one store and one
  // channel. Backend 0 proves UNSAT first and fills the channel; backend 1
  // then imports real traffic while reproducing the same answer.
  sat::CnfStore store;
  add_pigeonhole(store, 7);
  sat::ClauseChannel ch;
  sat::InprocBackend b0(0, &ch, 0);
  sat::InprocBackend b1(0, &ch, 1);
  b0.sync(store.snapshot());
  b1.sync(store.snapshot());
  EXPECT_EQ(b0.solve({}), sat::SolveStatus::Unsat);
  EXPECT_GT(ch.published(), 0u);
  EXPECT_EQ(b1.solve({}), sat::SolveStatus::Unsat);
  EXPECT_GT(b1.stats().imported_clauses, 0u);
  EXPECT_EQ(b0.stats().imported_clauses, 0u); // nothing foreign existed for b0
}

soc::Soc tiny_soc() {
  soc::SocConfig cfg;
  cfg.pub_ram_words = 8;
  cfg.priv_ram_words = 4;
  return soc::build_pulpissimo(cfg);
}

VerifyOptions budget_options(unsigned threads, bool share) {
  VerifyOptions options;
  options.conflict_budget = 1;
  options.threads = threads;
  options.share_clauses = share;
  return options;
}

TEST(ClauseSharing, BudgetExhaustionReportsUnknownAcrossThreadCounts) {
  // Conflict budget 1 exhausts inside the first sweep: SolverInterrupted →
  // backend Unknown → scheduler Unknown → Verdict::Unknown, identically for
  // every thread count (sharing off keeps even the partial differing lists
  // comparable — import timing cannot perturb who hits the budget first).
  const soc::Soc soc = tiny_soc();
  Alg1Options opts;
  opts.extract_waveform = false;
  const Alg1Result t1 = verify_2cycle(soc, budget_options(1, false), opts);
  ASSERT_EQ(t1.verdict, Verdict::Unknown);
  ASSERT_EQ(t1.iterations.size(), 1u);
  EXPECT_EQ(t1.iterations.back().status, ipc::CheckStatus::Unknown);
  for (unsigned threads : {2u, 4u}) {
    const Alg1Result par = verify_2cycle(soc, budget_options(threads, false), opts);
    EXPECT_EQ(par.verdict, Verdict::Unknown) << threads;
    ASSERT_EQ(par.iterations.size(), t1.iterations.size()) << threads;
    EXPECT_EQ(par.iterations.back().status, ipc::CheckStatus::Unknown) << threads;
  }
}

TEST(ClauseSharing, BudgetExhaustionWithSharingStillUnknown) {
  // With sharing on, which worker trips the budget first may vary, but the
  // headline status cannot: some worker always exhausts it.
  const soc::Soc soc = tiny_soc();
  Alg1Options opts;
  opts.extract_waveform = false;
  const Alg1Result result = verify_2cycle(soc, budget_options(4, true), opts);
  EXPECT_EQ(result.verdict, Verdict::Unknown);
}

TEST(ClauseSharing, SharingProducesTrafficAndConsistentCounters) {
  // The secure workload is UNSAT-heavy, so real traffic must flow, the
  // scheduler's aggregate counters must match the per-worker statistics, and
  // the report must surface the exchange.
  const soc::Soc soc = tiny_soc();
  VerifyOptions options = countermeasure_options();
  options.threads = 4;
  options.share_clauses = true;
  UpecContext ctx(soc, options);
  Alg1Options opts;
  opts.extract_waveform = false;
  const Alg1Result result = run_alg1(ctx, opts);
  EXPECT_EQ(result.verdict, Verdict::Secure);

  const util::MetricsSnapshot& m = result.metrics;
  ASSERT_EQ(worker_rows(m), 4u);
  std::uint64_t exported = 0, imported = 0;
  for (unsigned w = 0; w < 4; ++w) {
    exported += m.get("sat.solver.w" + std::to_string(w) + ".exported_clauses");
    imported += m.get("sat.solver.w" + std::to_string(w) + ".imported_clauses");
  }
  EXPECT_GT(exported, 0u);
  EXPECT_GT(imported, 0u);
  EXPECT_EQ(m.get("sat.solver.total.exported_clauses"), exported);
  EXPECT_EQ(m.get("sat.solver.total.imported_clauses"), imported);
  EXPECT_EQ(m.get("sat.channel.published"), exported);
  // The channel's reserved memory is a gauge beside its traffic counters.
  ASSERT_TRUE(m.has("sat.channel.bytes"));
  EXPECT_EQ(m.entries().at("sat.channel.bytes").kind, util::MetricKind::Gauge);
  EXPECT_GT(m.get("sat.channel.bytes"), 0u);

  const std::string report = render_report(ctx, result);
  EXPECT_NE(report.find("shared clauses"), std::string::npos) << report;
  EXPECT_NE(report.find("exported"), std::string::npos) << report;
}

TEST(ClauseSharing, SharingOffPublishesNothing) {
  const soc::Soc soc = tiny_soc();
  VerifyOptions options = countermeasure_options();
  options.threads = 2;
  options.share_clauses = false;
  UpecContext ctx(soc, options);
  Alg1Options opts;
  opts.extract_waveform = false;
  const Alg1Result result = run_alg1(ctx, opts);
  EXPECT_EQ(result.verdict, Verdict::Secure);
  EXPECT_EQ(result.metrics.get("sat.channel.published"), 0u);
  EXPECT_EQ(result.metrics.get("sat.solver.total.exported_clauses"), 0u);
  EXPECT_EQ(result.metrics.get("sat.solver.total.imported_clauses"), 0u);
  EXPECT_EQ(result.metrics.get("sat.channel.bytes"), 0u);  // no channel at all
}

} // namespace
} // namespace upec
