// Cross-iteration incremental sweeps: persistent candidate activation
// (Miter::register_candidates / select_candidates) and UNSAT-core frontier
// pruning (upec/incremental.h).
//
// The determinism side (frontiers bit-identical across thread counts and
// equal to a direct-diff reference) is pinned in test_determinism; this
// file covers the machinery itself plus the end-to-end work-avoidance
// effects.
#include <gtest/gtest.h>

#include <string>

#include "upec/report.h"
#include "upec/sweep.h"

namespace upec {
namespace {

sat::Lit pos(sat::Var v) { return sat::Lit(v, false); }

// One query through the context's scheduler: true iff satisfiable.
bool solve(UpecContext& ctx, const std::vector<encode::Lit>& as) {
  return ctx.scheduler.check(as).status == ipc::CheckStatus::Violated;
}

soc::Soc tiny_soc() {
  soc::SocConfig cfg;
  cfg.pub_ram_words = 8;
  cfg.priv_ram_words = 4;
  return soc::build_pulpissimo(cfg);
}

// -------------------------------------------------------------- FrontierPruner

TEST(IncrementalSweeps, PrunerFiltersOnlyWithEntailedJustification) {
  FrontierPruner pruner;
  FrontierPruner::Justification just;
  just.eq_svs = {1, 2};
  just.other_lits = {pos(40)};
  pruner.record(1, {5, 7}, std::move(just));

  const std::vector<rtlir::StateVarId> members = {5, 6, 7};
  std::vector<rtlir::StateVarId> eligible, pruned;

  // Full justification present: 5 and 7 pruned, unjustified 6 stays.
  pruner.filter(1, members, {1, 2, 3}, {pos(40).index()}, eligible, pruned);
  EXPECT_EQ(pruned, (std::vector<rtlir::StateVarId>{5, 7}));
  EXPECT_EQ(eligible, (std::vector<rtlir::StateVarId>{6}));

  // An eq dependency left the assumed set: nothing fires.
  pruner.filter(1, members, {1, 3}, {pos(40).index()}, eligible, pruned);
  EXPECT_TRUE(pruned.empty());
  EXPECT_EQ(eligible, members);

  // A macro dependency missing from the assumptions: nothing fires.
  pruner.filter(1, members, {1, 2}, {}, eligible, pruned);
  EXPECT_TRUE(pruned.empty());

  // A different frame has no records.
  pruner.filter(2, members, {1, 2}, {pos(40).index()}, eligible, pruned);
  EXPECT_TRUE(pruned.empty());

  EXPECT_EQ(pruner.total_pruned(), 2u);
}

// ------------------------------------------- persistent candidate activation

TEST(IncrementalSweeps, ActivationSelectionMatchesDirectDiffQueries) {
  const soc::Soc soc = tiny_soc();
  UpecContext ctx(soc);
  const std::vector<rtlir::StateVarId> candidates = ctx.s_pers.to_vector();
  ASSERT_GE(candidates.size(), 2u);
  constexpr unsigned kFrame = 1;
  ctx.miter.register_candidates(candidates, kFrame);

  // Empty selection closes the whole group disjunction: UNSAT.
  std::vector<encode::Lit> as;
  ctx.miter.select_candidates(kFrame, {}, as);
  EXPECT_FALSE(solve(ctx, as));

  // Per-candidate selection answers exactly like assuming the diff literal.
  for (rtlir::StateVarId sv : candidates) {
    const bool direct = solve(ctx, {ctx.miter.diff_literal(sv, kFrame)});
    as.clear();
    ctx.miter.select_candidates(kFrame, {sv}, as);
    EXPECT_EQ(solve(ctx, as), direct) << "sv " << sv;
  }

  // Late registration extends the chain without re-encoding old members.
  const std::vector<rtlir::StateVarId> all = s_not_victim(ctx.svt).to_vector();
  ASSERT_GT(all.size(), candidates.size());
  ctx.miter.register_candidates(all, kFrame);
  as.clear();
  ctx.miter.select_candidates(kFrame, {}, as);
  EXPECT_FALSE(solve(ctx, as));
  as.clear();
  ctx.miter.select_candidates(kFrame, all, as);
  EXPECT_TRUE(solve(ctx, as));
}

TEST(IncrementalSweeps, SchedulerSweepsStopGrowingTheStore) {
  // The first sweep registers the candidates; repeated sweeps are pure
  // assumption selection — zero store growth — and reach the same semantic
  // answer.
  const soc::Soc soc = tiny_soc();
  VerifyOptions options = countermeasure_options();
  options.threads = 2;
  UpecContext ctx(soc, options);

  const StateSet S = s_not_victim(ctx.svt);
  std::vector<encode::Lit> assumptions = ctx.macros.assumptions(1);
  for (rtlir::StateVarId sv : S.to_vector()) {
    assumptions.push_back(ctx.miter.eq_assumption(sv));
  }

  const ipc::SweepResult r1 = ctx.scheduler.sweep(ctx.miter, assumptions, S.to_vector(), 1);
  const int n1 = ctx.store.num_vars();
  const std::uint64_t retained1 = ctx.scheduler.metrics().get("upec.sweep.retained_learnts");
  const ipc::SweepResult r2 = ctx.scheduler.sweep(ctx.miter, assumptions, S.to_vector(), 1);
  const int n2 = ctx.store.num_vars();
  const std::uint64_t retained2 = ctx.scheduler.metrics().get("upec.sweep.retained_learnts");

  EXPECT_EQ(r1.status, r2.status);
  EXPECT_EQ(r1.differing, r2.differing);
  EXPECT_EQ(n2, n1) << "second sweep must not grow the store";
  EXPECT_FALSE(r1.unsat_groups.empty());
  for (const auto& g : r1.unsat_groups) {
    // Cores are subsets of what was assumed (selectors included).
    EXPECT_FALSE(g.enabled.empty());
  }
  EXPECT_GT(retained2 + retained1, 0u);
}

// ----------------------------------------------------------------- end to end

TEST(IncrementalSweeps, RerunSeededWithFinalSIsFullyPruned) {
  // After a secure Alg. 1 run, every member of the final inductive S carries
  // a refutation core whose eq dependencies lie inside S itself. Re-running
  // seeded with that S must therefore prune the entire frontier up front and
  // conclude Secure without a single solver conflict.
  const soc::Soc soc = tiny_soc();
  UpecContext ctx(soc, countermeasure_options());
  Alg1Options opts;
  opts.extract_waveform = false;

  const Alg1Result r1 = run_alg1(ctx, opts);
  ASSERT_EQ(r1.verdict, Verdict::Secure);

  Alg1Options rerun = opts;
  rerun.initial_s = r1.final_s;
  const Alg1Result r2 = run_alg1(ctx, rerun);
  EXPECT_EQ(r2.verdict, Verdict::Secure);
  ASSERT_EQ(r2.iterations.size(), 1u);
  EXPECT_EQ(r2.iterations[0].pruned, r1.final_s.size());
  EXPECT_EQ(r2.iterations[0].conflicts, 0u);
  EXPECT_TRUE(r2.final_s == r1.final_s);
  EXPECT_GT(r2.metrics.get("upec.sweep.pruned_candidates"), 0u);

  const std::string report = render_report(ctx, r2);
  EXPECT_NE(report.find("frontier pruning:"), std::string::npos) << report;
  EXPECT_NE(report.find("pruned"), std::string::npos) << report;
}

} // namespace
} // namespace upec
