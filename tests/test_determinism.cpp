// Multi-threaded verification must be bit-identical to single-threaded.
//
// The scheduler's guarantee (ipc/scheduler.h): the per-iteration
// counterexample sets are semantic — {sv : diff(sv) satisfiable} — so
// verdicts, iteration shapes, leaking-variable sets and frame counts cannot
// depend on the thread count, worker partition, or CDCL model order. These
// tests pin that contract on both headline workloads (vulnerable baseline,
// secure countermeasure) for Alg. 1 and Alg. 2.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "registry_rows.h"
#include "upec/report.h"

namespace upec {
namespace {

soc::Soc small_soc() {
  soc::SocConfig cfg;
  cfg.pub_ram_words = 16;
  cfg.priv_ram_words = 8;
  return soc::build_pulpissimo(cfg);
}

VerifyOptions with_threads(VerifyOptions options, unsigned threads) {
  options.threads = threads;
  return options;
}

VerifyOptions with_sharing(VerifyOptions options, unsigned threads, bool share) {
  options.threads = threads;
  options.share_clauses = share;
  return options;
}

// S_pers restricted to the Sec 4.1 scenario (accelerator + public memory),
// mirroring test_upec.
VerifyOptions hwpe_scenario_options(const soc::Soc& soc) {
  VerifyOptions options;
  auto svt = std::make_shared<rtlir::StateVarTable>(*soc.design);
  options.s_pers_filter = [svt](rtlir::StateVarId sv) {
    const std::string name = svt->name(sv);
    return name.find(".hwpe.") != std::string::npos ||
           name.find("pub_ram.mem[") != std::string::npos;
  };
  return options;
}

void expect_same_alg1(const Alg1Result& seq, const Alg1Result& par) {
  EXPECT_EQ(seq.verdict, par.verdict);
  ASSERT_EQ(seq.iterations.size(), par.iterations.size());
  for (std::size_t i = 0; i < seq.iterations.size(); ++i) {
    const IterationLog& a = seq.iterations[i];
    const IterationLog& b = par.iterations[i];
    EXPECT_EQ(a.s_size, b.s_size) << "iteration " << i;
    EXPECT_EQ(a.cex_size, b.cex_size) << "iteration " << i;
    EXPECT_EQ(a.pers_hits, b.pers_hits) << "iteration " << i;
    EXPECT_EQ(a.status, b.status) << "iteration " << i;
    EXPECT_EQ(a.removed, b.removed) << "iteration " << i;  // sorted in both modes
  }
  EXPECT_EQ(seq.persistent_hits, par.persistent_hits);
  EXPECT_EQ(seq.full_cex, par.full_cex);
  EXPECT_EQ(seq.final_s == par.final_s, true);
  EXPECT_EQ(seq.waveform.has_value(), par.waveform.has_value());
}

TEST(Determinism, VulnerableAlg1IdenticalAcrossThreadCounts) {
  const soc::Soc soc = small_soc();
  const Alg1Result seq = verify_2cycle(soc, with_threads({}, 1));
  const Alg1Result par = verify_2cycle(soc, with_threads({}, 4));
  ASSERT_EQ(seq.verdict, Verdict::Vulnerable);
  expect_same_alg1(seq, par);
  EXPECT_EQ(worker_rows(seq.metrics), 1u);
  EXPECT_EQ(worker_rows(par.metrics), 4u);
}

TEST(Determinism, SecureAlg1IdenticalAcrossThreadCounts) {
  const soc::Soc soc = small_soc();
  const Alg1Result seq = verify_2cycle(soc, with_threads(countermeasure_options(), 1));
  const Alg1Result par = verify_2cycle(soc, with_threads(countermeasure_options(), 4));
  ASSERT_EQ(seq.verdict, Verdict::Secure);
  expect_same_alg1(seq, par);
}

TEST(Determinism, SecureAlg1AlsoMatchesOddThreadCount) {
  // The partition (round-robin over W chunks) must not leak into results:
  // W=3 splits every iteration differently than W=4 yet must agree.
  const soc::Soc soc = small_soc();
  const Alg1Result a = verify_2cycle(soc, with_threads(countermeasure_options(), 3));
  const Alg1Result b = verify_2cycle(soc, with_threads(countermeasure_options(), 4));
  expect_same_alg1(a, b);
}

TEST(Determinism, SecureClauseSharingToggleIdenticalAcrossThreadCounts) {
  // Imported clauses are implied by the shared store, so toggling sharing —
  // and the thread count with it — can change how fast each chunk's verdict
  // is reached, never which verdict. The secure workload is the UNSAT-heavy
  // one where sharing actually moves the search around.
  const soc::Soc soc = small_soc();
  const Alg1Result seq = verify_2cycle(soc, with_sharing(countermeasure_options(), 1, false));
  ASSERT_EQ(seq.verdict, Verdict::Secure);
  for (unsigned threads : {3u, 4u}) {
    for (bool share : {false, true}) {
      const Alg1Result par =
          verify_2cycle(soc, with_sharing(countermeasure_options(), threads, share));
      SCOPED_TRACE("threads=" + std::to_string(threads) + " share=" + std::to_string(share));
      expect_same_alg1(seq, par);
    }
  }
}

TEST(Determinism, VulnerableClauseSharingToggleIdentical) {
  // Same toggle on the vulnerable baseline: the saturated counterexample
  // frontiers (SAT-side harvesting) must not react to sharing either.
  const soc::Soc soc = small_soc();
  Alg1Options opts;
  opts.extract_waveform = false;
  const Alg1Result seq = verify_2cycle(soc, with_sharing({}, 1, false), opts);
  ASSERT_EQ(seq.verdict, Verdict::Vulnerable);
  for (bool share : {false, true}) {
    const Alg1Result par = verify_2cycle(soc, with_sharing({}, 4, share), opts);
    SCOPED_TRACE(share ? "sharing on" : "sharing off");
    expect_same_alg1(seq, par);
  }
}

// Independent per-candidate reference for Alg. 1 frontiers. Rebuilds each
// iteration's S_i from the recorded removals, loads a fresh solver from the
// run's clause store, and asks for every sv in S_i whether diff(sv) is
// satisfiable under the macro and eq assumptions — the diff literal assumed
// directly: no activation literal, core pruning, scheduler or model harvest.
// Each iteration's `removed` set must be exactly that SAT set.
void expect_matches_direct_reference(const soc::Soc& soc, const VerifyOptions& options,
                                     Verdict expected) {
  UpecContext ctx(soc, options);
  Alg1Options opts;
  opts.extract_waveform = false;
  const Alg1Result result = run_alg1(ctx, opts);
  ASSERT_EQ(result.verdict, expected);

  // Encode every query's literals before the snapshot (all already exist
  // after the run, so this only looks them up).
  struct Query {
    std::vector<encode::Lit> assumptions;
    std::vector<std::pair<rtlir::StateVarId, encode::Lit>> diffs;
  };
  std::vector<Query> queries;
  StateSet S = s_not_victim(ctx.svt);
  for (const IterationLog& log : result.iterations) {
    Query q;
    q.assumptions = ctx.macros.assumptions(1);
    for (rtlir::StateVarId sv : S.to_vector()) {
      q.assumptions.push_back(ctx.miter.eq_assumption(sv));
      q.diffs.emplace_back(sv, ctx.miter.diff_literal(sv, 1));
    }
    queries.push_back(std::move(q));
    S.remove_all(log.removed);
  }

  sat::Solver solver;
  ASSERT_TRUE(ctx.store.snapshot().load_into(solver));
  for (std::size_t i = 0; i < queries.size(); ++i) {
    std::vector<rtlir::StateVarId> sat_set;
    for (const auto& [sv, diff] : queries[i].diffs) {
      std::vector<encode::Lit> as = queries[i].assumptions;
      as.push_back(diff);
      if (solver.solve(as)) sat_set.push_back(sv);
    }
    EXPECT_EQ(result.iterations[i].removed, sat_set) << "iteration " << i;
  }
}

// Incremental sweeps (activation literals, core pruning, scheduler) against
// the direct-diff reference, at one and four threads.
TEST(Determinism, SecureIncrementalToggleIdenticalAcrossThreadCounts) {
  const soc::Soc soc = small_soc();
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_matches_direct_reference(soc, with_threads(countermeasure_options(), threads),
                                    Verdict::Secure);
  }
}

TEST(Determinism, VulnerableIncrementalToggleIdentical) {
  const soc::Soc soc = small_soc();
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_matches_direct_reference(soc, with_threads({}, threads), Verdict::Vulnerable);
  }
}

VerifyOptions with_preprocess(VerifyOptions options, unsigned threads, bool preprocess) {
  options.threads = threads;
  options.preprocess = preprocess;
  return options;
}

TEST(Determinism, SecurePreprocessToggleIdenticalAcrossThreadCounts) {
  // Snapshot preprocessing rewrites only what workers hydrate, under the
  // frozen-variable contract: every assumed or harvested literal survives
  // verbatim and all other rewriting is consequence-only. Frontiers and
  // verdicts therefore cannot react to the toggle or the thread count. The
  // single-solver run (threads = 1, preprocessing inert) is the
  // baseline the whole matrix must match.
  const soc::Soc soc = small_soc();
  const Alg1Result seq = verify_2cycle(soc, with_preprocess(countermeasure_options(), 1, false));
  ASSERT_EQ(seq.verdict, Verdict::Secure);
  for (unsigned threads : {1u, 3u, 4u}) {
    for (bool preprocess : {false, true}) {
      const Alg1Result par =
          verify_2cycle(soc, with_preprocess(countermeasure_options(), threads, preprocess));
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " preprocess=" + std::to_string(preprocess));
      expect_same_alg1(seq, par);
      if (preprocess && threads > 1) {
        // The simplifier really ran, shrank the formula, and never touched a
        // frozen variable (the soundness tripwire).
        const util::MetricsSnapshot& m = par.metrics;
        EXPECT_GE(m.get("sat.simplify.runs"), 1u);
        EXPECT_GT(m.get("sat.simplify.eliminated_vars"), 0u);
        EXPECT_EQ(m.get("sat.simplify.frozen_eliminations"), 0u);
        EXPECT_LT(m.get("sat.simplify.output_clauses"), m.get("sat.simplify.input_clauses"));
        EXPECT_GT(m.get("sat.simplify.db_bytes"), 0u);
        EXPECT_GT(m.get("sat.simplify.elim_bytes"), 0u);
      } else if (threads == 1) {
        EXPECT_EQ(par.metrics.get("sat.simplify.runs"), 0u);  // no fan-out, no preprocessing
        EXPECT_EQ(par.metrics.get("sat.simplify.db_bytes"), 0u);
      }
    }
  }
}

TEST(Determinism, VulnerablePreprocessToggleIdentical) {
  // Same toggle on the vulnerable baseline: SAT-side counterexample
  // harvesting reads frozen diff literals only, so saturated frontiers must
  // not react to which model the simplified search happens to find.
  const soc::Soc soc = small_soc();
  Alg1Options opts;
  opts.extract_waveform = false;
  const Alg1Result seq = verify_2cycle(soc, with_preprocess({}, 1, false), opts);
  ASSERT_EQ(seq.verdict, Verdict::Vulnerable);
  for (unsigned threads : {1u, 4u}) {
    for (bool preprocess : {false, true}) {
      const Alg1Result par = verify_2cycle(soc, with_preprocess({}, threads, preprocess), opts);
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " preprocess=" + std::to_string(preprocess));
      expect_same_alg1(seq, par);
      if (preprocess && threads > 1) {
        EXPECT_GE(par.metrics.get("sat.simplify.runs"), 1u);
        EXPECT_EQ(par.metrics.get("sat.simplify.frozen_eliminations"), 0u);
      }
    }
  }
}

TEST(Determinism, WorkerPathSearchFingerprint) {
  // With clause sharing off, each worker's search depends only on its chunk
  // and the simplified generation it hydrates from, so the summed counters
  // of a multi-worker run repeat exactly. Pinned like Sat.SearchFingerprint:
  // an unintended change in the simplifier, the generation switch or the
  // scheduler's partition moves them; an intended search change
  // regenerates the values.
  soc::SocConfig cfg;
  cfg.pub_ram_words = 8;
  cfg.priv_ram_words = 4;
  const soc::Soc soc = soc::build_pulpissimo(cfg);
  Alg1Options opts;
  opts.extract_waveform = false;
  VerifyOptions options = with_preprocess(countermeasure_options(), 2, true);
  options.share_clauses = false;
  const Alg1Result a = verify_2cycle(soc, options, opts);
  const Alg1Result b = verify_2cycle(soc, options, opts);
  ASSERT_EQ(a.verdict, Verdict::Secure);
  ASSERT_GE(a.metrics.get("sat.simplify.runs"), 1u);
  const auto counters = [](const Alg1Result& r) {
    return std::vector<std::uint64_t>{r.metrics.get("sat.solver.total.conflicts"),
                                      r.metrics.get("sat.solver.total.propagations"),
                                      r.metrics.get("sat.solver.total.decisions")};
  };
  EXPECT_EQ(counters(a), counters(b));
  EXPECT_EQ(counters(a), (std::vector<std::uint64_t>{11581, 2776945, 1125231}));
}

TEST(Determinism, VulnerableAlg2PreprocessToggleIdentical) {
  // Alg. 2 grows the store every frame, so each frame forces a fresh
  // simplified generation, and every worker switches to it while keeping
  // its learnt clauses. Results must still match the unpreprocessed run
  // exactly.
  const soc::Soc soc = small_soc();
  const Alg2Result off = verify_unrolled(soc, with_preprocess(hwpe_scenario_options(soc), 4, false));
  const Alg2Result on = verify_unrolled(soc, with_preprocess(hwpe_scenario_options(soc), 4, true));
  ASSERT_EQ(off.verdict, Verdict::Vulnerable);
  EXPECT_EQ(off.verdict, on.verdict);
  EXPECT_EQ(off.final_k, on.final_k);
  ASSERT_EQ(off.steps.size(), on.steps.size());
  for (std::size_t i = 0; i < off.steps.size(); ++i) {
    EXPECT_EQ(off.steps[i].k, on.steps[i].k) << "step " << i;
    EXPECT_EQ(off.steps[i].iteration.removed, on.steps[i].iteration.removed) << "step " << i;
  }
  EXPECT_EQ(off.persistent_hits, on.persistent_hits);
  EXPECT_EQ(off.full_cex, on.full_cex);
  EXPECT_EQ(on.metrics.get("sat.simplify.frozen_eliminations"), 0u);
}

TEST(Determinism, SecureAlg2PreprocessToggleIdentical) {
  // The countermeasure proof by unrolling (the benchmark's Alg. 2 run): each
  // frame's generation is simplified on top of the previous one, restoring
  // eliminated variables the new frame mentions. The proof must not react.
  soc::SocConfig cfg;
  cfg.pub_ram_words = 2;
  cfg.priv_ram_words = 2;
  const soc::Soc soc = soc::build_pulpissimo(cfg);
  const Alg2Result off = verify_unrolled(soc, with_preprocess(countermeasure_options(), 2, false));
  const Alg2Result on = verify_unrolled(soc, with_preprocess(countermeasure_options(), 2, true));
  ASSERT_EQ(off.verdict, Verdict::Secure);
  EXPECT_EQ(off.verdict, on.verdict);
  EXPECT_EQ(off.final_k, on.final_k);
  ASSERT_EQ(off.steps.size(), on.steps.size());
  for (std::size_t i = 0; i < off.steps.size(); ++i) {
    EXPECT_EQ(off.steps[i].k, on.steps[i].k) << "step " << i;
    EXPECT_EQ(off.steps[i].iteration.removed, on.steps[i].iteration.removed) << "step " << i;
  }
  ASSERT_TRUE(off.induction.has_value());
  ASSERT_TRUE(on.induction.has_value());
  EXPECT_TRUE(off.induction->final_s == on.induction->final_s);
  EXPECT_EQ(on.metrics.get("sat.simplify.frozen_eliminations"), 0u);
  EXPECT_EQ(on.metrics.get("sat.simplify.runs"), 3u);
  EXPECT_GT(on.metrics.get("sat.simplify.delta_clauses"), 0u);
  EXPECT_EQ(off.metrics.get("sat.simplify.runs"), 0u);
}

TEST(Determinism, VulnerableAlg2IdenticalAcrossThreadCounts) {
  const soc::Soc soc = small_soc();
  const Alg2Result seq = verify_unrolled(soc, with_threads(hwpe_scenario_options(soc), 1));
  const Alg2Result par = verify_unrolled(soc, with_threads(hwpe_scenario_options(soc), 4));
  ASSERT_EQ(seq.verdict, Verdict::Vulnerable);
  EXPECT_EQ(seq.verdict, par.verdict);
  EXPECT_EQ(seq.final_k, par.final_k);
  ASSERT_EQ(seq.steps.size(), par.steps.size());
  for (std::size_t i = 0; i < seq.steps.size(); ++i) {
    EXPECT_EQ(seq.steps[i].k, par.steps[i].k) << "step " << i;
    EXPECT_EQ(seq.steps[i].iteration.s_size, par.steps[i].iteration.s_size) << "step " << i;
    EXPECT_EQ(seq.steps[i].iteration.removed, par.steps[i].iteration.removed) << "step " << i;
  }
  EXPECT_EQ(seq.persistent_hits, par.persistent_hits);
  EXPECT_EQ(seq.full_cex, par.full_cex);
  EXPECT_EQ(seq.waveform.has_value(), par.waveform.has_value());
}

VerifyOptions with_trace(VerifyOptions options, unsigned threads, const std::string& path) {
  options.threads = threads;
  options.trace_path = path;
  return options;
}

TEST(Determinism, VulnerableTraceToggleIdentical) {
  // Tracing only records — spans and counters observe the run without
  // synchronizing it differently or touching the solvers. Verdicts and
  // frontiers must be bit-identical with the trace session on or off, at any
  // thread count.
  const soc::Soc soc = small_soc();
  Alg1Options opts;
  opts.extract_waveform = false;
  const Alg1Result seq = verify_2cycle(soc, with_threads({}, 1), opts);
  ASSERT_EQ(seq.verdict, Verdict::Vulnerable);
  for (unsigned threads : {1u, 4u}) {
    const std::string path = ::testing::TempDir() + "upec_determinism_trace_" +
                             std::to_string(threads) + ".json";
    const Alg1Result traced = verify_2cycle(soc, with_trace({}, threads, path), opts);
    SCOPED_TRACE("threads=" + std::to_string(threads) + " trace=on");
    expect_same_alg1(seq, traced);
  }
}

VerifyOptions with_progress(VerifyOptions options, unsigned threads, std::uint64_t every) {
  options.threads = threads;
  options.progress_conflicts = every;
  return options;
}

TEST(Determinism, SecureProgressToggleIdentical) {
  // The progress hook samples counters the solver already maintains and the
  // deadline clock only inside the callback — it must never steer the
  // search. Secure (UNSAT-heavy) workload, heartbeats on main and workers.
  const soc::Soc soc = small_soc();
  const Alg1Result seq = verify_2cycle(soc, with_threads(countermeasure_options(), 1));
  ASSERT_EQ(seq.verdict, Verdict::Secure);
  for (unsigned threads : {1u, 4u}) {
    VerifyOptions options = with_progress(countermeasure_options(), threads, 512);
    std::atomic<std::uint64_t> heartbeats{0};
    options.progress = [&heartbeats](const ProgressEvent&) { ++heartbeats; };
    const Alg1Result par = verify_2cycle(soc, std::move(options));
    SCOPED_TRACE("threads=" + std::to_string(threads) + " progress=on");
    expect_same_alg1(seq, par);
    EXPECT_GT(heartbeats.load(), 0u);
  }
}

TEST(Determinism, NonSaturatingModeStaysIdenticalAcrossThreadCounts) {
  // saturate_cex = false is a single-model ablation; every query is one
  // CheckScheduler::check on worker 0 against the raw store, even under
  // threads > 1, so its (model-order-dependent) results cannot diverge across
  // thread counts.
  const soc::Soc soc = small_soc();
  Alg1Options opts;
  opts.saturate_cex = false;
  opts.extract_waveform = false;

  UpecContext seq_ctx(soc, with_threads({}, 1));
  UpecContext par_ctx(soc, with_threads({}, 4));
  const Alg1Result seq = run_alg1(seq_ctx, opts);
  const Alg1Result par = run_alg1(par_ctx, opts);
  expect_same_alg1(seq, par);
  // Every solve landed on worker 0; no sweep ran on the other workers.
  ASSERT_EQ(worker_rows(par.metrics), 4u);
  EXPECT_GT(par.metrics.get("sat.solver.w0.solve_calls"), 0u);
  for (unsigned w = 1; w < 4; ++w) {
    EXPECT_EQ(par.metrics.get("sat.solver.w" + std::to_string(w) + ".solve_calls"), 0u)
        << "worker " << w;
  }
}

TEST(Determinism, WorkerBreakdownAppearsInReport) {
  const soc::Soc soc = small_soc();
  UpecContext ctx(soc, with_threads(hwpe_scenario_options(soc), 2));
  Alg1Options opts;
  opts.extract_waveform = false;
  const Alg1Result result = run_alg1(ctx, opts);
  ASSERT_EQ(worker_rows(result.metrics), 2u);
  // Workers actually solved.
  const std::uint64_t worker_solves = result.metrics.get("sat.solver.w0.solve_calls") +
                                      result.metrics.get("sat.solver.w1.solve_calls");
  EXPECT_GT(worker_solves, 0u);
  const std::string report = render_report(ctx, result);
  EXPECT_NE(report.find("solver usage (2 workers)"), std::string::npos) << report;
  EXPECT_NE(report.find("worker 1:"), std::string::npos) << report;
}

} // namespace
} // namespace upec
