// Experiment T-SCALE — scalability of the method with design size and with
// worker-solver count.
//
// The paper's claim: UPEC-SSC is "scalable for an SoC of realistic size"
// (their Pulpissimo build has >5M state bits; per-iteration runtimes ranged
// from 58 s to 2 h 52 min on a commercial property checker). Our SoC
// generator is parameterized, so the claim's *shape* — proof cost grows
// benignly (roughly linearly in state bits for the memory-dominated sweep,
// not exponentially) because the property window stays at 2 cycles — can be
// measured directly. Both verdicts are exercised: vulnerable detection on the
// baseline and the 3-iteration secure proof on the countermeasure build.
//
// The second table measures the check scheduler: the same Alg. 1 runs with
// 1 vs N worker solvers. Results are bit-identical by construction (see
// ipc/scheduler.h and test_determinism); the speedup column shows how much
// of the per-iteration fan-out the hardware converts into wall-clock. Each
// chunk proves its own quarter-disjunction UNSAT, so total CPU rises vs the
// single big proof (~2-2.5x observed); the fan-out pays off once the chunks
// actually run on separate cores (wall ≈ slowest chunk). On a single-core
// container the speedup column therefore reads *below* 1.0 — that run only
// validates the "identical" column. Worker-to-worker learned-clause sharing
// is the known follow-up to cut the duplicated UNSAT work.
#include <cstdio>

#include "rtlir/pretty.h"
#include "upec/report.h"

namespace {

upec::VerifyOptions with_threads(upec::VerifyOptions options, unsigned threads) {
  options.threads = threads;
  return options;
}

} // namespace

int main() {
  using namespace upec;

  std::printf("# T-SCALE — proof cost vs SoC size (2-cycle property, Alg. 1)\n\n");
  std::printf("%-10s %-10s %-12s %-12s %-14s %-12s %-12s %-10s\n", "pub_words", "priv_words",
              "state_vars", "state_bits", "cnf_clauses", "detect[s]", "secure[s]", "verdicts");

  for (std::uint32_t pub : {8u, 16u, 32u, 64u, 128u}) {
    soc::SocConfig cfg;
    cfg.pub_ram_words = pub;
    cfg.priv_ram_words = pub / 2;
    const soc::Soc soc = soc::build_pulpissimo(cfg);
    const rtlir::DesignStats stats = rtlir::design_stats(*soc.design);

    UpecContext vctx(soc);
    const Alg1Result vul = run_alg1(vctx);
    UpecContext sctx(soc, countermeasure_options());
    const Alg1Result sec = run_alg1(sctx);

    std::printf("%-10u %-10u %-12zu %-12zu %-14llu %-12.3f %-12.3f %s/%s\n", pub, pub / 2,
                stats.state_vars, stats.state_bits,
                static_cast<unsigned long long>(vctx.miter.cnf().num_gate_clauses()),
                vul.total_seconds, sec.total_seconds, verdict_name(vul.verdict),
                verdict_name(sec.verdict));
  }
  std::printf("\n# shape check (paper): verdicts stay vulnerable/secure at every size;\n");
  std::printf("# cost grows with state count (memory mux trees + more assumptions) but\n");
  std::printf("# the bounded window keeps the growth polynomial, not exponential.\n");

  std::printf("\n# T-SCALE-MT — same Alg. 1 workload, 1 vs 4 worker solvers\n\n");
  std::printf("%-10s %-10s %-12s %-12s %-12s %-12s %-10s %-10s\n", "pub_words", "scenario",
              "t1[s]", "t4[s]", "speedup", "t4 solves", "verdict ok", "identical");
  for (std::uint32_t pub : {16u, 32u, 64u}) {
    soc::SocConfig cfg;
    cfg.pub_ram_words = pub;
    cfg.priv_ram_words = pub / 2;
    const soc::Soc soc = soc::build_pulpissimo(cfg);

    struct Scenario {
      const char* name;
      VerifyOptions options;
      Verdict expected;
    };
    const Scenario scenarios[] = {
        {"detect", VerifyOptions{}, Verdict::Vulnerable},
        {"secure", countermeasure_options(), Verdict::Secure},
    };
    for (const Scenario& sc : scenarios) {
      Alg1Options opts;
      opts.extract_waveform = false;
      const Alg1Result t1 = verify_2cycle(soc, with_threads(sc.options, 1), opts);
      const Alg1Result t4 = verify_2cycle(soc, with_threads(sc.options, 4), opts);

      bool identical = t1.verdict == t4.verdict && t1.iterations.size() == t4.iterations.size() &&
                       t1.persistent_hits == t4.persistent_hits && t1.full_cex == t4.full_cex;
      for (std::size_t i = 0; identical && i < t1.iterations.size(); ++i) {
        identical = t1.iterations[i].removed == t4.iterations[i].removed;
      }
      const std::uint64_t t4_solves = t4.metrics.get("sat.solver.total.solve_calls");
      std::printf("%-10u %-10s %-12.3f %-12.3f %-12.2f %-10llu %-10s %-10s\n", pub, sc.name,
                  t1.total_seconds, t4.total_seconds,
                  t4.total_seconds > 0 ? t1.total_seconds / t4.total_seconds : 0.0,
                  static_cast<unsigned long long>(t4_solves),
                  t1.verdict == sc.expected ? "yes" : "NO",
                  identical ? "yes" : "NO");
    }
  }
  std::printf("\n# identical must read yes everywhere: the scheduler's per-chunk saturation\n");
  std::printf("# reports the semantic set {sv : diff(sv) satisfiable}, which no partition\n");
  std::printf("# or model order can change. speedup tracks available cores.\n");
  return 0;
}
