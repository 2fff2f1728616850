// Design-choice ablations called out in DESIGN.md §6, beyond the encoder
// sizes in bench_solver:
//
//  - counterexample saturation on/off: same verdicts, different iteration
//    granularity and total solver effort,
//  - arbitration policy: fixed priority vs round-robin — the attack class
//    persists under fair arbitration, and round-robin adds persistent
//    arbitration state (the rotating pointer),
//  - victim window length (the "during t..t+1" of the paper's macros):
//    longer windows give the victim more differing accesses but do not
//    change the verdicts.
#include <cstdio>

#include "upec/report.h"

namespace {

using namespace upec;

soc::SocConfig small_cfg() {
  soc::SocConfig cfg;
  cfg.pub_ram_words = 16;
  cfg.priv_ram_words = 8;
  return cfg;
}

void row(const char* name, const soc::Soc& soc, VerifyOptions vopts, const Alg1Options& aopts) {
  UpecContext ctx(soc, std::move(vopts));
  const Alg1Result r = run_alg1(ctx, aopts);
  std::uint64_t conflicts = 0;
  for (const auto& it : r.iterations) conflicts += it.conflicts;
  std::printf("%-44s %-12s %6zu iter %10llu confl %9.3f s\n", name,
              verdict_name(r.verdict), r.iterations.size(),
              static_cast<unsigned long long>(conflicts), r.total_seconds);
}

} // namespace

int main() {
  std::printf("# ablations — saturation, arbitration policy, victim window\n\n");

  const soc::Soc fixed = soc::build_pulpissimo(small_cfg());
  soc::SocConfig rr_cfg = small_cfg();
  rr_cfg.arbiter = soc::ArbiterKind::RoundRobin;
  const soc::Soc rr = soc::build_pulpissimo(rr_cfg);

  Alg1Options sat_on;
  sat_on.extract_waveform = false;
  Alg1Options sat_off = sat_on;
  sat_off.saturate_cex = false;

  std::printf("## counterexample saturation (baseline SoC / countermeasure SoC)\n");
  row("baseline, saturated (default)", fixed, VerifyOptions{}, sat_on);
  row("baseline, unsaturated", fixed, VerifyOptions{}, sat_off);
  row("countermeasure, saturated", fixed, countermeasure_options(), sat_on);
  row("countermeasure, unsaturated", fixed, countermeasure_options(), sat_off);

  std::printf("\n## arbitration policy (baseline verdicts must not depend on fairness)\n");
  row("fixed priority (CPU > DMA > HWPE)", fixed, VerifyOptions{}, sat_on);
  row("round robin", rr, VerifyOptions{}, sat_on);

  std::printf("\n## victim window length (macros' \"during t..t+vte\")\n");
  for (unsigned vte : {1u, 2u, 4u}) {
    VerifyOptions v;
    v.macros.vte_frames = vte;
    char name[64];
    std::snprintf(name, sizeof name, "baseline, vte_frames=%u", vte);
    row(name, fixed, std::move(v), sat_on);
  }

  std::printf("\n# expected shape: verdicts identical across every row; saturation\n");
  std::printf("# trades a few extra SAT calls for paper-granularity iteration counts;\n");
  std::printf("# round-robin additionally flags its arbitration pointer for inspection.\n");
  return 0;
}
