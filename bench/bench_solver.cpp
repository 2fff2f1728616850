// Experiment T-SOLVER — solver / encoder microbenchmarks and the encoder
// sizes called out in DESIGN.md:
//
//  - cone-of-influence reduction: fraction of the design a 2-cycle property
//    actually touches (the lazy encoder materializes only this),
//  - the assumption-mode miter's CNF size for State_Equivalence(S_all),
//  - CDCL throughput on the SoC transition relation and on classic hard
//    instances (pigeonhole), on the same self-timed harness as the other
//    bench binaries (no external benchmark library).
//
// Writes a JSON artifact (default BENCH_solver.json in the working directory,
// or argv path); nothing is committed as a baseline, perfbench/ is the
// performance ledger. --quick runs one repetition per row and caps the
// pigeonhole size for CI.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "encode/coi.h"
#include "sat/solver.h"
#include "upec/report.h"

namespace {

using namespace upec;

soc::Soc make_soc() {
  soc::SocConfig cfg;
  cfg.pub_ram_words = 16;
  cfg.priv_ram_words = 8;
  return soc::build_pulpissimo(cfg);
}

struct Row {
  std::string name;
  unsigned reps;
  double mean_s;       // per repetition
  std::uint64_t work;  // benchmark-specific counter (clauses / conflicts / iterations)
  const char* work_label;
};

// Runs `fn` `reps` times and returns the mean wall-clock seconds. `fn`
// returns its work counter; the last repetition's value is kept (the
// workloads are deterministic, so every repetition agrees).
Row run_bench(const char* name, unsigned reps, const char* work_label,
              const std::function<std::uint64_t()>& fn) {
  Row row{name, reps, 0.0, 0, work_label};
  const auto t0 = std::chrono::steady_clock::now();
  for (unsigned i = 0; i < reps; ++i) row.work = fn();
  row.mean_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count() /
               static_cast<double>(reps);
  std::printf("%-28s %8.3f ms/rep   %12llu %s   (%u reps)\n", name, row.mean_s * 1e3,
              static_cast<unsigned long long>(row.work), work_label, reps);
  return row;
}

std::uint64_t encode_soc_two_frames(const soc::Soc& soc, const rtlir::StateVarTable& svt) {
  sat::Solver solver;
  encode::CnfBuilder cnf(solver);
  encode::UnrolledInstance inst(cnf, *soc.design, svt, "bm");
  for (rtlir::StateVarId sv = 0; sv < svt.size(); ++sv) inst.state_at(1, sv);
  return cnf.num_gate_clauses();
}

std::uint64_t detect_vulnerability(const soc::Soc& soc) {
  UpecContext ctx(soc);
  Alg1Options opts;
  opts.extract_waveform = false;
  const Alg1Result r = run_alg1(ctx, opts);
  if (r.verdict != Verdict::Vulnerable) {
    std::fprintf(stderr, "FAIL: expected vulnerable verdict\n");
    std::exit(2);
  }
  return r.iterations.size();
}

std::uint64_t secure_proof(const soc::Soc& soc) {
  UpecContext ctx(soc, countermeasure_options());
  Alg1Options opts;
  opts.extract_waveform = false;
  const Alg1Result r = run_alg1(ctx, opts);
  if (r.verdict != Verdict::Secure) {
    std::fprintf(stderr, "FAIL: expected secure verdict\n");
    std::exit(2);
  }
  return r.iterations.size();
}

std::uint64_t sat_pigeonhole(int holes) {
  sat::Solver s;
  const int pigeons = holes + 1;
  std::vector<std::vector<sat::Var>> x(pigeons, std::vector<sat::Var>(holes));
  for (auto& row : x) {
    for (auto& v : row) v = s.new_var();
  }
  for (int p = 0; p < pigeons; ++p) {
    std::vector<sat::Lit> c;
    for (int h = 0; h < holes; ++h) c.push_back(sat::Lit(x[p][h], false));
    s.add_clause(c);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        s.add_clause(sat::Lit(x[p1][h], true), sat::Lit(x[p2][h], true));
      }
    }
  }
  if (s.solve()) {
    std::fprintf(stderr, "FAIL: pigeonhole must be UNSAT\n");
    std::exit(2);
  }
  return s.stats().conflicts;
}

void print_ablation_tables() {
  const soc::Soc soc = make_soc();
  const rtlir::StateVarTable svt(*soc.design);

  // --- COI reduction ------------------------------------------------------------
  std::printf("\n## cone-of-influence reduction (2-cycle property roots = HWPE progress)\n");
  const rtlir::NetId probe = soc.design->find_output(soc::probe::kHwpeProgress);
  const encode::CoiResult coi = encode::cone_of_influence(*soc.design, svt, {probe}, 2);
  std::printf("reachable nets: %zu / %zu (%.1f%%), state vars in cone: %zu / %zu\n",
              coi.reachable_nets, coi.total_nets,
              100.0 * static_cast<double>(coi.reachable_nets) /
                  static_cast<double>(coi.total_nets),
              coi.state_vars.size(), svt.size());

  // --- assumption-mode miter ------------------------------------------------------
  std::printf("\n## miter encoding for State_Equivalence(S_all) at t\n");
  sat::Solver solver;
  encode::Miter m(solver, *soc.design, svt,
                  encode::MiterOptions{.per_instance = soc::Soc::is_cpu_interface});
  for (rtlir::StateVarId sv = 0; sv < svt.size(); ++sv) {
    m.eq_assumption(sv);
    m.diff_literal(sv, 1);
  }
  std::printf("assumption-mode:  vars=%-10llu clauses=%-10llu (incremental across "
              "iterations)\n",
              static_cast<unsigned long long>(m.cnf().num_aux_vars()),
              static_cast<unsigned long long>(m.cnf().num_gate_clauses()));
}

} // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_solver.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      out_path = argv[i];
    }
  }

  std::printf("# T-SOLVER — encoder/solver microbenchmarks and ablations%s\n",
              quick ? " (reduced config)" : "");
  print_ablation_tables();
  std::printf("\n## microbenchmarks\n");

  const soc::Soc soc = make_soc();
  const rtlir::StateVarTable svt(*soc.design);
  const unsigned reps = quick ? 1 : 3;
  const int max_holes = quick ? 7 : 8;

  std::vector<Row> rows;
  rows.push_back(run_bench("encode_soc_two_frames", quick ? 3 : 10, "clauses",
                           [&] { return encode_soc_two_frames(soc, svt); }));
  rows.push_back(
      run_bench("detect_vulnerability", reps, "iterations", [&] { return detect_vulnerability(soc); }));
  rows.push_back(run_bench("secure_proof", reps, "iterations", [&] { return secure_proof(soc); }));
  for (int holes = 6; holes <= max_holes; ++holes) {
    const std::string name = "pigeonhole_" + std::to_string(holes);
    rows.push_back(
        run_bench(name.c_str(), reps, "conflicts", [holes] { return sat_pigeonhole(holes); }));
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 2;
  }
  std::fprintf(f, "{\n  \"bench\": \"solver\",\n  \"quick\": %s,\n  \"rows\": [\n",
               quick ? "true" : "false");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"reps\": %u, \"mean_s\": %.4f, "
                 "\"%s\": %llu}%s\n",
                 r.name.c_str(), r.reps, r.mean_s, r.work_label,
                 static_cast<unsigned long long>(r.work), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\n# wrote %s\n", out_path.c_str());
  return 0;
}
