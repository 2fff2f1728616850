// Observability demo: run the UPEC-SSC 2-cycle procedure (Alg. 1) with every
// observability surface enabled and write the machine-readable artifacts —
//
//   $ ./observability_demo [trace.json] [report.json]
//
//   * trace.json  — Chrome trace-event stream (load in Perfetto or
//                   chrome://tracing): encode/simplify/sweep/solve spans plus
//                   solver progress counter tracks,
//   * report.json — the upec-report-v4 JSON report (verdict, iterations,
//                   config hash, unified metrics registry),
//
// and prints the usual text report plus the progress heartbeats to stdout.
// CI runs this binary and schema-checks both artifacts with jq; the verdict
// and frontiers are bit-identical to a run with everything off
// (test_determinism pins that).
#include <cstdio>
#include <mutex>

#include "upec/report.h"
#include "upec/report_json.h"

int main(int argc, char** argv) {
  using namespace upec;

  const char* trace_path = argc > 1 ? argv[1] : "trace.json";
  const char* report_path = argc > 2 ? argv[2] : "report.json";

  soc::SocConfig cfg;
  cfg.pub_ram_words = 16;
  cfg.priv_ram_words = 8;
  const soc::Soc soc = soc::build_pulpissimo(cfg);

  VerifyOptions options;
  options.threads = 2;     // exercise the scheduler spans
  options.trace_path = trace_path;
  options.progress_conflicts = 2000;
  std::mutex io_mu;        // heartbeats fire on solving threads
  options.progress = [&io_mu](const ProgressEvent& ev) {
    std::lock_guard<std::mutex> lock(io_mu);
    std::printf("[progress] %-5s %8llu conflicts, %6llu restarts, %6llu learnts\n",
                ev.source.c_str(), static_cast<unsigned long long>(ev.conflicts),
                static_cast<unsigned long long>(ev.restarts),
                static_cast<unsigned long long>(ev.learnts));
  };

  Alg1Result result;
  std::string report;
  {
    UpecContext ctx(soc, options);
    result = run_alg1(ctx);
    std::printf("%s\n", render_report(ctx, result).c_str());
    report = render_json(ctx, result);
  } // context destruction flushes the trace session to trace_path

  std::FILE* f = std::fopen(report_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", report_path);
    return 2;
  }
  std::fwrite(report.data(), 1, report.size(), f);
  std::fputc('\n', f);
  std::fclose(f);

  std::printf("wrote %s (Perfetto-loadable) and %s (upec-report-v4)\n", trace_path, report_path);
  return result.verdict == Verdict::Vulnerable ? 0 : 1;
}
