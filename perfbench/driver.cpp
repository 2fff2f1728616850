// Benchmark driver: runs one UPEC-SSC workload step by step on command and
// prints one JSON line of raw measurements per step. perfbench/run.py owns
// the workload table, the schedule, the output checks and the statistics;
// this program only calls the engine's public API and times each call from
// outside.
//
//   perfbench_driver --alg 1|2 --pub-words N [--priv-words N] --threads N
//                    [--countermeasure]
//
// Commands on stdin, one per line:
//   facts           build facts (compiler, build type, NDEBUG)
//   setup           build_pulpissimo + UpecContext, then destroy both
//   verify          setup, then run_alg1/run_alg2 + render_report + render_json
//   traced <path>   verify under a trace session flushed to <path> after the
//                   context (and its scheduler threads) is destroyed
// End of input ends the program.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <ctime>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "upec/report.h"
#include "upec/report_json.h"
#include "util/json.h"
#include "util/trace.h"

namespace {

using namespace upec;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

struct Workload {
  unsigned alg = 1;
  std::uint32_t pub_words = 32;
  std::uint32_t priv_words = 16;
  unsigned threads = 1;
  bool countermeasure = false;
};

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// User + system CPU seconds of the whole process, every thread included.
double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

// What one verification produced, as the benchmark's output check needs it.
struct Outcome {
  std::string text_report;
  std::string json_report;
  std::vector<rtlir::StateVarId> final_s;
};

template <typename Result>
Outcome render(const UpecContext& ctx, const Result& result, double& report_s, double& json_s) {
  Outcome out;
  double t = wall_now();
  {
    util::trace::Span span("bench.render_report", "bench");
    out.text_report = render_report(ctx, result);
  }
  report_s = wall_now() - t;
  t = wall_now();
  {
    util::trace::Span span("bench.render_json", "bench");
    out.json_report = render_json(ctx, result);
  }
  json_s = wall_now() - t;
  return out;
}

void write_names(util::JsonWriter& w, const UpecContext& ctx,
                 const std::vector<rtlir::StateVarId>& ids) {
  w.begin_array();
  for (rtlir::StateVarId id : ids) w.value(ctx.svt.name(id));
  w.end_array();
}

// One step: setup (always) and, when `verify`, the verification and both
// reports. Prints the step's JSON line.
void step(const Workload& wl, bool verify, const char* op, const std::string& trace_path) {
  std::optional<util::trace::TraceSession> session;
  if (!trace_path.empty()) {
    session.emplace(trace_path);
    if (!session->active()) {
      std::fprintf(stderr, "perfbench_driver: trace session refused\n");
      std::exit(3);
    }
  }

  util::JsonWriter w;
  w.begin_object();
  w.key("op").value(op);
  {
    double t = wall_now();
    std::optional<soc::Soc> soc;
    {
      util::trace::Span span("bench.build_pulpissimo", "bench");
      soc::SocConfig cfg;
      cfg.pub_ram_words = wl.pub_words;
      cfg.priv_ram_words = wl.priv_words;
      soc.emplace(soc::build_pulpissimo(cfg));
    }
    const double build_s = wall_now() - t;

    VerifyOptions options = wl.countermeasure ? countermeasure_options() : VerifyOptions{};
    options.threads = wl.threads;
    t = wall_now();
    std::optional<UpecContext> ctx;
    {
      util::trace::Span span("bench.context", "bench");
      ctx.emplace(*soc, options);
    }
    const double context_s = wall_now() - t;
    w.key("build_s").value(build_s);
    w.key("context_s").value(context_s);

    if (verify) {
      util::trace::Span verify_span("bench.verify", "bench");
      const double w0 = wall_now();
      const double c0 = cpu_now();
      double report_s = 0.0, json_s = 0.0;
      Outcome out;
      if (wl.alg == 1) {
        Alg1Result result;
        {
          util::trace::Span span("bench.run_alg1", "bench");
          result = run_alg1(*ctx);
        }
        out = render(*ctx, result, report_s, json_s);
        out.final_s = result.final_s.to_vector();
      } else {
        Alg2Result result;
        {
          util::trace::Span span("bench.run_alg2", "bench");
          result = run_alg2(*ctx);
        }
        out = render(*ctx, result, report_s, json_s);
        if (result.induction) out.final_s = result.induction->final_s.to_vector();
      }
      w.key("verify_s").value(wall_now() - w0);
      w.key("verify_cpu_s").value(cpu_now() - c0);
      w.key("report_s").value(report_s);
      w.key("json_s").value(json_s);
      w.key("store_clauses").value(static_cast<std::uint64_t>(ctx->store.num_clauses()));
      w.key("final_s");
      write_names(w, *ctx, out.final_s);
      w.key("text_report").value(out.text_report);
      w.key("json_report").value(out.json_report);
    }
    // The context (and any scheduler threads) goes first, then the SoC it
    // refers to; only then may the trace session flush.
    ctx.reset();
  }
  if (session && !session->flush()) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s\n", trace_path.c_str());
    std::exit(3);
  }
  w.key("peak_rss_mb").value(peak_rss_mb());
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

void facts() {
  util::JsonWriter w;
  w.begin_object();
  w.key("op").value("facts");
  w.key("compiler").value(__VERSION__);
  w.key("build_type").value(PERFBENCH_BUILD_TYPE);
#ifdef NDEBUG
  w.key("ndebug").value(true);
#else
  w.key("ndebug").value(false);
#endif
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --alg 1|2 --pub-words N [--priv-words N] --threads N "
               "[--countermeasure]\n");
  std::exit(2);
}

} // namespace

int main(int argc, char** argv) {
  Workload wl;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--alg" && has_value) {
      wl.alg = static_cast<unsigned>(std::stoul(argv[++i]));
    } else if (arg == "--pub-words" && has_value) {
      wl.pub_words = static_cast<std::uint32_t>(std::stoul(argv[++i]));
    } else if (arg == "--priv-words" && has_value) {
      wl.priv_words = static_cast<std::uint32_t>(std::stoul(argv[++i]));
    } else if (arg == "--threads" && has_value) {
      wl.threads = static_cast<unsigned>(std::stoul(argv[++i]));
    } else if (arg == "--countermeasure") {
      wl.countermeasure = true;
    } else {
      usage();
    }
  }
  if (wl.alg != 1 && wl.alg != 2) usage();

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "facts") {
      facts();
    } else if (line == "setup") {
      step(wl, false, "setup", "");
    } else if (line == "verify") {
      step(wl, true, "verify", "");
    } else if (line.rfind("traced ", 0) == 0 && line.size() > 7) {
      step(wl, true, "traced", line.substr(7));
    } else {
      std::fprintf(stderr, "perfbench_driver: unknown command '%s'\n", line.c_str());
      return 2;
    }
  }
  return 0;
}
