// Observability stack: the JSON writer/parser pair, the unified metrics
// registry and its aggregation identities, the Chrome trace-event stream,
// the upec-report-v4 JSON report, and the solver progress hooks.
//
// The parse-back tests use the strict util::parse_json reader deliberately:
// every artifact the engine emits must survive a reader that rejects
// everything RFC 8259 rejects, and the trace stream must additionally obey
// the structural discipline Perfetto assumes (monotone timestamps, balanced
// per-thread spans).
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "registry_rows.h"
#include "upec/report.h"
#include "upec/report_json.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace upec {
namespace {

soc::Soc small_soc() {
  soc::SocConfig cfg;
  cfg.pub_ram_words = 16;
  cfg.priv_ram_words = 8;
  return soc::build_pulpissimo(cfg);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ---------------------------------------------------------------------------
// JsonUtil: the dependency-free writer/parser pair in util/json.h.
// ---------------------------------------------------------------------------

TEST(JsonUtil, WriterEscapesAndParserRoundTrips) {
  util::JsonWriter w;
  w.begin_object();
  w.key("plain").value("hello");
  w.key("tricky").value(std::string_view("q\"b\\c\x01nl\ntab\tü", 15));
  w.key("num").value(std::uint64_t{18446744073709551615ULL});
  w.key("neg").value(std::int64_t{-42});
  w.key("flag").value(true);
  w.key("none").value_null();
  w.key("arr").begin_array().value(1).value(2).end_array();
  w.end_object();

  util::JsonValue v;
  std::string error;
  ASSERT_TRUE(util::parse_json(w.str(), v, &error)) << error << "\n" << w.str();
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("plain")->string, "hello");
  EXPECT_EQ(v.find("tricky")->string, std::string("q\"b\\c\x01nl\ntab\tü", 15));
  EXPECT_EQ(v.find("neg")->number, -42.0);
  EXPECT_TRUE(v.find("flag")->boolean);
  EXPECT_TRUE(v.find("none")->is_null());
  ASSERT_EQ(v.find("arr")->array.size(), 2u);
  EXPECT_EQ(v.find("arr")->array[1].number, 2.0);
}

TEST(JsonUtil, ObjectsPreserveMemberOrder) {
  util::JsonValue v;
  ASSERT_TRUE(util::parse_json(R"({"z": 1, "a": 2, "m": 3})", v));
  ASSERT_EQ(v.object.size(), 3u);
  EXPECT_EQ(v.object[0].first, "z");
  EXPECT_EQ(v.object[1].first, "a");
  EXPECT_EQ(v.object[2].first, "m");
}

TEST(JsonUtil, ParserAcceptsSurrogatePairs) {
  util::JsonValue v;
  ASSERT_TRUE(util::parse_json(R"("\ud83d\ude00")", v));
  EXPECT_EQ(v.string, "\xF0\x9F\x98\x80"); // U+1F600
}

TEST(JsonUtil, ParserRejectsMalformedDocuments) {
  const char* bad[] = {
      "",                    // empty
      "{\"a\": 1,}",         // trailing comma
      "{\"a\": 1} x",        // trailing garbage
      "[1, 2",               // unterminated array
      "{\"a\"}",             // key without value
      "01",                  // leading zero
      "\"\x01\"",            // bare control character
      "\"\\x41\"",           // invalid escape
      "\"unterminated",      // unterminated string
      "truth",               // mangled literal
      "+1",                  // stray sign
  };
  for (const char* doc : bad) {
    util::JsonValue v;
    std::string error;
    EXPECT_FALSE(util::parse_json(doc, v, &error)) << "accepted: " << doc;
    EXPECT_FALSE(error.empty());
  }
}

TEST(JsonUtil, NonFiniteDoublesSerializeAsNull) {
  util::JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(0.5);
  w.end_array();
  util::JsonValue v;
  ASSERT_TRUE(util::parse_json(w.str(), v));
  ASSERT_EQ(v.array.size(), 3u);
  EXPECT_TRUE(v.array[0].is_null());
  EXPECT_TRUE(v.array[1].is_null());
  EXPECT_EQ(v.array[2].number, 0.5);
}

// ---------------------------------------------------------------------------
// MetricsRegistry: merge semantics (counters sum, gauges max), prefixing,
// filtering, and the stable JSON serialization.
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CountersSumAndGaugesMax) {
  util::MetricsSnapshot a;
  a.add_counter("conflicts", 10);
  a.set_gauge("learnts", 7);
  util::MetricsSnapshot b;
  b.add_counter("conflicts", 32);
  b.set_gauge("learnts", 3);
  a.merge(b);
  EXPECT_EQ(a.get("conflicts"), 42u);
  EXPECT_EQ(a.get("learnts"), 7u); // max, not sum
  a.add_counter("conflicts", 8);   // add_counter accumulates
  EXPECT_EQ(a.get("conflicts"), 50u);
  a.set_gauge("learnts", 5);       // set_gauge keeps the max
  EXPECT_EQ(a.get("learnts"), 7u);
}

TEST(MetricsRegistry, MergePrefixedBuildsHierarchy) {
  util::MetricsSnapshot leaf;
  leaf.add_counter("conflicts", 5);
  util::MetricsSnapshot root;
  root.merge_prefixed("sat.solver.w3.", leaf);
  root.merge_prefixed("sat.solver.total.", leaf);
  EXPECT_TRUE(root.has("sat.solver.w3.conflicts"));
  EXPECT_EQ(root.get("sat.solver.total.conflicts"), 5u);
  EXPECT_FALSE(root.has("conflicts"));
}

TEST(MetricsRegistry, JsonSerializationIsSortedAndRoundTrips) {
  util::MetricsSnapshot m;
  m.add_counter("z.last", 3);
  m.add_counter("a.first", 1);
  m.set_gauge("m.middle", 2);
  util::JsonValue v;
  ASSERT_TRUE(util::parse_json(m.to_json(), v));
  ASSERT_EQ(v.object.size(), 3u);
  EXPECT_EQ(v.object[0].first, "a.first"); // lexicographic, always
  EXPECT_EQ(v.object[1].first, "m.middle");
  EXPECT_EQ(v.object[2].first, "z.last");
  EXPECT_EQ(v.number_or("m.middle", 0), 2.0);
}

// ---------------------------------------------------------------------------
// MetricsAggregation: the counter-drift regression. Every aggregate the run
// reports must be the registry merge of its parts — the total is the sum of
// the workers — with nothing counted twice or dropped.
// ---------------------------------------------------------------------------

TEST(MetricsAggregation, TotalsEqualSumOfWorkers) {
  const soc::Soc soc = small_soc();
  VerifyOptions options = countermeasure_options();
  options.threads = 2;
  UpecContext ctx(soc, options);
  Alg1Options opts;
  opts.extract_waveform = false;
  const Alg1Result r = run_alg1(ctx, opts);
  ASSERT_EQ(r.verdict, Verdict::Secure);

  const util::MetricsSnapshot& m = r.metrics;
  const char* leaves[] = {"conflicts",        "decisions",        "propagations",
                          "restarts",         "learned_clauses",  "deleted_clauses",
                          "exported_clauses", "imported_clauses", "solve_calls",
                          "chrono_backtracks", "carried_learnts"};
  ASSERT_EQ(worker_rows(m), 2u);
  for (const char* leaf : leaves) {
    // total = sum of workers, in the registry itself.
    std::uint64_t worker_sum = 0;
    for (unsigned w = 0; w < 2; ++w) {
      const std::string wp = "sat.solver.w" + std::to_string(w) + ".";
      worker_sum += m.get(wp + leaf);
    }
    EXPECT_EQ(m.get(std::string("sat.solver.total.") + leaf), worker_sum) << leaf;
  }
  // Channel counters mirror the totals.
  EXPECT_EQ(m.get("sat.channel.exported"), m.get("sat.solver.total.exported_clauses"));
  EXPECT_EQ(m.get("sat.channel.imported"), m.get("sat.solver.total.imported_clauses"));
}

TEST(MetricsAggregation, ArenaGaugesCoverEverySolver) {
  const soc::Soc soc = small_soc();
  VerifyOptions options;
  options.threads = 2;
  UpecContext ctx(soc, options);
  Alg1Options opts;
  opts.extract_waveform = false;
  const Alg1Result r = run_alg1(ctx, opts);
  const util::MetricsSnapshot& m = r.metrics;
  ASSERT_EQ(worker_rows(m), 2u);
  for (const char* name : {"sat.arena_bytes.w0", "sat.arena_bytes.w1"}) {
    ASSERT_TRUE(m.has(name)) << name;
    EXPECT_EQ(m.entries().at(name).kind, util::MetricKind::Gauge) << name;
    EXPECT_GT(m.get(name), 0u) << name;
  }
  // The simplifier's working database and reconstruction stack sit beside
  // them (threads = 2 preprocesses), and so does the clause channel (sharing
  // is on by default).
  for (const char* name :
       {"sat.simplify.db_bytes", "sat.simplify.elim_bytes", "sat.channel.bytes"}) {
    ASSERT_TRUE(m.has(name)) << name;
    EXPECT_EQ(m.entries().at(name).kind, util::MetricKind::Gauge) << name;
    EXPECT_GT(m.get(name), 0u) << name;
  }
  // Gauges stay out of the sat.solver.* tree, whose totals sum counters.
  std::size_t arena_gauges = 0;
  for (const auto& [name, entry] : m.entries()) {
    if (name.starts_with("sat.arena_bytes.")) ++arena_gauges;
    if (name.starts_with("sat.solver.")) EXPECT_EQ(entry.kind, util::MetricKind::Counter) << name;
  }
  EXPECT_EQ(arena_gauges, 2u);
}

TEST(MetricsAggregation, SingleSolverRunHasNoWorkerEntries) {
  const soc::Soc soc = small_soc();
  UpecContext ctx(soc);
  Alg1Options opts;
  opts.extract_waveform = false;
  const Alg1Result r = run_alg1(ctx, opts);
  const util::MetricsSnapshot& m = r.metrics;
  EXPECT_EQ(worker_rows(m), 1u);
  EXPECT_FALSE(m.has("sat.solver.w1.conflicts"));
  EXPECT_EQ(m.get("sat.solver.total.conflicts"), m.get("sat.solver.w0.conflicts"));
}

// ---------------------------------------------------------------------------
// UsageBlock: the text report's solver-usage block, rendered from the
// metrics registry. Pinned byte for byte on two configurations whose
// counters repeat exactly; an intended search change regenerates the
// strings, as with Sat.SearchFingerprint.
// ---------------------------------------------------------------------------

// The "solver usage" line and the lines that belong to it (frontier pruning,
// preprocessing, and the indented worker / member / health lines).
std::string solver_usage_block(const std::string& report) {
  std::istringstream in(report);
  std::string line;
  std::string block;
  while (std::getline(in, line)) {
    const bool usage =
        line.starts_with("solver usage (") ||
        (!block.empty() && (line.starts_with("frontier pruning: ") ||
                            line.starts_with("preprocessing: ") || line.starts_with("  ")));
    if (!usage && !block.empty()) break;
    if (usage) block += line + "\n";
  }
  return block;
}

TEST(UsageBlock, SingleWorkerDetectionIsPinned) {
  soc::SocConfig cfg;
  cfg.pub_ram_words = 4;
  cfg.priv_ram_words = 2;
  const soc::Soc soc = soc::build_pulpissimo(cfg);
  VerifyOptions options;
  options.threads = 1;
  UpecContext ctx(soc, options);
  const Alg1Result r = run_alg1(ctx);
  ASSERT_EQ(r.verdict, Verdict::Vulnerable);
  EXPECT_EQ(solver_usage_block(render_report(ctx, r)),
            "solver usage (1 worker): 67 solves, 8005 conflicts, 193757 decisions, "
            "4489048 propagations\n"
            "frontier pruning: 0 candidates pruned by cores, structural: 59 refuted without a "
            "solve, 7975 learnts retained\n"
            "  worker 0: 67 solves, 8005 conflicts, 193757 decisions, 4489048 propagations, "
            "7975 learned\n");
}

TEST(UsageBlock, TwoWorkerPreprocessedSecureIsPinned) {
  // The configuration of Determinism.WorkerPathSearchFingerprint: sharing
  // off, so every worker's counters repeat exactly.
  soc::SocConfig cfg;
  cfg.pub_ram_words = 8;
  cfg.priv_ram_words = 4;
  const soc::Soc soc = soc::build_pulpissimo(cfg);
  VerifyOptions options = countermeasure_options();
  options.threads = 2;
  options.preprocess = true;
  options.share_clauses = false;
  UpecContext ctx(soc, options);
  Alg1Options opts;
  opts.extract_waveform = false;
  const Alg1Result r = run_alg1(ctx, opts);
  ASSERT_EQ(r.verdict, Verdict::Secure);
  EXPECT_EQ(solver_usage_block(render_report(ctx, r)),
            "solver usage (2 workers): 80 solves, 11581 conflicts, 1125231 decisions, "
            "2776945 propagations\n"
            "frontier pruning: 236 candidates pruned by cores, structural: 59 refuted without a "
            "solve, 11496 learnts retained\n"
            "preprocessing: 1 runs / 1 reuses, 12440 vars eliminated, 1374 subsumed, "
            "9577 strengthened, 0 failed literals, 3 fixed; last run 69376 -> 42403 clauses\n"
            "  worker 0: 40 solves, 6704 conflicts, 758611 decisions, 1848632 propagations, "
            "6689 learned\n"
            "  worker 1: 40 solves, 4877 conflicts, 366620 decisions, 928313 propagations, "
            "4807 learned\n");
}

TEST(UsageBlock, SingleWorkerAlg2CountermeasureIsPinned) {
  // The off-benchmark Alg. 2 run: countermeasure SoC, pub 2 / priv 2, one
  // worker, unrolled to k = 3 and closed by induction (perfbench_driver
  // --alg 2 --pub-words 2 --priv-words 2 --threads 1 --countermeasure).
  soc::SocConfig cfg;
  cfg.pub_ram_words = 2;
  cfg.priv_ram_words = 2;
  const soc::Soc soc = soc::build_pulpissimo(cfg);
  VerifyOptions options = countermeasure_options();
  options.threads = 1;
  UpecContext ctx(soc, options);
  const Alg2Result r = run_alg2(ctx);
  ASSERT_EQ(r.verdict, Verdict::Secure);
  ASSERT_EQ(r.final_k, 3u);
  EXPECT_EQ(solver_usage_block(render_report(ctx, r)),
            "solver usage (1 worker): 186 solves, 23008 conflicts, 475289 decisions, "
            "17166870 propagations\n"
            "frontier pruning: 341 candidates pruned by cores, structural: 169 refuted without a "
            "solve, lemmas: 230 carried to later frames, 9778 learnts retained\n"
            "  worker 0: 186 solves, 23008 conflicts, 475289 decisions, 17166870 propagations, "
            "22905 learned\n");
  EXPECT_EQ(r.metrics.get("sat.solver.total.restarts"), 139u);
}

// ---------------------------------------------------------------------------
// TraceEvents: arm a session through VerifyOptions, then parse the emitted
// stream back with the strict reader and check the structural discipline a
// trace viewer assumes.
// ---------------------------------------------------------------------------

TEST(TraceEvents, StreamParsesBackStrictlyAndSpansBalance) {
  const std::string path = ::testing::TempDir() + "upec_trace_events.json";
  {
    const soc::Soc soc = small_soc();
    VerifyOptions options;
    options.threads = 2;
    options.trace_path = path;
    options.progress_conflicts = 500;
    UpecContext ctx(soc, options);
    Alg1Options opts;
    opts.extract_waveform = false;
    const Alg1Result r = run_alg1(ctx, opts);
    ASSERT_EQ(r.verdict, Verdict::Vulnerable);
  } // context destruction flushes the session

  const std::string doc = slurp(path);
  ASSERT_FALSE(doc.empty());
  util::JsonValue v;
  std::string error;
  ASSERT_TRUE(util::parse_json(doc, v, &error)) << error;
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("displayTimeUnit")->string, "ms");
  const util::JsonValue* events = v.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->array.empty());

  double last_ts = -1.0;
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> open; // tid -> [start,end)
  std::map<std::string, int> names;
  for (const util::JsonValue& e : events->array) {
    ASSERT_TRUE(e.is_object());
    const util::JsonValue* name = e.find("name");
    ASSERT_NE(name, nullptr);
    EXPECT_FALSE(name->string.empty());
    names[name->string]++;
    const std::string& ph = e.find("ph")->string;
    EXPECT_TRUE(ph == "X" || ph == "i" || ph == "C") << ph;
    const double ts = e.number_or("ts", -1);
    ASSERT_GE(ts, 0.0);
    EXPECT_GE(ts, last_ts) << "timestamps must be sorted";
    last_ts = ts;
    EXPECT_EQ(e.number_or("pid", 0), 1.0);
    const auto tid = static_cast<std::uint64_t>(e.number_or("tid", 0));
    EXPECT_GE(tid, 1u);
    if (ph == "X") {
      const double dur = e.number_or("dur", -1);
      ASSERT_GE(dur, 0.0) << "complete events carry a duration";
      // Span discipline per thread: RAII spans on one thread either nest or
      // are disjoint — a partial overlap means an unbalanced span.
      auto& stack = open[tid];
      while (!stack.empty() && ts >= stack.back().second) stack.pop_back();
      if (!stack.empty()) {
        EXPECT_LE(ts + dur, stack.back().second)
            << name->string << " partially overlaps an enclosing span";
      }
      stack.emplace_back(ts, ts + dur);
    } else if (ph == "i") {
      EXPECT_EQ(e.find("s")->string, "t");
    } else { // counter
      const util::JsonValue* args = e.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_GE(args->number_or("value", -1), 0.0);
    }
  }

  // The spans this run must have produced (threads=2, preprocessing on,
  // progress armed; encode.touch_probes would need waveform extraction,
  // which this run skips).
  for (const char* required :
       {"alg1.run", "alg1.iteration", "upec.sweep_frame", "scheduler.sweep",
        "solve.inproc", "sync.inproc", "simplify.run", "encode.register_candidates"}) {
    EXPECT_GT(names[required], 0) << "missing span: " << required;
  }
  EXPECT_EQ(names["alg1.run"], 1);
  // Progress heartbeats became counter tracks for the workers.
  EXPECT_GT(names["solver.w0.conflicts"] + names["solver.w1.conflicts"], 0);
}

TEST(TraceEvents, SecondSessionIsInertWhileOneIsArmed) {
  const std::string a_path = ::testing::TempDir() + "upec_trace_a.json";
  const std::string b_path = ::testing::TempDir() + "upec_trace_b.json";
  EXPECT_FALSE(util::trace::enabled());
  {
    util::trace::TraceSession a(a_path);
    EXPECT_TRUE(a.active());
    EXPECT_TRUE(util::trace::enabled());
    util::trace::TraceSession b(b_path); // nested: stays inert, records nothing
    EXPECT_FALSE(b.active());
    { util::trace::Span s("test.span", "test"); }
    EXPECT_TRUE(util::trace::enabled()); // b's destruction must not disarm a
  }
  EXPECT_FALSE(util::trace::enabled());
  util::JsonValue v;
  ASSERT_TRUE(util::parse_json(slurp(a_path), v));
  ASSERT_EQ(v.find("traceEvents")->array.size(), 1u);
  EXPECT_EQ(v.find("traceEvents")->array[0].find("name")->string, "test.span");
}

TEST(TraceEvents, RecordersAreNoOpsWithoutASession) {
  EXPECT_FALSE(util::trace::enabled());
  // Must not crash, allocate buffers, or leave state behind.
  util::trace::Span s("orphan", "test");
  s.arg("k", std::uint64_t{1});
  util::trace::instant("orphan.instant", "test");
  util::trace::counter("orphan.counter", 7);
}

// ---------------------------------------------------------------------------
// JsonReport: render_json parse-back, agreement with the typed result, and
// the config-hash contract.
// ---------------------------------------------------------------------------

TEST(JsonReport, Alg1ReportParsesBackAndMatchesResult) {
  const soc::Soc soc = small_soc();
  VerifyOptions options;
  options.threads = 2;
  UpecContext ctx(soc, options);
  Alg1Options opts;
  opts.extract_waveform = false;
  const Alg1Result r = run_alg1(ctx, opts);
  ASSERT_EQ(r.verdict, Verdict::Vulnerable);

  const std::string doc = render_json(ctx, r);
  util::JsonValue v;
  std::string error;
  ASSERT_TRUE(util::parse_json(doc, v, &error)) << error;
  EXPECT_EQ(v.find("schema")->string, "upec-report-v4");
  EXPECT_EQ(v.find("algorithm")->string, "alg1");
  EXPECT_EQ(v.find("verdict")->string, verdict_name(r.verdict));
  EXPECT_EQ(v.find("timed_out")->boolean, r.timed_out);
  ASSERT_EQ(v.find("iterations")->array.size(), r.iterations.size());
  for (std::size_t i = 0; i < r.iterations.size(); ++i) {
    const util::JsonValue& it = v.find("iterations")->array[i];
    EXPECT_EQ(it.number_or("s_size", -1), static_cast<double>(r.iterations[i].s_size));
    EXPECT_EQ(it.find("removed")->array.size(), r.iterations[i].removed.size());
    EXPECT_EQ(it.find("cache_hits"), nullptr);  // dropped in upec-report-v2
  }
  EXPECT_EQ(v.find("persistent_hits")->array.size(), r.persistent_hits.size());
  EXPECT_EQ(v.find("full_cex")->array.size(), r.full_cex.size());

  // Counter totals in the report equal the text report's source of truth.
  const util::JsonValue* metrics = v.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->number_or("sat.solver.total.conflicts", -1),
            static_cast<double>(r.metrics.get("sat.solver.total.conflicts")));
  EXPECT_EQ(metrics->number_or("sat.solver.total.solve_calls", -1),
            static_cast<double>(r.metrics.get("sat.solver.total.solve_calls")));
  EXPECT_EQ(metrics->number_or("upec.sweep.pruned_candidates", -1),
            static_cast<double>(r.metrics.get("upec.sweep.pruned_candidates")));
  EXPECT_EQ(v.find("workers")->number, static_cast<double>(worker_rows(r.metrics)));

  // config echo + hash: 16 lowercase hex digits, stable against re-rendering.
  const std::string& hash = v.find("config_hash")->string;
  ASSERT_EQ(hash.size(), 16u);
  for (char c : hash) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << hash;
  }
  EXPECT_EQ(hash, config_hash(ctx.options));
  EXPECT_EQ(v.find("config")->number_or("threads", 0), 2.0);
}

TEST(JsonReport, Alg2ReportParsesBack) {
  const soc::Soc soc = small_soc();
  auto svt = std::make_shared<rtlir::StateVarTable>(*soc.design);
  VerifyOptions options;
  options.s_pers_filter = [svt](rtlir::StateVarId sv) {
    const std::string name = svt->name(sv);
    return name.find(".hwpe.") != std::string::npos ||
           name.find("pub_ram.mem[") != std::string::npos;
  };
  UpecContext ctx(soc, options);
  Alg2Options alg;
  alg.extract_waveform = false;
  const Alg2Result r = run_alg2(ctx, alg);

  util::JsonValue v;
  std::string error;
  ASSERT_TRUE(util::parse_json(render_json(ctx, r), v, &error)) << error;
  EXPECT_EQ(v.find("schema")->string, "upec-report-v4");
  EXPECT_EQ(v.find("algorithm")->string, "alg2");
  EXPECT_EQ(v.find("verdict")->string, verdict_name(r.verdict));
  EXPECT_EQ(v.find("final_k")->number, static_cast<double>(r.final_k));
  ASSERT_EQ(v.find("iterations")->array.size(), r.steps.size());
  for (std::size_t i = 0; i < r.steps.size(); ++i) {
    EXPECT_EQ(v.find("iterations")->array[i].number_or("k", -1),
              static_cast<double>(r.steps[i].k));
  }
  const util::JsonValue* induction = v.find("induction");
  ASSERT_NE(induction, nullptr);
  EXPECT_EQ(induction->is_null(), !r.induction.has_value());
}

TEST(JsonReport, FrameLemmasAreCountedOnlyWhereALaterFrameReadsThem) {
  // Alg. 1 sweeps frame 1 only: no lemma is ever emitted.
  {
    soc::SocConfig cfg;
    cfg.pub_ram_words = 4;
    cfg.priv_ram_words = 2;
    const soc::Soc soc = soc::build_pulpissimo(cfg);
    UpecContext ctx(soc);
    Alg1Options opts;
    opts.extract_waveform = false;
    const Alg1Result r = run_alg1(ctx, opts);
    ASSERT_EQ(r.verdict, Verdict::Vulnerable);
    EXPECT_TRUE(r.metrics.has("upec.sweep.frame_lemmas"));
    EXPECT_EQ(r.metrics.get("upec.sweep.frame_lemmas"), 0u);
  }
  // Alg. 2 emits each frame's refutations once, at the first sweep of the
  // next step; the JSON iterations carry the per-sweep counts.
  soc::SocConfig cfg;
  cfg.pub_ram_words = 2;
  cfg.priv_ram_words = 2;
  const soc::Soc soc = soc::build_pulpissimo(cfg);
  UpecContext ctx(soc, countermeasure_options());
  Alg2Options alg;
  alg.extract_waveform = false;
  alg.run_closing_induction = false;
  const Alg2Result r = run_alg2(ctx, alg);
  ASSERT_EQ(r.final_k, 3u);
  const std::uint64_t lemmas = r.metrics.get("upec.sweep.frame_lemmas");
  EXPECT_GT(lemmas, 0u);
  util::JsonValue v;
  ASSERT_TRUE(util::parse_json(render_json(ctx, r), v));
  const util::JsonValue* iterations = v.find("iterations");
  ASSERT_NE(iterations, nullptr);
  ASSERT_EQ(iterations->array.size(), r.steps.size());
  double sum = 0;
  unsigned prev_k = 0;
  for (std::size_t i = 0; i < r.steps.size(); ++i) {
    const double n = iterations->array[i].number_or("lemmas", -1);
    EXPECT_EQ(n, static_cast<double>(r.steps[i].iteration.lemmas));
    // Only a step's first sweep past frame 1 emits.
    EXPECT_EQ(n != 0.0, r.steps[i].k != prev_k && r.steps[i].k != 1) << "iteration " << i;
    prev_k = r.steps[i].k;
    sum += n;
  }
  EXPECT_EQ(sum, static_cast<double>(lemmas));
  EXPECT_EQ(v.find("metrics")->number_or("upec.sweep.frame_lemmas", -1),
            static_cast<double>(lemmas));
}

TEST(JsonReport, ConfigHashIgnoresObservabilityAndTracksConfig) {
  VerifyOptions base;
  const std::string h0 = config_hash(base);

  VerifyOptions observed = base;
  observed.trace_path = "/tmp/some_trace.json";
  observed.progress_conflicts = 1024;
  observed.progress = [](const ProgressEvent&) {};
  EXPECT_EQ(config_hash(observed), h0) << "observability must not change the hash";

  VerifyOptions threaded = base;
  threaded.threads = 4;
  EXPECT_NE(config_hash(threaded), h0);
  VerifyOptions secured = countermeasure_options();
  EXPECT_NE(config_hash(secured), h0);
}

// ---------------------------------------------------------------------------
// ProgressHook: cadence, cumulative counters, and source labels.
// ---------------------------------------------------------------------------

TEST(ProgressHook, FiresAtCadenceWithCumulativeCounters) {
  const soc::Soc soc = small_soc();
  std::mutex mu;
  std::vector<ProgressEvent> events;
  VerifyOptions options;
  options.progress_conflicts = 256;
  options.progress = [&](const ProgressEvent& ev) {
    std::lock_guard<std::mutex> lock(mu);
    events.push_back(ev);
  };
  UpecContext ctx(soc, options);
  Alg1Options opts;
  opts.extract_waveform = false;
  const Alg1Result r = run_alg1(ctx, opts);
  ASSERT_EQ(r.verdict, Verdict::Vulnerable);

  ASSERT_FALSE(events.empty());
  std::uint64_t last = 0;
  for (const ProgressEvent& ev : events) {
    EXPECT_EQ(ev.source, "w0"); // threads == 1: the single worker solves
    EXPECT_GT(ev.conflicts, 0u);
    EXPECT_EQ(ev.conflicts % 256, 0u) << "cadence is a conflict-count multiple";
    EXPECT_GT(ev.conflicts, last) << "cumulative counter must increase";
    last = ev.conflicts;
    EXPECT_FALSE(ev.deadline_remaining_ms.has_value()); // no deadline configured
  }
  EXPECT_LE(last, r.metrics.get("sat.solver.total.conflicts"));
}

TEST(ProgressHook, WorkersReportUnderTheirLabel) {
  const soc::Soc soc = small_soc();
  std::mutex mu;
  std::map<std::string, std::uint64_t> per_source;
  VerifyOptions options;
  options.threads = 2;
  options.deadline_ms = 600'000; // deadline present => remaining_ms reported
  options.progress_conflicts = 256;
  bool deadline_seen = false;
  options.progress = [&](const ProgressEvent& ev) {
    std::lock_guard<std::mutex> lock(mu);
    per_source[ev.source] = ev.conflicts;
    deadline_seen = deadline_seen || ev.deadline_remaining_ms.has_value();
  };
  UpecContext ctx(soc, options);
  Alg1Options opts;
  opts.extract_waveform = false;
  const Alg1Result r = run_alg1(ctx, opts);
  ASSERT_EQ(r.verdict, Verdict::Vulnerable);

  ASSERT_FALSE(per_source.empty());
  for (const auto& [source, conflicts] : per_source) {
    EXPECT_TRUE(source == "w0" || source == "w1") << source;
    EXPECT_GT(conflicts, 0u);
  }
  // The sweep work happens on the workers; at least one must have reported.
  EXPECT_TRUE(per_source.count("w0") != 0 || per_source.count("w1") != 0);
  EXPECT_TRUE(deadline_seen);
}

} // namespace
} // namespace upec
