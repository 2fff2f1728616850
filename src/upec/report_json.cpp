#include "upec/report_json.h"

#include <cstdint>

#include "util/json.h"

namespace upec {

namespace {

// The verdict-relevant VerifyOptions echo. One serialization shared by the
// report's "config" member and by config_hash — anything added here changes
// the hash, anything observability-only must stay out (see report_json.h).
void write_config(util::JsonWriter& w, const VerifyOptions& o) {
  w.begin_object();
  w.key("vte_frames");
  w.value(o.macros.vte_frames);
  w.key("victim_regions");
  w.begin_array();
  for (const std::string& r : o.macros.victim_regions) w.value(r);
  w.end_array();
  w.key("firmware_constraints");
  w.value(o.macros.firmware_constraints);
  w.key("conflict_budget");
  w.value(o.conflict_budget);
  w.key("threads");
  w.value(o.threads);
  w.key("share_clauses");
  w.value(o.share_clauses);
  w.key("deadline_ms");
  w.value(o.deadline_ms);
  w.key("preprocess");
  w.value(o.preprocess);
  w.key("external_solver");
  w.begin_array();
  for (const std::string& a : o.external_solver) w.value(a);
  w.end_array();
  w.key("external_deadline_ms");
  w.value(o.external_deadline_ms);
  w.end_object();
}

std::string config_json(const VerifyOptions& options) {
  util::JsonWriter w;
  write_config(w, options);
  return w.take();
}

void write_iteration(util::JsonWriter& w, const UpecContext& ctx, const IterationLog& log,
                     int k) {
  w.begin_object();
  if (k >= 0) {
    w.key("k");
    w.value(k);
  }
  w.key("s_size");
  w.value(log.s_size);
  w.key("cex_size");
  w.value(log.cex_size);
  w.key("pers_hits");
  w.value(log.pers_hits);
  w.key("seconds");
  w.value(log.seconds);
  w.key("conflicts");
  w.value(log.conflicts);
  w.key("status");
  w.value(log.status == ipc::CheckStatus::Holds      ? "holds"
          : log.status == ipc::CheckStatus::Violated ? "cex"
                                                     : "unknown");
  w.key("timed_out");
  w.value(log.timed_out);
  w.key("pruned");
  w.value(log.pruned);
  w.key("structural");
  w.value(log.structural);
  w.key("lemmas");
  w.value(log.lemmas);
  w.key("removed");
  w.begin_array();
  for (rtlir::StateVarId sv : log.removed) w.value(ctx.svt.name(sv));
  w.end_array();
  w.end_object();
}

void write_names(util::JsonWriter& w, const UpecContext& ctx,
                 const std::vector<rtlir::StateVarId>& svs) {
  w.begin_array();
  for (rtlir::StateVarId sv : svs) w.value(ctx.svt.name(sv));
  w.end_array();
}

// Shared head (schema .. config_hash) and tail (metrics) of both reports.
void write_head(util::JsonWriter& w, const UpecContext& ctx, const char* algorithm,
                Verdict verdict, bool timed_out, double total_seconds) {
  w.key("schema");
  w.value("upec-report-v4");
  w.key("algorithm");
  w.value(algorithm);
  w.key("verdict");
  w.value(verdict_name(verdict));
  w.key("timed_out");
  w.value(timed_out);
  w.key("total_seconds");
  w.value(total_seconds);
  w.key("config");
  write_config(w, ctx.options);
  w.key("config_hash");
  w.value(config_hash(ctx.options));
}

void write_tail(util::JsonWriter& w, const UpecContext& ctx,
                const util::MetricsSnapshot& metrics) {
  w.key("state_vars");
  w.value(ctx.svt.size());
  w.key("workers");
  w.value(ctx.scheduler.workers());
  w.key("metrics");
  metrics.write_json(w);
}

} // namespace

std::string config_hash(const VerifyOptions& options) {
  const std::string canon = config_json(options);
  std::uint64_t h = 1469598103934665603ULL; // FNV-1a offset basis
  for (unsigned char c : canon) {
    h ^= c;
    h *= 1099511628211ULL; // FNV-1a prime
  }
  static const char* hex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = hex[h & 0xf];
    h >>= 4;
  }
  return out;
}

std::string render_json(const UpecContext& ctx, const Alg1Result& result) {
  util::JsonWriter w;
  w.begin_object();
  write_head(w, ctx, "alg1", result.verdict, result.timed_out, result.total_seconds);
  w.key("iterations");
  w.begin_array();
  for (const IterationLog& log : result.iterations) write_iteration(w, ctx, log, -1);
  w.end_array();
  w.key("persistent_hits");
  write_names(w, ctx, result.persistent_hits);
  w.key("full_cex");
  write_names(w, ctx, result.full_cex);
  w.key("waveform");
  w.value(result.waveform.has_value());
  w.key("final_s_size");
  w.value(result.final_s.size());
  write_tail(w, ctx, result.metrics);
  w.end_object();
  return w.take();
}

std::string render_json(const UpecContext& ctx, const Alg2Result& result) {
  util::JsonWriter w;
  w.begin_object();
  write_head(w, ctx, "alg2", result.verdict, result.timed_out, result.total_seconds);
  w.key("iterations");
  w.begin_array();
  for (const Alg2StepLog& step : result.steps) {
    write_iteration(w, ctx, step.iteration, static_cast<int>(step.k));
  }
  w.end_array();
  w.key("persistent_hits");
  write_names(w, ctx, result.persistent_hits);
  w.key("full_cex");
  write_names(w, ctx, result.full_cex);
  w.key("waveform");
  w.value(result.waveform.has_value());
  w.key("final_k");
  w.value(result.final_k);
  w.key("induction");
  if (result.induction) {
    w.begin_object();
    w.key("verdict");
    w.value(verdict_name(result.induction->verdict));
    w.key("iterations");
    w.value(result.induction->iterations.size());
    w.key("timed_out");
    w.value(result.induction->timed_out);
    w.end_object();
  } else {
    w.value_null();
  }
  write_tail(w, ctx, result.metrics);
  w.end_object();
  return w.take();
}

} // namespace upec
