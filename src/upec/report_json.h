// Machine-readable JSON rendering of verification outcomes — the structured
// counterpart of upec/report.h's text reports, for dashboards, regression
// tooling, and the bench harness.
//
// Schema (stable key order, see README "Observability"):
//   {
//     "schema": "upec-report-v4",
//     "algorithm": "alg1" | "alg2",
//     "verdict": "secure" | "vulnerable" | "unknown",
//     "timed_out": bool,
//     "total_seconds": number,
//     "config": { ...verdict-relevant VerifyOptions echo... },
//     "config_hash": "<16 lowercase hex digits>",
//     "iterations": [ { "s_size": n, ..., "removed": ["name", ...] }, ... ],
//     "persistent_hits": ["name", ...],
//     "full_cex": ["name", ...],
//     "waveform": bool,                      // a waveform was extracted
//     "final_s_size": n,                     // alg1 only
//     "final_k": n, "induction": {...}|null, // alg2 only
//     "state_vars": n,
//     "workers": n,                          // scheduler workers, >= 1
//     "metrics": { "<counter name>": n, ... } // Alg1Result::metrics, flat
//   }
//
// `config` and `config_hash` cover only verdict-relevant options — the
// observability fields (trace_path, progress_conflicts, progress) are
// excluded, so turning tracing on/off does not change the hash: two reports
// with equal config_hash describe runs that must agree bit-identically on
// verdicts and frontiers (test_determinism pins this).
#pragma once

#include <string>

#include "upec/alg2.h"
#include "upec/engine.h"

namespace upec {

std::string render_json(const UpecContext& ctx, const Alg1Result& result);
std::string render_json(const UpecContext& ctx, const Alg2Result& result);

// FNV-1a (64-bit) over the canonical `config` JSON serialization, as 16
// lowercase hex digits. Exposed for tests and external comparisons.
std::string config_hash(const VerifyOptions& options);

} // namespace upec
