// UpecContext: assembles the full UPEC-SSC verification stack for one SoC —
// miter, macros, persistence classification, check scheduler — and owns the
// verification entry points used by examples, tests and benchmarks.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <optional>

#include "encode/miter.h"
#include "util/trace.h"
#include "ipc/scheduler.h"
#include "sat/snapshot.h"
#include "soc/pulpissimo.h"
#include "upec/alg1.h"
#include "upec/alg2.h"
#include "upec/incremental.h"
#include "upec/macros.h"
#include "upec/persistence.h"

namespace upec {

// One solver-progress heartbeat (see VerifyOptions::progress_conflicts).
struct ProgressEvent {
  // "w<k>" for scheduler worker k (a threads == 1 run reports as "w0").
  std::string source;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learnts = 0; // live learnt clauses at the sample
  // Milliseconds until the run deadline; negative once past it; nullopt
  // when the run has no deadline.
  std::optional<std::int64_t> deadline_remaining_ms;
};

struct VerifyOptions {
  MacroConfig macros;
  // Abort a single check after this many conflicts (0 = no limit).
  std::uint64_t conflict_budget = 0;
  // Worker solvers for the per-state-variable checks of Alg. 1 / Alg. 2, all
  // hydrated from the shared clause store. 1 (default) runs the single worker
  // inline on the calling thread; N > 1 fans each iteration across N solvers
  // on their own threads. Results are bit-identical for every value (see
  // ipc/scheduler.h).
  unsigned threads = 1;
  // Worker-to-worker learned-clause sharing (effective only at threads > 1):
  // workers export low-LBD learnt clauses into a shared channel and import
  // foreign ones at restart boundaries, cutting the UNSAT work the chunked
  // sweep otherwise re-proves per worker. Verdicts and frontiers are
  // unaffected — shared clauses are implied by the common store — so this is
  // safe to leave on. Turning it off makes each worker's search repeat
  // exactly, so a multi-worker run's solver counters can be pinned
  // (test_determinism); its sharing toggle legs run both sides.
  bool share_clauses = true;
  // Optional restriction of S_pers (e.g. "only the HWPE and public RAM" to
  // steer Alg. 1 toward a specific attack scenario in the case study).
  std::function<bool(rtlir::StateVarId)> s_pers_filter;
  // Wall-clock budget for the whole verification run, in milliseconds
  // (0 = unlimited), measured from context construction. Solvers abort past
  // it and the run reports Verdict::Unknown with `timed_out` set — a
  // time-starved run is distinguishable from a conflict-budget-starved one.
  std::uint64_t deadline_ms = 0;
  // Snapshot-level CNF preprocessing for scheduler workers (sat/simplify.h):
  // the sweep snapshot is simplified once per store generation — subsumption,
  // self-subsuming resolution, bounded variable elimination, failed-literal
  // probing — and every worker hydrates from the simplified view instead of
  // the raw store. Sound by the frozen-variable contract: everything the
  // sweeps assume or read back (eq/diff/activation/exempt literals, macro
  // assumption variables, waveform probe images) is declared frozen through
  // UpecContext::frozen_vars and survives preprocessing untouched, and all
  // other rewriting is consequence-only or model-reconstructible. Verdicts,
  // frontiers and waveforms are bit-identical with preprocessing on or off
  // (pinned by test_determinism). Inert when the scheduler holds a single
  // solver (threads == 1 without an external solver): the simplified view
  // would then double a small run's memory to feed one worker.
  bool preprocess = true;
  // External DIMACS solver command consulted first by every worker under the
  // supervision policy below (sat/supervise.h): per-solve deadline, restart
  // with backoff on crash, quarantine after consecutive failures, graceful
  // degradation to the in-proc solver. Empty (default) = in-proc only.
  // Use sat::self_solver_argv() to pipe through this binary itself.
  std::vector<std::string> external_solver;
  std::uint32_t external_deadline_ms = 10'000;
  sat::SuperviseOptions supervise;
  // --- Observability (all verdict-inert; README "Observability") -----------
  // When non-empty, the context arms a util::trace session at construction
  // and writes a Chrome trace-event JSON file here when the context is
  // destroyed (Perfetto / chrome://tracing loadable): spans for encoding,
  // simplifier runs, snapshot hydration, sweeps, every backend solve and
  // subprocess lifecycles. Tracing only records — verdicts, frontiers, and
  // waveforms are bit-identical with it on or off (pinned by
  // test_determinism).
  std::string trace_path;
  // Progress heartbeat: every `progress_conflicts` conflicts each in-proc
  // worker solver reports a ProgressEvent through `progress`, and — when
  // tracing — as `solver.<source>.conflicts` counter samples in the trace.
  // The callback fires on solving threads, concurrently at threads > 1 (on
  // the caller's thread at threads == 1): it must be thread-safe and stay
  // cheap. 0 (default) = off.
  std::uint64_t progress_conflicts = 0;
  std::function<void(const ProgressEvent&)> progress;
};

class UpecContext {
public:
  UpecContext(const soc::Soc& soc, VerifyOptions options = {});

  const soc::Soc& soc;
  VerifyOptions options;
  // Armed from options.trace_path (null when tracing is off). Declared
  // before every recording member and especially before `scheduler`:
  // members destruct in reverse order, so the session's flush-on-destroy
  // runs strictly after the scheduler joined its workers — no recorder can
  // race the flush.
  std::unique_ptr<util::trace::TraceSession> trace_session;
  rtlir::StateVarTable svt;
  // The only original copy of the CNF: the miter encodes straight into it,
  // and every worker — and every DIMACS export — hydrates from an immutable
  // snapshot of it.
  sat::CnfStore store;
  encode::Miter miter;
  SsMacros macros;
  PersistenceClassifier pers;
  // UNSAT-core frontier pruner, fed by every saturating sweep.
  FrontierPruner pruner;
  // Candidates the structural pass of sweep_frame refuted without a solve,
  // over every sweep (`upec.sweep.structural_candidates`).
  std::uint64_t structural_candidates = 0;
  // Refutations from earlier frames that sweep_frame wrote into the store as
  // equality lemmas, over every sweep (`upec.sweep.frame_lemmas`).
  std::uint64_t frame_lemmas = 0;
  // Absolute deadline derived from options.deadline_ms at construction
  // (nullopt = unlimited); installed on every worker backend.
  std::optional<std::chrono::steady_clock::time_point> run_deadline;
  // Poses every query: sweeps fan out across its workers, single checks
  // (waveforms, the non-saturating ablation) run on worker 0, whose model
  // the miter reads back.
  ipc::CheckScheduler scheduler;
  StateSet s_pers; // after filtering

  bool in_s_pers(rtlir::StateVarId sv) const { return s_pers.contains(sv); }

  // Probe names extracted into counterexample waveforms.
  std::vector<std::string> waveform_probes() const;

  // Pre-encodes the probe images for frames 0..max_frame in both instances.
  // Waveform extraction happens after the solve; any image created later
  // would read back arbitrary values, so probes must be in the CNF up front.
  void touch_probes(unsigned max_frame);

  // The frozen-variable declaration handed to the scheduler's preprocessor
  // (see sat/simplify.h): the miter's named literals plus every encoded
  // waveform-probe image bit. Waveform/counterexample extraction reads the
  // model of CheckScheduler::check, which never runs on the simplified view,
  // so freezing the probe images is defensive insurance rather than a live
  // dependency — cheap, and it keeps the contract honest if a future caller
  // reads probes from a sweep model.
  std::vector<sat::Var> frozen_vars() const;

private:
  // Maps `options` (and run_deadline) onto the scheduler; runs in the
  // constructor's initializer list, after both are set.
  ipc::SchedulerOptions scheduler_options();
};

// Convenience wrappers: build a context and run the respective procedure.
Alg1Result verify_2cycle(const soc::Soc& soc, VerifyOptions options = {},
                         const Alg1Options& alg = {});
Alg2Result verify_unrolled(const soc::Soc& soc, VerifyOptions options = {},
                           const Alg2Options& alg = {});

// The configuration used for the secured SoC of Sec 4.2: victim range mapped
// into the private RAM and DMA firmware constraints enabled.
VerifyOptions countermeasure_options();

} // namespace upec
