// CheckScheduler: the one place SAT queries are posed. It owns a pool of
// worker backends hydrated from the shared CnfStore and answers two kinds of
// request: a saturating sweep over the independent queries of one Alg. 1 /
// Alg. 2 iteration, fanned across the workers, and a single check on worker 0.
// A run at threads == 1 is simply a scheduler with one worker.
//
// One UPEC iteration asks, for every state variable sv still in S: "can sv
// differ at the target frame, given the equivalence assumptions?". These
// queries share the entire transition-relation CNF and differ only in their
// assumption sets, so the scheduler partitions the candidate variables
// round-robin into W chunks, one per worker. Each worker resolves every
// candidate in its chunk entirely on its own solver, keeping learned clauses
// across solves and iterations.
//
// Sweep discipline: every candidate has a persistent activation literal
// registered once in the miter (Miter::register_candidates), and the worker
// scans its chunk one candidate per solve, assuming that candidate's
// activation literal true — the query is exactly "diff(sv) satisfiable". A
// model retires every still-unresolved chunk member it proves differing; an
// UNSAT answer retires the candidate with a per-candidate assumption core,
// surfaced in SweepResult::unsat_groups for frontier pruning. Per-candidate
// cores mention only the eq assumptions that one refutation needs, so they
// survive frontier shrinking far better than a whole-chunk disjunction core
// would. The store never grows during a sweep and one snapshot serves the
// whole batch. Nothing a worker learned is ever invalidated: when the store
// grows between sweeps (Alg. 2 unrolling) and preprocessing hands the workers
// a new simplified generation, each worker keeps its learnt clauses, activity
// and phases across the switch (sat/backend.h, InprocBackend::sync).
//
// Fan-out: only a scheduler whose backends hold more than one solver (several
// workers, or an external endpoint behind each worker) pays for fan-out
// machinery — worker threads, the clause channel and snapshot preprocessing.
// A single in-proc worker runs inline on the calling thread on the raw store.
//
// Determinism: the set a chunk reports is {sv in chunk : diff(sv) satisfiable},
// which is a purely semantic property — independent of which models the
// worker's CDCL search happens to find, of thread scheduling, and of the
// number of workers. The merged, sorted union is therefore bit-identical for
// any thread count.
//
// Concurrency protocol: the encoder (diff/activation literals) runs only on
// the calling thread between batches; workers only read the store (hydration)
// and their own solver. Worker models and statistics are read back on the
// calling thread strictly after the batch barrier.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "encode/miter.h"
#include "ipc/property.h"
#include "sat/backend.h"
#include "sat/pipe_backend.h"
#include "sat/simplify.h"
#include "sat/supervise.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace upec::ipc {

struct SweepResult {
  // Violated iff at least one candidate can differ; Unknown if any worker
  // exhausted its budget (the differing list is then a lower bound).
  CheckStatus status = CheckStatus::Holds;
  std::vector<rtlir::StateVarId> differing;  // sorted ascending
  double seconds = 0.0;                      // wall clock for the whole sweep
  std::uint64_t conflicts = 0;               // summed over workers

  // Refutations: one entry per candidate proven unable to differ, carrying
  // the assumption core of that refutation. The upec layer mines these for
  // UNSAT-core frontier pruning (see upec/incremental.h).
  struct UnsatGroup {
    std::vector<rtlir::StateVarId> enabled;  // candidates enabled in the refuted query
    std::vector<sat::Lit> core;              // refuting subset of the assumptions
  };
  std::vector<UnsatGroup> unsat_groups;

  // An Unknown status was (at least in part) a wall-clock hit: some worker's
  // backend reported last_timed_out() for the solve that went Unknown.
  bool timed_out = false;
};

struct SchedulerOptions {
  unsigned threads = 1;
  std::uint64_t conflict_budget = 0;  // per solve call; 0 = unlimited
  // Workers exchange low-LBD learnt clauses through a ClauseChannel (PR 3).
  bool share_clauses = true;
  // External DIMACS solver command (empty = in-proc only). Each worker gets a
  // SupervisedBackend around this command — retry, quarantine, degrade-to-
  // in-proc (sat/supervise.h) — instead of a plain InprocBackend.
  std::vector<std::string> external_argv;
  std::uint32_t external_deadline_ms = 10'000;  // per external solve
  sat::SuperviseOptions supervise;
  // Absolute wall-clock deadline for the whole run; backends answer Unknown
  // (timed_out) past it.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  // Snapshot preprocessing (sat/simplify.h): the sweep snapshot is simplified
  // once on the calling thread — subsumption, bounded variable elimination,
  // failed-literal probing — and every worker hydrates from the simplified
  // generation instead of the raw store. Takes effect only when `frozen_vars`
  // is installed: the provider names every variable the sweeps will assume or
  // read back from worker models (the Simplifier soundness contract), so
  // preprocessing without one would be unsound and is treated as disabled.
  // Also disabled when the backends hold a single solver: the simplified view
  // then feeds nobody but one worker, holding it next to the raw store raises
  // a small run's peak memory by about 40% (fresh Alg. 1 pub-4 run: 14.0 ->
  // 19.4 MB), and the threads=1 solver counters would move.
  bool preprocess = true;
  sat::SimplifyOptions simplify;
  // Frozen-variable provider, called on the calling thread before each
  // fan-out. The sweep's own assumption variables are appended automatically,
  // so the provider only covers what the encode/upec layers know about
  // (Miter::frozen_vars / UpecContext::frozen_vars).
  std::function<std::vector<sat::Var>()> frozen_vars;
  // Progress heartbeat: every `progress_every` conflicts each in-proc
  // worker solver invokes `progress` with the worker index. The callback
  // fires on worker threads concurrently — it must be thread-safe. 0
  // disables. Purely observational (Solver::SolverProgress).
  std::uint64_t progress_every = 0;
  std::function<void(unsigned worker, const sat::SolverProgress&)> progress;
};

class CheckScheduler {
public:
  // `options.threads` worker solvers, each with the given per-solve conflict
  // budget. With sharing (and more than one solver), the workers exchange
  // low-LBD learnt clauses through a ClauseChannel: exported at learn time,
  // imported only at each worker's restart boundaries. Sharing only adds
  // clauses already implied by the shared store, so it changes how fast a
  // chunk's verdict is reached, never which verdict — the determinism
  // contract below is unaffected (pinned by test_determinism with sharing on
  // and off).
  CheckScheduler(sat::CnfStore& store, SchedulerOptions options);

  unsigned workers() const { return static_cast<unsigned>(backends_.size()); }

  // Finds every candidate whose diff literal at `frame` is satisfiable under
  // `assumptions`. Encodes missing diff/activation literals through
  // `miter.cnf()` on the calling thread.
  SweepResult sweep(encode::Miter& miter, const std::vector<encode::Lit>& assumptions,
                    const std::vector<rtlir::StateVarId>& candidates, unsigned frame);

  // One query on worker 0, on the calling thread, against the raw store —
  // never the simplified view, because a single check's caller reads the
  // model back on variables nobody froze (the waveform's state bits). On
  // Violated the model is readable through backend(0); on Holds, `core` (if
  // non-null) receives the refuting subset of the assumptions.
  CheckResult check(const std::vector<encode::Lit>& assumptions,
                    std::vector<encode::Lit>* core = nullptr);

  // Cumulative statistics of every worker, the clause channel and the
  // simplifier, as one registry (util/metrics.h; names in README
  // "Observability"):
  //   sat.solver.w<k>.*       worker k's SolverStats (a supervised worker's
  //                           sums its external endpoint and its fallback)
  //   sat.solver.total.*      merge of every worker row
  //   sat.health.w<k>.*       worker k's BackendHealth
  //   sat.arena_bytes.w<k>    worker k's clause arena (gauge)
  //   sat.channel.*           published / exported / imported counters and
  //                           the channel's reserved `bytes` (gauge)
  //   sat.simplify.*          preprocessing counters (zero when it is off)
  //   upec.sweep.retained_learnts  the workers' live learnt clauses (gauge)
  // Call it on the calling thread between sweeps.
  util::MetricsSnapshot metrics() const;

  // The worker backends. backend(0) answers check() and is the miter's model
  // source; tests inspect supervised internals through the others.
  sat::SolverBackend& backend(unsigned w) { return *backends_[w]; }

  // True iff snapshot preprocessing is active.
  bool preprocessing() const { return simplifier_ != nullptr; }

private:
  sat::CnfStore& store_;
  SchedulerOptions options_;
  util::ThreadPool pool_;
  std::unique_ptr<sat::ClauseChannel> channel_;  // non-null iff sharing enabled
  std::vector<std::unique_ptr<sat::SolverBackend>> backends_;
  std::unique_ptr<sat::Simplifier> simplifier_;  // non-null iff preprocessing enabled
};

} // namespace upec::ipc
