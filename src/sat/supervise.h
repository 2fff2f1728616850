// SupervisedBackend: fault-tolerant wrapper around an external solver.
//
// PipeBackend turns child misbehavior into Unknown; this layer turns Unknown
// back into answers. Policy, in order:
//   1. Retry. A crash or garbage output is retried with exponential backoff,
//      up to max_restarts fresh children per solve (DIMACS is stateless, so a
//      retry is a complete re-submission — no state to reconcile).
//   2. Don't retry timeouts. A wall-clock hit already consumed the query's
//      budget; retrying a hang doubles the damage. Degrade immediately.
//   3. Quarantine. quarantine_after consecutive solves that ended in
//      degradation bench the external endpoint for the rest of the run —
//      a solver that keeps crashing is a tax on every query, not a resource.
//   4. Degrade. Whatever the external path could not answer goes to an
//      embedded InprocBackend, which shares the verification run's clause
//      channel like any ordinary worker. The caller sees a slower answer,
//      never a missing one.
//
// The net contract the fault suites pin: a misbehaving external solver costs
// wall-clock time, never a verdict, never a wrong verdict, never a zombie.
#pragma once

#include <cstdint>
#include <utility>

#include "sat/backend.h"
#include "sat/pipe_backend.h"

namespace upec::sat {

struct SuperviseOptions {
  // Fresh-child retries per solve after a non-timeout external failure.
  unsigned max_restarts = 2;
  // Consecutive degraded solves before the external endpoint is benched.
  unsigned quarantine_after = 3;
  // Base backoff before the first retry; doubles per retry. Kept small: the
  // common crash is deterministic and backoff only helps transient causes
  // (fd pressure, fork storms).
  std::uint32_t backoff_ms = 10;
};

class SupervisedBackend final : public SolverBackend {
public:
  // The in-proc fallback is configured like a normal worker backend
  // (conflict budget, optional clause channel + globally unique worker id).
  SupervisedBackend(PipeOptions pipe, SuperviseOptions options,
                    std::uint64_t fallback_conflict_budget = 0, ClauseChannel* channel = nullptr,
                    unsigned worker_id = 0);

  void sync(const CnfSnapshot& snap) override;
  SolveStatus solve(const std::vector<Lit>& assumptions) override;
  const std::vector<Lit>& unsat_core() const override;
  bool model_value(Lit l) const override;
  const SolverStats& stats() const override;

  std::size_t live_learnts() const override { return fallback_.live_learnts(); }
  std::size_t arena_bytes() const override { return fallback_.arena_bytes(); }

  void set_deadline(std::chrono::steady_clock::time_point t) override;
  void clear_deadline() override;
  // The heartbeat comes from the in-proc fallback, the only solver here
  // with a conflict loop; the external child has none.
  void set_progress(ProgressHook hook, std::uint64_t every_conflicts) override {
    fallback_.set_progress(std::move(hook), every_conflicts);
  }
  bool last_timed_out() const override { return last_timed_out_; }
  BackendHealth health() const override { return health_; }

  PipeBackend& external() { return pipe_; }
  InprocBackend& fallback() { return fallback_; }

private:
  PipeBackend pipe_;
  InprocBackend fallback_;
  SuperviseOptions options_;
  BackendHealth health_;
  unsigned consecutive_degraded_ = 0;
  bool answered_by_fallback_ = false;
  bool last_timed_out_ = false;
  mutable SolverStats stats_agg_;
};

} // namespace upec::sat
