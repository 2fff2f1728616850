// SolverBackend: a solving endpoint behind the shared clause database.
//
// A backend receives the formula exclusively through CnfSnapshot syncs and
// answers assumption-based queries; it never sees the encode layer. This is
// the seam that lets the check scheduler treat its workers uniformly: each
// worker holds one backend, either an in-process CDCL solver hydrated from
// the store (InprocBackend below) or a supervised external DIMACS solver
// with an in-proc fallback (sat/supervise.h over sat/pipe_backend.h).
#pragma once

#include <chrono>
#include <cstdint>

#include "sat/share.h"
#include "sat/snapshot.h"
#include "sat/solver.h"
#include "util/trace.h"

namespace upec::sat {

enum class SolveStatus : std::uint8_t { Sat, Unsat, Unknown };

inline const char* to_string(SolveStatus s) {
  switch (s) {
  case SolveStatus::Sat: return "sat";
  case SolveStatus::Unsat: return "unsat";
  case SolveStatus::Unknown: return "unknown";
  }
  return "unknown";
}

// Robustness counters for supervised backends: how often the
// endpoint answered, failed, was restarted, timed out, fell back to the
// in-proc solver, or got quarantined. Plain in-proc backends report zeros
// (they cannot fail externally). Aggregated per worker into the report.
struct BackendHealth {
  std::uint64_t solves = 0;
  std::uint64_t sat = 0;
  std::uint64_t unsat = 0;
  std::uint64_t unknown = 0;            // no answer after every recovery step
  std::uint64_t external_failures = 0;  // child solves that produced no verdict
  std::uint64_t restarts = 0;           // retry attempts after such failures
  std::uint64_t timeouts = 0;           // failures that were wall-clock hits
  std::uint64_t degraded_solves = 0;    // answered by the in-proc fallback
  bool quarantined = false;             // endpoint benched for this run
};

class SolverBackend : public ModelSource {
public:
  // Brings the backend's clause database up to `snap`. Every snapshot must
  // be a prefix, or a simplified generation of a prefix (sat/simplify.h), of
  // one original formula, and snapshots must come in non-decreasing order of
  // that prefix. A backend may therefore keep whatever it derived from an
  // earlier snapshot: it is implied by every later one.
  virtual void sync(const CnfSnapshot& snap) = 0;

  // Solves under assumptions against the last synced snapshot. Unknown means
  // a resource budget was exhausted.
  virtual SolveStatus solve(const std::vector<Lit>& assumptions) = 0;

  // After solve() returned Unsat: the subset of the assumptions responsible
  // (see Solver::conflict_assumptions). Empty when the formula itself is
  // UNSAT.
  virtual const std::vector<Lit>& unsat_core() const = 0;

  virtual const SolverStats& stats() const = 0;

  // Live learnt clauses, for the per-worker report breakdowns. Zero for
  // backends without an in-proc solver.
  virtual std::size_t live_learnts() const { return 0; }
  // Bytes reserved for clause storage by the in-proc solvers this backend
  // owns (see Solver::arena_bytes). Zero for backends without one.
  virtual std::size_t arena_bytes() const { return 0; }

  // Wall-clock deadline: solves started after set_deadline answer Unknown
  // (with last_timed_out() == true) once the clock passes `t`. Persists until
  // cleared. Backends honor it cooperatively (in-proc: restart boundaries and
  // conflict checkpoints) or through the OS (external children get killed).
  virtual void set_deadline(std::chrono::steady_clock::time_point /*t*/) {}
  virtual void clear_deadline() {}

  // True iff the last solve() returned Unknown because of the wall clock
  // (deadline or per-solve timeout), as opposed to a conflict budget or an
  // external-solver failure. Drives the `timed_out` reason in verification
  // reports.
  virtual bool last_timed_out() const { return false; }

  // Robustness counters (see BackendHealth). Zeros for plain backends.
  virtual BackendHealth health() const { return {}; }

  // Installs a progress heartbeat on every in-proc solver this backend owns
  // (see Solver::set_progress_hook). External children have no hook; their
  // lifecycles are traced instead. Default: no-op.
  virtual void set_progress(ProgressHook /*hook*/, std::uint64_t /*every_conflicts*/) {}
};

// In-process backend: owns a from-scratch CDCL solver kept in sync with the
// store via a replay cursor. Clauses and the solver's learned-clause database
// persist across solve calls, so a worker that is always handed the same
// slice of the problem benefits from incremental solving exactly like the
// single-solver setup did.
class InprocBackend final : public SolverBackend {
public:
  // With a channel, the backend's solver exports its learnt clauses (under
  // the channel's LBD/size caps) tagged with `worker_id` and imports foreign
  // clauses at its restart boundaries. `channel` must outlive the backend;
  // nullptr disables sharing entirely.
  explicit InprocBackend(std::uint64_t conflict_budget = 0, ClauseChannel* channel = nullptr,
                         unsigned worker_id = 0)
      : channel_(channel), worker_id_(worker_id) {
    solver_.set_conflict_budget(conflict_budget);
    if (channel_ != nullptr) {
      solver_.set_export_hook(
          [this](const std::vector<Lit>& lits, unsigned lbd) {
            channel_->publish(worker_id_, lits, lbd);
          },
          channel_->lbd_cap(), channel_->size_cap());
      solver_.set_import_hook([this](std::vector<SharedClause>& out) {
        channel_->collect(worker_id_, channel_cursor_, out);
      });
    }
  }

  // Replays the snapshot delta into the solver. When the snapshot's backing
  // store changes identity (preprocessing emits each simplified generation
  // into a fresh CnfStore), the solver drops only its problem clauses and
  // the whole new generation is added on top of what it kept: learnt and
  // imported clauses, root facts, activity and phases. The channel cursor
  // stays, so no clause is imported twice. This is sound under the sync
  // contract: everything kept is implied by the original prefix it came
  // from, hence by the new one, so UNSAT answers still hold for the original
  // formula; and a model of "generation + kept clauses" is a model of the
  // generation, which reconstructs to the original on frozen variables even
  // where a kept clause mentions a variable the generation eliminated.
  void sync(const CnfSnapshot& snap) override {
    util::trace::Span span("sync.inproc", "sat");
    span.arg("store", snap.store_id());
    if (snap.store_id() != store_id_) {
      solver_.drop_problem_clauses();
      store_id_ = snap.store_id();
      cursor_ = CnfSnapshot::Cursor{solver_.num_vars(), 0};
    }
    snap.load_into(solver_, cursor_);
  }

  SolveStatus solve(const std::vector<Lit>& assumptions) override {
    util::trace::Span span("solve.inproc", "solve");
    const std::uint64_t conflicts_before = solver_.stats().conflicts;
    const SolveStatus status = solve_impl(assumptions);
    span.arg("status", to_string(status));
    span.arg("conflicts", solver_.stats().conflicts - conflicts_before);
    return status;
  }

  const std::vector<Lit>& unsat_core() const override { return core_; }

  bool model_value(Lit l) const override { return solver_.model_value(l); }
  const SolverStats& stats() const override { return solver_.stats(); }
  std::size_t live_learnts() const override { return solver_.num_learnts(); }
  std::size_t arena_bytes() const override { return solver_.arena_bytes(); }

  void set_deadline(std::chrono::steady_clock::time_point t) override { solver_.set_deadline(t); }
  void clear_deadline() override { solver_.clear_deadline(); }
  bool last_timed_out() const override { return last_timed_out_; }
  void set_progress(ProgressHook hook, std::uint64_t every_conflicts) override {
    solver_.set_progress_hook(std::move(hook), every_conflicts);
  }

  Solver& solver() { return solver_; }
  const Solver& solver() const { return solver_; }

private:
  SolveStatus solve_impl(const std::vector<Lit>& assumptions) {
    core_.clear();
    last_timed_out_ = false;
    if (!solver_.okay()) return SolveStatus::Unsat; // formula UNSAT outright: empty core
    try {
      if (solver_.solve(assumptions)) return SolveStatus::Sat;
      core_ = solver_.conflict_assumptions();
      return SolveStatus::Unsat;
    } catch (const SolverInterrupted& e) {
      last_timed_out_ = e.reason == SolverInterrupted::Reason::Deadline;
      return SolveStatus::Unknown;
    }
  }

  Solver solver_;
  CnfSnapshot::Cursor cursor_;
  std::uint64_t store_id_ = 0;
  ClauseChannel* channel_ = nullptr;
  unsigned worker_id_ = 0;
  std::size_t channel_cursor_ = 0;
  std::vector<Lit> core_;
  bool last_timed_out_ = false;
};

} // namespace upec::sat
