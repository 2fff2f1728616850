// PipeBackend: a SolverBackend that delegates each query to an external
// DIMACS solver process.
//
// The backend is the untrusting half of a two-party protocol. It serializes
// the last synced CnfSnapshot plus the query's assumptions through
// write_dimacs into a fresh child (spawned per solve — DIMACS is stateless,
// which is exactly what makes restart-on-crash trivial for the supervisor
// above), then strictly parses the child's stdout. The parse mirrors
// read_dimacs's all-or-nothing discipline: anything short of a complete,
// well-formed `s SATISFIABLE` + terminated `v`-line model, or a bare
// `s UNSATISFIABLE`, yields Unknown. A claimed model is additionally
// validated against every snapshot clause and assumption before it is
// believed — a *lying* solver costs a solve, never a verdict. The only
// trusted claim is UNSAT, the same trust the scheduler places in its
// in-proc workers; everything else is checked.
//
// Self-exec fallback: the embedded CDCL solver doubles as the external
// binary. A host program whose main() calls self_solver_main() first can be
// spawned as its own solver child (argv from self_solver_argv), so tests and
// benchmarks exercise the full fork/pipe/parse path without depending on any
// system SAT solver — and the FaultInjector spec riding in that argv makes
// the child misbehave deterministically for the fault-tolerance suites.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sat/backend.h"
#include "sat/dimacs.h"
#include "util/subprocess.h"

namespace upec::sat {

// Result of strictly parsing an external solver's stdout. status is Unknown
// for anything malformed, with `error` carrying the first reason (surfaced in
// reports and asserted on by the hostile-output corpus tests).
struct SolverOutput {
  SolveStatus status = SolveStatus::Unknown;
  std::vector<LBool> model;  // indexed by 0-based Var; filled when Sat
  std::string error;
};

// All-or-nothing parse of `s`/`v`/`c` solver output. Strict where trusting
// would risk a wrong verdict: exactly one status line with the exact token,
// `v` lines only after `s SATISFIABLE`, every literal in [1, num_vars],
// no conflicting literals, a mandatory terminating 0 with nothing after it,
// and any unrecognized line (binary noise, junk) poisons the whole output.
SolverOutput parse_solver_output(std::string_view text, int num_vars);

// True iff `model` satisfies every clause of `snap` and every assumption
// (LBool::Undef satisfies nothing — a partial model must still cover every
// clause). This is the check that stops a lying SAT claim.
bool model_satisfies(const std::vector<LBool>& model, const CnfSnapshot& snap,
                     const std::vector<Lit>& assumptions);

struct PipeOptions {
  // Child command line; argv[0] is resolved through PATH. Defaults to the
  // self-exec solver when empty (see self_solver_argv).
  std::vector<std::string> argv;
  // Per-solve wall-clock ceiling covering spawn + write + solve + read.
  std::uint32_t solve_deadline_ms = 10'000;
  // SIGTERM → SIGKILL escalation window when the child must be stopped.
  std::uint32_t term_grace_ms = 200;
  // Cap on child stdout, against hostile output floods.
  std::size_t max_output_bytes = std::size_t{64} << 20;
};

class PipeBackend final : public SolverBackend {
public:
  explicit PipeBackend(PipeOptions options);

  void sync(const CnfSnapshot& snap) override { snap_ = snap; }

  // Spawn, stream DIMACS, parse, validate. Never blocks past the effective
  // deadline, never leaks the child (terminate + reap on every path), and
  // never returns a wrong verdict: all failure modes collapse to Unknown.
  SolveStatus solve(const std::vector<Lit>& assumptions) override;

  // After Unsat: the full assumption set (sorted, deduplicated). An external
  // solver emits no core, and the whole set is always a sound one — the
  // frontier pruner just gets no shrinkage from this backend.
  const std::vector<Lit>& unsat_core() const override { return core_; }

  bool model_value(Lit l) const override {
    const auto i = static_cast<std::size_t>(l.var());
    const bool v = i < model_.size() && model_[i] == LBool::True;
    return v != l.sign();
  }

  const SolverStats& stats() const override { return stats_; }

  // Optional absolute deadline (e.g. the verification run's global budget);
  // the effective per-solve deadline is the earlier of this and
  // options.solve_deadline_ms from solve entry.
  void set_deadline(std::chrono::steady_clock::time_point t) override { deadline_ = t; }
  void clear_deadline() override { deadline_.reset(); }

  // --- observability (supervisor decisions, fault-suite assertions) ----------
  // Last solve hit the wall clock (as opposed to crash/garbage).
  bool last_timed_out() const override { return last_timed_out_; }
  // Diagnostic for the last Unknown ("spawn failed", "child signaled 9", ...).
  const std::string& last_error() const { return last_error_; }
  // Pid of the last child — already reaped by the time solve() returned, so
  // tests can assert kill(pid, 0) == ESRCH (no zombie, no orphan).
  pid_t last_pid() const { return last_pid_; }
  util::Subprocess::ExitStatus last_exit() const { return last_exit_; }

private:
  PipeOptions options_;
  CnfSnapshot snap_;
  // Incremental DIMACS serialization: across the Alg. 1 / Alg. 2 loops the
  // snapshot grows by a few activation clauses per iteration while every solve
  // re-sends the whole formula — the cache re-serializes only the delta and
  // reuses the clause-body bytes for the (large) stable prefix.
  DimacsCache dimacs_cache_;
  std::vector<LBool> model_;
  std::vector<Lit> core_;
  SolverStats stats_;
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  bool last_timed_out_ = false;
  std::string last_error_;
  pid_t last_pid_ = -1;
  util::Subprocess::ExitStatus last_exit_;
};

// --- self-exec solver ---------------------------------------------------------
// Marker flag that turns an embedding binary into a DIMACS solver child:
//   <binary> --upec-dimacs-solver [fault-spec]
// reads DIMACS from stdin, solves with the in-process CDCL solver, and prints
// `s ...` / `v ...` to stdout (exit 10 SAT / 20 UNSAT, the DIMACS
// convention). The optional fault-spec (see sat/fault.h) injects one
// deterministic misbehavior.
inline constexpr char kSelfSolverFlag[] = "--upec-dimacs-solver";

// Call first thing in main(). Returns the process exit code when argv[1] is
// the self-solver flag, -1 otherwise (continue as the normal program).
int self_solver_main(int argc, char** argv);

// Command line that re-execs the current binary as a solver child.
std::vector<std::string> self_solver_argv(const std::string& fault_spec = "");

} // namespace upec::sat
