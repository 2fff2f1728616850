// Fault-tolerance suites for the external-solver stack: Subprocess
// supervision, the strict DIMACS-output parse, PipeBackend under every
// FaultInjector class, SupervisedBackend's retry/quarantine/degrade policy,
// and whole verification runs behind a hostile endpoint. The contract pinned
// throughout: a misbehaving external solver may cost time, never an answer,
// never a *wrong* answer, and never a leaked child.
//
// This binary re-execs itself as the solver child (sat::self_solver_main), so
// it defines its own main() — see the bottom of the file — and the whole
// fork/pipe/parse path runs without any system SAT solver installed.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "registry_rows.h"
#include "sat/backend.h"
#include "sat/dimacs.h"
#include "sat/fault.h"
#include "sat/pipe_backend.h"
#include "sat/supervise.h"
#include "upec/engine.h"
#include "util/subprocess.h"

namespace upec {
namespace {

using sat::LBool;
using sat::Lit;
using sat::SolveStatus;

// Once solve() returned, the child must be reaped: not running, not a zombie.
// kill(pid, 0) still succeeds on a zombie, so ESRCH is the full assertion.
void expect_reaped(pid_t pid) {
  ASSERT_GT(pid, 0);
  errno = 0;
  EXPECT_EQ(kill(pid, 0), -1) << "child " << pid << " still exists";
  EXPECT_EQ(errno, ESRCH);
}

// (x1 ∨ x2) ∧ (¬x1 ∨ x3): satisfiable; UNSAT under {¬x2, ¬x3}.
class FaultBackendTest : public ::testing::Test {
protected:
  void SetUp() override {
    for (int i = 0; i < 3; ++i) store_.new_var();
    store_.add_clause(std::vector<Lit>{Lit(0, false), Lit(1, false)});
    store_.add_clause(std::vector<Lit>{Lit(0, true), Lit(2, false)});
  }

  std::vector<Lit> unsat_assumptions() const { return {Lit(1, true), Lit(2, true)}; }

  sat::PipeOptions pipe_options(const std::string& fault_spec = "",
                                std::uint32_t deadline_ms = 10'000) const {
    sat::PipeOptions po;
    po.argv = sat::self_solver_argv(fault_spec);
    po.solve_deadline_ms = deadline_ms;
    po.term_grace_ms = 100;
    return po;
  }

  sat::CnfStore store_;
};

// --- strict output parse (hostile corpus) -----------------------------------

struct ParseCase {
  const char* name;
  const char* text;
  const char* error_substr;  // expected in SolverOutput::error
};

TEST(ParseSolverOutput, AcceptsWellFormedUnsat) {
  const sat::SolverOutput out = sat::parse_solver_output("c comment\ns UNSATISFIABLE\n", 3);
  EXPECT_EQ(out.status, SolveStatus::Unsat);
  EXPECT_TRUE(out.error.empty());
}

TEST(ParseSolverOutput, AcceptsWellFormedSatModel) {
  // Multi-v-line model, \r\n endings, no trailing newline on the last line.
  const sat::SolverOutput out =
      sat::parse_solver_output("s SATISFIABLE\r\nv 1 -2\r\nv 3 0", 3);
  ASSERT_EQ(out.status, SolveStatus::Sat);
  ASSERT_EQ(out.model.size(), 3u);
  EXPECT_EQ(out.model[0], LBool::True);
  EXPECT_EQ(out.model[1], LBool::False);
  EXPECT_EQ(out.model[2], LBool::True);
}

TEST(ParseSolverOutput, RejectsHostileCorpus) {
  const ParseCase cases[] = {
      {"empty", "", "no status line"},
      {"comments only", "c hi\nc there\n", "no status line"},
      {"truncated model", "s SATISFIABLE\nv 1 -2 3\n", "missing terminating 0"},
      {"conflicting literals", "s SATISFIABLE\nv 1 -1 0\n", "conflicting model literals"},
      {"wrong status", "s MAYBE\n", "unrecognized status line"},
      {"status with junk", "s SATISFIABLE yes really\nv 1 2 3 0\n", "malformed status line"},
      {"duplicate status", "s UNSATISFIABLE\ns UNSATISFIABLE\n", "duplicate status line"},
      {"model before status", "v 1 0\ns SATISFIABLE\n", "model line without SAT status"},
      {"model under unsat", "s UNSATISFIABLE\nv 1 0\n", "model line without SAT status"},
      {"literal out of range", "s SATISFIABLE\nv 1 4 0\n", "out of range"},
      {"non-numeric token", "s SATISFIABLE\nv 1 two 0\n", "non-numeric model token"},
      {"token after zero", "s SATISFIABLE\nv 1 0 2\n", "after terminating 0"},
      {"model after zero", "s SATISFIABLE\nv 1 0\nv 2 0\n", "after terminating 0"},
      {"junk line", "s SATISFIABLE\nwat\nv 1 0\n", "unrecognized output line"},
      {"binary noise", "\x7f\x45\x4c\x46\x01\xfe\ns SATISFIABLE\nv 1 0\n",
       "unrecognized output line"},
  };
  for (const ParseCase& c : cases) {
    SCOPED_TRACE(c.name);
    const sat::SolverOutput out = sat::parse_solver_output(c.text, 3);
    EXPECT_EQ(out.status, SolveStatus::Unknown);
    EXPECT_TRUE(out.model.empty());
    EXPECT_NE(out.error.find(c.error_substr), std::string::npos)
        << "error was: " << out.error;
  }
}

TEST(ParseSolverOutput, NulInsideTokenIsRejected) {
  const std::string text("s SATISFIABLE\nv 1\0 2 0\n", 23);
  const sat::SolverOutput out = sat::parse_solver_output(text, 3);
  EXPECT_EQ(out.status, SolveStatus::Unknown);
}

TEST(FaultInjectorSpec, ParseRoundTrips) {
  for (const char* spec : {"", "crash:3", "hang", "garbage", "partial", "slow:25", "bogus"}) {
    EXPECT_EQ(sat::FaultInjector::parse(spec).spec(), spec);
  }
  EXPECT_EQ(sat::FaultInjector::parse("no-such-fault").kind, sat::FaultInjector::Kind::None);
  EXPECT_EQ(sat::FaultInjector::parse("slow").arg, 50u);  // default sleep
}

// --- Subprocess supervision ---------------------------------------------------

TEST(Subprocess, RoundTripsThroughChildStdio) {
  util::Subprocess child;
  ASSERT_TRUE(child.spawn({"/bin/sh", "-c", "cat"}));
  const auto deadline = util::Subprocess::Clock::now() + std::chrono::seconds(10);
  const std::string msg = "hello through the pipe\n";
  ASSERT_TRUE(child.write_all(msg.data(), msg.size(), deadline));
  child.close_stdin();
  std::string out;
  ASSERT_TRUE(child.read_all(out, deadline, 1 << 20));
  EXPECT_EQ(out, msg);
  const util::Subprocess::ExitStatus st = child.terminate(std::chrono::milliseconds(100));
  EXPECT_TRUE(st.exited);
  EXPECT_EQ(st.code, 0);
}

TEST(Subprocess, DestructorNeverLeaksAChild) {
  pid_t pid = -1;
  {
    util::Subprocess child;
    ASSERT_TRUE(child.spawn({"/bin/sh", "-c", "sleep 100"}));
    pid = child.pid();
    // Dropped without terminate(): the destructor must kill and reap.
  }
  expect_reaped(pid);
}

TEST(Subprocess, TerminateEscalatesToSigkillOnTermIgnorers) {
  util::Subprocess child;
  ASSERT_TRUE(child.spawn(sat::self_solver_argv("hang")));
  const pid_t pid = child.pid();
  // The hang child parses stdin before misbehaving, so feed it a formula.
  const std::string dimacs = "p cnf 1 1\n1 0\n";
  const auto deadline = util::Subprocess::Clock::now() + std::chrono::seconds(10);
  ASSERT_TRUE(child.write_all(dimacs.data(), dimacs.size(), deadline));
  child.close_stdin();
  std::string out;
  EXPECT_FALSE(  // silent forever: the read must give up at its deadline
      child.read_all(out, util::Subprocess::Clock::now() + std::chrono::milliseconds(200),
                     1 << 20));
  const util::Subprocess::ExitStatus st = child.terminate(std::chrono::milliseconds(100));
  EXPECT_TRUE(st.signaled);
  EXPECT_EQ(st.sig, SIGKILL);  // SIGTERM was ignored; the ladder went all the way
  expect_reaped(pid);
}

TEST(Subprocess, ReadHonorsDeadlineAgainstSilentChild) {
  util::Subprocess child;
  ASSERT_TRUE(child.spawn({"/bin/sh", "-c", "sleep 100"}));
  std::string out;
  const auto t0 = util::Subprocess::Clock::now();
  EXPECT_FALSE(child.read_all(out, t0 + std::chrono::milliseconds(150), 1 << 20));
  EXPECT_LT(util::Subprocess::Clock::now() - t0, std::chrono::seconds(5));
  child.kill_and_reap();
}

TEST(Subprocess, KillReachesGrandchildren) {
  // A wrapper script that forks its solver: killing the wrapper must take
  // the solver down too. This process becomes a subreaper so the orphaned
  // grandchild is reparented here and its death can be observed
  // deterministically (whatever init does with zombies).
  ASSERT_EQ(prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
  util::Subprocess child;
  ASSERT_TRUE(child.spawn({"/bin/sh", "-c", "sleep 100 >/dev/null & echo $!; exec >&-; wait"}));
  std::string out;
  ASSERT_TRUE(child.read_all(out, util::Subprocess::Clock::now() + std::chrono::seconds(10),
                             1 << 20));
  const pid_t grandchild = static_cast<pid_t>(std::stol(out));
  ASSERT_GT(grandchild, 0);
  child.kill_and_reap();
  // SIGKILL is asynchronous: reap the grandchild as it dies.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (waitpid(grandchild, nullptr, WNOHANG) != grandchild &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  errno = 0;
  EXPECT_EQ(kill(grandchild, 0), -1) << "grandchild " << grandchild << " survived";
  EXPECT_EQ(errno, ESRCH);
  prctl(PR_SET_CHILD_SUBREAPER, 0);
}

// --- incremental DIMACS serialization (DimacsCache) ----------------------------

TEST(DimacsCache, ByteIdenticalToWriteDimacsAcrossGrowthAndStoreSwitch) {
  // PipeBackend streams DimacsCache output to the child instead of a fresh
  // write_dimacs — so the cache's bytes must match write_dimacs exactly on
  // every path: first serialization, assumption-only re-write, delta append
  // after store growth, and rebuild after a store switch.
  const auto uncached = [](const sat::CnfSnapshot& snap, const std::vector<Lit>& assumptions) {
    std::ostringstream os;
    sat::write_dimacs(os, snap, assumptions);
    return std::move(os).str();
  };
  const auto cached = [](sat::DimacsCache& cache, const sat::CnfSnapshot& snap,
                         const std::vector<Lit>& assumptions) {
    std::ostringstream os;
    cache.write(os, snap, assumptions);
    return std::move(os).str();
  };

  sat::CnfStore store;
  for (int i = 0; i < 3; ++i) store.new_var();
  store.add_clause(std::vector<Lit>{Lit(0, false), Lit(1, false)});
  store.add_clause(std::vector<Lit>{Lit(0, true), Lit(2, false)});

  sat::DimacsCache cache;
  const sat::CnfSnapshot s1 = store.snapshot();
  EXPECT_EQ(cached(cache, s1, {}), uncached(s1, {}));
  const std::uint64_t after_first = cache.bytes_serialized();
  EXPECT_GT(after_first, 0u);

  // Same snapshot, different assumptions: the clause body is reused verbatim.
  const std::vector<Lit> assumptions{Lit(1, true), Lit(2, true)};
  EXPECT_EQ(cached(cache, s1, assumptions), uncached(s1, assumptions));
  EXPECT_EQ(cache.bytes_serialized(), after_first);

  // Store growth: only the appended clause is serialized, output still exact.
  store.new_var();
  store.add_clause(std::vector<Lit>{Lit(2, true), Lit(3, false)});
  const sat::CnfSnapshot s2 = store.snapshot();
  const std::string full2 = uncached(s2, assumptions);
  EXPECT_EQ(cached(cache, s2, assumptions), full2);
  const std::uint64_t delta = cache.bytes_serialized() - after_first;
  EXPECT_GT(delta, 0u);
  EXPECT_LT(delta, after_first);  // strictly less than re-serializing the prefix

  // Store switch (new identity, e.g. a fresh preprocessor generation): the
  // stale body is dropped and the new formula serialized from scratch.
  sat::CnfStore other;
  for (int i = 0; i < 2; ++i) other.new_var();
  other.add_clause(std::vector<Lit>{Lit(0, false)});
  other.add_clause(std::vector<Lit>{Lit(1, true)});
  const sat::CnfSnapshot s3 = other.snapshot();
  EXPECT_EQ(cached(cache, s3, {}), uncached(s3, {}));

  // And back to the first store: the cache must not resurrect the other body.
  EXPECT_EQ(cached(cache, s2, assumptions), full2);
}

// --- PipeBackend end-to-end (self-exec solver) ---------------------------------

TEST_F(FaultBackendTest, SelfExecSolverAnswersSat) {
  sat::PipeBackend backend(pipe_options());
  backend.sync(store_.snapshot());
  ASSERT_EQ(backend.solve({}), SolveStatus::Sat) << backend.last_error();
  // The validated model must satisfy both clauses through model_value().
  EXPECT_TRUE(backend.model_value(Lit(0, false)) || backend.model_value(Lit(1, false)));
  EXPECT_TRUE(backend.model_value(Lit(0, true)) || backend.model_value(Lit(2, false)));
  expect_reaped(backend.last_pid());
}

TEST_F(FaultBackendTest, SelfExecSolverAnswersUnsatWithFullCore) {
  sat::PipeBackend backend(pipe_options());
  backend.sync(store_.snapshot());
  ASSERT_EQ(backend.solve(unsat_assumptions()), SolveStatus::Unsat) << backend.last_error();
  // External solvers emit no core; the full sorted assumption set stands in.
  std::vector<Lit> expected = unsat_assumptions();
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(backend.unsat_core(), expected);
  expect_reaped(backend.last_pid());
}

TEST_F(FaultBackendTest, EveryNonTimeoutFaultYieldsUnknownAndNoZombie) {
  for (const char* spec : {"crash:0", "crash:1", "garbage", "partial", "bogus"}) {
    SCOPED_TRACE(spec);
    sat::PipeBackend backend(pipe_options(spec));
    backend.sync(store_.snapshot());
    EXPECT_EQ(backend.solve({}), SolveStatus::Unknown);
    EXPECT_FALSE(backend.last_error().empty());
    EXPECT_FALSE(backend.last_timed_out());  // failures, not wall-clock hits
    expect_reaped(backend.last_pid());
  }
}

TEST_F(FaultBackendTest, BogusModelIsCaughtByValidation) {
  // The "bogus" child claims SAT with all variables false — which violates
  // (x1 ∨ x2). A lying solver must cost a solve, never a verdict.
  sat::PipeBackend backend(pipe_options("bogus"));
  backend.sync(store_.snapshot());
  EXPECT_EQ(backend.solve({}), SolveStatus::Unknown);
  EXPECT_NE(backend.last_error().find("does not satisfy"), std::string::npos)
      << backend.last_error();
  expect_reaped(backend.last_pid());
}

TEST_F(FaultBackendTest, HangingChildHitsDeadlineAndIsKilled) {
  sat::PipeBackend backend(pipe_options("hang", /*deadline_ms=*/250));
  backend.sync(store_.snapshot());
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(backend.solve({}), SolveStatus::Unknown);
  EXPECT_TRUE(backend.last_timed_out());
  // Deadline + SIGTERM grace + slack; never the child's "forever".
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
  EXPECT_TRUE(backend.last_exit().signaled);
  expect_reaped(backend.last_pid());
}

TEST_F(FaultBackendTest, SlowWriterHitsMidStreamDeadline) {
  // 400 ms per output line against a 150 ms budget: the read deadline must
  // fire mid-stream, not wait for the child to finish.
  sat::PipeBackend backend(pipe_options("slow:400", /*deadline_ms=*/150));
  backend.sync(store_.snapshot());
  EXPECT_EQ(backend.solve({}), SolveStatus::Unknown);
  EXPECT_TRUE(backend.last_timed_out());
  expect_reaped(backend.last_pid());
}

TEST_F(FaultBackendTest, MissingBinaryYieldsUnknown) {
  sat::PipeOptions po;
  po.argv = {"/nonexistent/not-a-solver"};
  po.solve_deadline_ms = 2'000;
  sat::PipeBackend backend(po);
  backend.sync(store_.snapshot());
  EXPECT_EQ(backend.solve({}), SolveStatus::Unknown);
  EXPECT_FALSE(backend.last_error().empty());
}

TEST_F(FaultBackendTest, ExpiredGlobalDeadlineShortCircuits) {
  sat::PipeBackend backend(pipe_options());
  backend.sync(store_.snapshot());
  backend.set_deadline(std::chrono::steady_clock::now() - std::chrono::seconds(1));
  EXPECT_EQ(backend.solve({}), SolveStatus::Unknown);
  EXPECT_TRUE(backend.last_timed_out());
  backend.clear_deadline();
  EXPECT_EQ(backend.solve({}), SolveStatus::Sat) << backend.last_error();
}

// --- SupervisedBackend policy ---------------------------------------------------

TEST_F(FaultBackendTest, SupervisorDegradesCrashingSolverToFallback) {
  sat::SuperviseOptions so;
  so.max_restarts = 2;
  so.backoff_ms = 1;
  sat::SupervisedBackend backend(pipe_options("crash:0"), so);
  backend.sync(store_.snapshot());
  // The external endpoint never answers, the caller still gets verdicts.
  EXPECT_EQ(backend.solve({}), SolveStatus::Sat);
  EXPECT_EQ(backend.solve(unsat_assumptions()), SolveStatus::Unsat);
  const sat::BackendHealth h = backend.health();
  EXPECT_EQ(h.solves, 2u);
  EXPECT_EQ(h.sat, 1u);
  EXPECT_EQ(h.unsat, 1u);
  EXPECT_EQ(h.degraded_solves, 2u);
  EXPECT_EQ(h.restarts, 4u);  // max_restarts retries per solve
  EXPECT_EQ(h.external_failures, 6u);  // (1 + max_restarts) children per solve
  expect_reaped(backend.external().last_pid());
}

TEST_F(FaultBackendTest, SupervisorQuarantinesAfterConsecutiveDegradations) {
  sat::SuperviseOptions so;
  so.max_restarts = 0;
  so.quarantine_after = 2;
  so.backoff_ms = 1;
  sat::SupervisedBackend backend(pipe_options("garbage"), so);
  backend.sync(store_.snapshot());
  EXPECT_EQ(backend.solve({}), SolveStatus::Sat);
  EXPECT_FALSE(backend.health().quarantined);
  EXPECT_EQ(backend.solve({}), SolveStatus::Sat);
  EXPECT_TRUE(backend.health().quarantined);
  // Quarantined: no further children are spawned, answers keep coming.
  const std::size_t children_before = backend.external().stats().solve_calls;
  EXPECT_EQ(backend.solve(unsat_assumptions()), SolveStatus::Unsat);
  EXPECT_EQ(backend.external().stats().solve_calls, children_before);
  EXPECT_EQ(backend.health().degraded_solves, 3u);
}

TEST_F(FaultBackendTest, SupervisorNeverRetriesTimeouts) {
  sat::SuperviseOptions so;
  so.max_restarts = 3;  // would triple the damage if timeouts were retried
  so.backoff_ms = 1;
  sat::SupervisedBackend backend(pipe_options("hang", /*deadline_ms=*/200), so);
  backend.sync(store_.snapshot());
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(backend.solve({}), SolveStatus::Sat);  // fallback answers
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
  const sat::BackendHealth h = backend.health();
  EXPECT_EQ(h.timeouts, 1u);
  EXPECT_EQ(h.restarts, 0u);  // degrade immediately, don't re-run the hang
  EXPECT_EQ(h.degraded_solves, 1u);
}

TEST_F(FaultBackendTest, HealthySupervisedSolverNeverDegrades) {
  sat::SupervisedBackend backend(pipe_options(), {});
  backend.sync(store_.snapshot());
  EXPECT_EQ(backend.solve({}), SolveStatus::Sat);
  EXPECT_EQ(backend.solve(unsat_assumptions()), SolveStatus::Unsat);
  const sat::BackendHealth h = backend.health();
  EXPECT_EQ(h.degraded_solves, 0u);
  EXPECT_EQ(h.external_failures, 0u);
  EXPECT_FALSE(h.quarantined);
}

// --- full verification stack under external faults ------------------------------

TEST(FaultEndToEnd, HostileExternalSolverCannotChangeTheVerdict) {
  // The whole Alg. 1 run with every worker solve first offered to a
  // garbage-printing external solver: the supervisor quarantines it after the
  // first degraded solve and the verdict must equal the in-proc baseline.
  soc::SocConfig cfg;
  cfg.pub_ram_words = 16;
  cfg.priv_ram_words = 8;
  const soc::Soc soc = soc::build_pulpissimo(cfg);

  Alg1Options alg;
  alg.extract_waveform = false;
  const Alg1Result baseline = verify_2cycle(soc, {}, alg);
  ASSERT_EQ(baseline.verdict, Verdict::Vulnerable);

  VerifyOptions options;
  options.external_solver = sat::self_solver_argv("garbage");
  options.supervise.max_restarts = 0;
  options.supervise.quarantine_after = 1;
  const Alg1Result hostile = verify_2cycle(soc, options, alg);

  EXPECT_EQ(hostile.verdict, baseline.verdict);
  EXPECT_EQ(hostile.persistent_hits, baseline.persistent_hits);
  EXPECT_EQ(hostile.full_cex, baseline.full_cex);
  const util::MetricsSnapshot& m = hostile.metrics;
  ASSERT_EQ(worker_rows(m), 1u);
  ASSERT_TRUE(m.has("sat.health.w0.quarantined"));
  EXPECT_EQ(m.get("sat.health.w0.quarantined"), 1u);
  EXPECT_GE(m.get("sat.health.w0.external_failures"), 1u);
  EXPECT_GE(m.get("sat.health.w0.degraded_solves"), 1u);
}

TEST(FaultEndToEnd, HostileExternalSolverCannotChangeTheFrontiersAtTwoWorkers) {
  // Both scheduler workers offer every solve to a garbage-printing external
  // solver first (no retries, quarantine after one degraded solve). On both
  // headline scenarios the verdict and every frontier must equal the
  // threads=1 in-proc run.
  soc::SocConfig cfg;
  cfg.pub_ram_words = 8;
  cfg.priv_ram_words = 4;
  const soc::Soc soc = soc::build_pulpissimo(cfg);
  Alg1Options alg;
  alg.extract_waveform = false;

  struct Scenario {
    const char* name;
    VerifyOptions options;
    Verdict expected;
  };
  for (const Scenario& sc : {Scenario{"detect", {}, Verdict::Vulnerable},
                             Scenario{"secure", countermeasure_options(), Verdict::Secure}}) {
    SCOPED_TRACE(sc.name);
    const Alg1Result baseline = verify_2cycle(soc, sc.options, alg);
    ASSERT_EQ(baseline.verdict, sc.expected);

    VerifyOptions options = sc.options;
    options.threads = 2;
    options.external_solver = sat::self_solver_argv("garbage");
    options.supervise.max_restarts = 0;
    options.supervise.quarantine_after = 1;
    const Alg1Result hostile = verify_2cycle(soc, options, alg);

    EXPECT_EQ(hostile.verdict, baseline.verdict);
    ASSERT_EQ(hostile.iterations.size(), baseline.iterations.size());
    for (std::size_t i = 0; i < baseline.iterations.size(); ++i) {
      EXPECT_EQ(hostile.iterations[i].removed, baseline.iterations[i].removed)
          << "iteration " << i;
    }
    EXPECT_EQ(hostile.persistent_hits, baseline.persistent_hits);
    EXPECT_EQ(hostile.full_cex, baseline.full_cex);
    EXPECT_TRUE(hostile.final_s == baseline.final_s);
    // Each worker's endpoint answered garbage on its first solve and was
    // benched; the in-proc fallback answered the rest.
    const util::MetricsSnapshot& m = hostile.metrics;
    ASSERT_EQ(worker_rows(m), 2u);
    for (const char* w : {"w0", "w1"}) {
      const std::string hp = std::string("sat.health.") + w + ".";
      ASSERT_TRUE(m.has(hp + "solves")) << w;
      EXPECT_GT(m.get(hp + "solves"), 0u) << w;
      EXPECT_EQ(m.get(hp + "quarantined"), 1u) << w;
    }
  }
}

TEST(FaultEndToEnd, ProgressHeartbeatOutlivesAQuarantinedEndpoint) {
  // Both workers' endpoints are benched after their first garbage answer,
  // so the in-proc fallbacks do all the solving: their heartbeat must still
  // reach VerifyOptions::progress.
  soc::SocConfig cfg;
  cfg.pub_ram_words = 8;
  cfg.priv_ram_words = 4;
  const soc::Soc soc = soc::build_pulpissimo(cfg);
  Alg1Options alg;
  alg.extract_waveform = false;

  VerifyOptions options;
  options.threads = 2;
  options.external_solver = sat::self_solver_argv("garbage");
  options.supervise.max_restarts = 0;
  options.supervise.quarantine_after = 1;
  options.progress_conflicts = 50;
  std::atomic<std::uint64_t> events{0};
  options.progress = [&](const ProgressEvent&) { events.fetch_add(1); };
  const Alg1Result r = verify_2cycle(soc, options, alg);

  EXPECT_EQ(r.verdict, Verdict::Vulnerable);
  for (const char* w : {"w0", "w1"}) {
    EXPECT_EQ(r.metrics.get(std::string("sat.health.") + w + ".quarantined"), 1u) << w;
  }
  EXPECT_GT(events.load(), 0u);
}

} // namespace
} // namespace upec

// Self-exec hook: when spawned with the solver flag this process *is* the
// external DIMACS solver (plus its injected fault) and must never run the
// test suite — which is why this file links gtest, not gtest_main.
int main(int argc, char** argv) {
  const int solver_rc = upec::sat::self_solver_main(argc, argv);
  if (solver_rc >= 0) return solver_rc;
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
