// Supervised child processes for external solver backends.
//
// A Subprocess is one fork/exec'd child with its stdin and stdout piped to
// the parent. The API is built for talking to processes that may misbehave —
// hang, crash, stop reading input, or print garbage — so every blocking
// operation takes a wall-clock deadline (implemented with poll(2)) and
// shutdown always escalates SIGTERM → grace window → SIGKILL → reap. The
// child leads its own process group and the signals go to the whole group,
// so whatever it forked (the solver behind a wrapper script) dies with it.
// The destructor performs the same escalation with a zero grace window, so a
// Subprocess can never leak a zombie or leave an orphan running, no matter
// which error path dropped it.
//
// SIGPIPE note: writing to a child that died would otherwise kill *us* with
// SIGPIPE. spawn() ignores SIGPIPE process-wide once (the write then fails
// with EPIPE, which write_all reports as an ordinary error) — the standard
// posture for any process that talks to pipes it does not control.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace upec::util {

class Subprocess {
public:
  using Clock = std::chrono::steady_clock;

  // How a child left: normal exit (code), killed by a signal (sig), or — for
  // try_wait only — still running.
  struct ExitStatus {
    bool exited = false;    // normal termination
    int code = 0;           // exit code if exited
    bool signaled = false;  // killed by signal
    int sig = 0;            // the signal if signaled
  };

  Subprocess() = default;
  ~Subprocess();  // kill_and_reap() — never leaks a child

  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;

  // Forks and execs argv (argv[0] is the binary; PATH is searched). Returns
  // false without forking if argv is empty or a pipe/fork failed; exec
  // failure inside the child surfaces as exit code 127 on wait. Only one
  // child per Subprocess at a time (spawn on a running child fails).
  bool spawn(const std::vector<std::string>& argv);

  bool running() const { return pid_ > 0; }
  pid_t pid() const { return pid_; }

  // Writes all `n` bytes to the child's stdin, polling for writability until
  // `deadline`. Returns false on timeout, EPIPE (child died or closed its
  // stdin), or any other write error. A false return means the child cannot
  // be trusted with this query — callers terminate and report Unknown.
  bool write_all(const char* data, std::size_t n, Clock::time_point deadline);

  // Closes the write end (EOF for the child — DIMACS solvers start solving
  // on EOF). Idempotent.
  void close_stdin();

  // Appends everything the child prints to `out` until it closes stdout
  // (usually by exiting) or the deadline passes; `max_bytes` caps hostile
  // output floods. Returns true iff EOF was reached within deadline & cap.
  bool read_all(std::string& out, Clock::time_point deadline, std::size_t max_bytes);

  // Non-blocking reap. Returns true (and fills status) once the child is
  // gone; the pid is released.
  bool try_wait(ExitStatus& status);

  // SIGTERM, then up to `grace` for a voluntary exit, then SIGKILL, then a
  // blocking reap — each signal sent to the child's process group. Safe on
  // an already-exited child (its leftover descendants still get SIGKILL).
  // Returns the child's exit status.
  ExitStatus terminate(std::chrono::milliseconds grace);

  // terminate() with zero grace — the destructor's path, public for tests.
  ExitStatus kill_and_reap() { return terminate(std::chrono::milliseconds{0}); }

private:
  void close_fds();
  bool exited() const;  // the child has exited; it stays unreaped

  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
};

} // namespace upec::util
