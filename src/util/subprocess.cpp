#include "util/subprocess.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>

#include "util/trace.h"

namespace upec::util {

namespace {

// Remaining milliseconds until `deadline`, clamped for poll(2): 0 when the
// deadline already passed (poll returns immediately), capped so a distant
// deadline cannot overflow the int timeout.
int poll_timeout(Subprocess::Clock::time_point deadline) {
  const auto left =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Subprocess::Clock::now())
          .count();
  if (left <= 0) return 0;
  return static_cast<int>(std::min<long long>(left, 60'000));
}

void ignore_sigpipe_once() {
  // A dead child's pipe must produce EPIPE, not kill the verifier.
  static const bool installed = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)installed;
}

Subprocess::ExitStatus decode(int raw) {
  Subprocess::ExitStatus st;
  if (WIFEXITED(raw)) {
    st.exited = true;
    st.code = WEXITSTATUS(raw);
  } else if (WIFSIGNALED(raw)) {
    st.signaled = true;
    st.sig = WTERMSIG(raw);
  }
  return st;
}

} // namespace

Subprocess::~Subprocess() {
  if (running()) kill_and_reap();
  close_fds();
}

void Subprocess::close_fds() {
  if (stdin_fd_ >= 0) ::close(stdin_fd_);
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  stdin_fd_ = -1;
  stdout_fd_ = -1;
}

bool Subprocess::spawn(const std::vector<std::string>& argv) {
  if (running() || argv.empty()) return false;
  ignore_sigpipe_once();

  int in_pipe[2];   // parent writes -> child stdin
  int out_pipe[2];  // child stdout -> parent reads
  if (::pipe(in_pipe) != 0) return false;
  if (::pipe(out_pipe) != 0) {
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    return false;
  }

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    return false;
  }

  if (pid == 0) {
    // Child. Lead a fresh process group, so terminate() reaches whatever the
    // child forks (a wrapper script's solver); route the pipes to
    // stdin/stdout, drop every parent-side fd, and exec. Only
    // async-signal-safe calls from here on.
    ::setpgid(0, 0);
    ::dup2(in_pipe[0], STDIN_FILENO);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    ::execvp(cargv[0], cargv.data());
    _exit(127);  // exec failed; 127 is the shell convention for "not found"
  }

  // Parent. Set the group here too, so no signal can race the child's own
  // setpgid (this call fails harmlessly once the child has exec'd). Keep our
  // ends non-blocking: all waiting happens in poll(2) so deadlines hold even
  // against a child that never reads or never writes.
  ::setpgid(pid, pid);
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  stdin_fd_ = in_pipe[1];
  stdout_fd_ = out_pipe[0];
  ::fcntl(stdin_fd_, F_SETFL, O_NONBLOCK);
  ::fcntl(stdout_fd_, F_SETFL, O_NONBLOCK);
  ::fcntl(stdin_fd_, F_SETFD, FD_CLOEXEC);
  ::fcntl(stdout_fd_, F_SETFD, FD_CLOEXEC);
  pid_ = pid;
  trace::instant("subprocess.spawn", "subprocess");
  return true;
}

bool Subprocess::write_all(const char* data, std::size_t n, Clock::time_point deadline) {
  if (stdin_fd_ < 0) return false;
  std::size_t off = 0;
  while (off < n) {
    struct pollfd pfd = {stdin_fd_, POLLOUT, 0};
    const int pr = ::poll(&pfd, 1, poll_timeout(deadline));
    if (pr == 0) {
      if (Clock::now() >= deadline) return false;  // child stopped draining its stdin
      continue;  // poll slice (capped at 60 s) expired, deadline not reached
    }
    if (pr < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if ((pfd.revents & (POLLERR | POLLNVAL)) != 0) return false;
    const ssize_t w = ::write(stdin_fd_, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return false;  // EPIPE et al.: the child is gone or closed its stdin
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

void Subprocess::close_stdin() {
  if (stdin_fd_ >= 0) ::close(stdin_fd_);
  stdin_fd_ = -1;
}

bool Subprocess::read_all(std::string& out, Clock::time_point deadline, std::size_t max_bytes) {
  if (stdout_fd_ < 0) return false;
  char buf[4096];
  for (;;) {
    struct pollfd pfd = {stdout_fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, poll_timeout(deadline));
    if (pr == 0) {
      if (Clock::now() >= deadline) return false;  // deadline, stream still open: hang
      continue;  // poll slice (capped at 60 s) expired, deadline not reached
    }
    if (pr < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    const ssize_t r = ::read(stdout_fd_, buf, sizeof buf);
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return false;
    }
    if (r == 0) return true;  // EOF: the child closed stdout (usually exited)
    if (out.size() + static_cast<std::size_t>(r) > max_bytes) return false;  // output flood
    out.append(buf, static_cast<std::size_t>(r));
  }
}

bool Subprocess::try_wait(ExitStatus& status) {
  if (!running()) return false;
  int raw = 0;
  const pid_t r = ::waitpid(pid_, &raw, WNOHANG);
  if (r != pid_) return false;
  status = decode(raw);
  pid_ = -1;
  trace::instant("subprocess.exit", "subprocess");
  return true;
}

bool Subprocess::exited() const {
  // WNOWAIT leaves the child a zombie: its pid, and so its process group id,
  // stays reserved until the reap, so signalling the group stays safe.
  siginfo_t info{};
  return ::waitid(P_PID, static_cast<id_t>(pid_), &info, WEXITED | WNOHANG | WNOWAIT) == 0 &&
         info.si_pid == pid_;
}

Subprocess::ExitStatus Subprocess::terminate(std::chrono::milliseconds grace) {
  trace::Span span("subprocess.terminate", "subprocess");
  ExitStatus status;
  if (!running()) return status;
  close_stdin();  // EOF first: a well-behaved child exits on its own

  // Signals go to the child's whole process group (see spawn): descendants
  // die with it instead of outliving it holding inherited fds.
  if (!exited()) {
    ::kill(-pid_, SIGTERM);
    const auto deadline = Clock::now() + grace;
    while (Clock::now() < deadline && !exited()) {
      struct timespec ts = {0, 2'000'000};  // 2 ms between reap polls
      ::nanosleep(&ts, nullptr);
    }
  }

  // Grace expired, or the child is gone but may have left descendants: no
  // more chances. SIGKILL cannot be caught, so the blocking reap below
  // terminates (the DAOS lesson: a supervisor that "shuts down nicely"
  // forever is itself a hang). Should the group not exist, the child itself
  // still gets the signal, so the reap cannot block forever.
  if (::kill(-pid_, SIGKILL) != 0) ::kill(pid_, SIGKILL);
  int raw = 0;
  while (::waitpid(pid_, &raw, 0) < 0 && errno == EINTR) {
  }
  status = decode(raw);
  pid_ = -1;
  close_fds();
  return status;
}

} // namespace upec::util
