#include "sat/pipe_backend.h"

#include <csignal>
#include <cstdio>
#include <cstring>
#include <charconv>
#include <algorithm>
#include <iostream>
#include <sstream>
#include <time.h>
#include <unistd.h>

#include "sat/dimacs.h"
#include "sat/fault.h"
#include "util/trace.h"

namespace upec::sat {

namespace {

// Whole-token integer parse; rejects partial consumption (so a token with an
// embedded NUL or stray bytes from binary noise is malformed, never a prefix
// silently accepted).
bool parse_long(std::string_view tok, long& out) {
  const char* first = tok.data();
  const char* last = tok.data() + tok.size();
  auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc() && ptr == last;
}

std::string_view next_token(std::string_view& rest) {
  const std::size_t begin = rest.find_first_not_of(" \t");
  if (begin == std::string_view::npos) {
    rest = {};
    return {};
  }
  std::size_t end = rest.find_first_of(" \t", begin);
  if (end == std::string_view::npos) end = rest.size();
  std::string_view tok = rest.substr(begin, end - begin);
  rest.remove_prefix(end);
  return tok;
}

std::string_view rstrip(std::string_view s) {
  while (!s.empty() && (s.back() == '\r' || s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

} // namespace

SolverOutput parse_solver_output(std::string_view text, int num_vars) {
  SolverOutput out;
  const auto fail = [&out](std::string why) {
    out.status = SolveStatus::Unknown;
    out.model.clear();
    if (out.error.empty()) out.error = std::move(why);
    return out;
  };

  bool saw_status = false;
  bool claimed_sat = false;
  bool model_done = false;
  std::vector<LBool> model(static_cast<std::size_t>(num_vars < 0 ? 0 : num_vars), LBool::Undef);

  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    std::string_view line = text.substr(pos, nl == std::string_view::npos ? text.size() - pos
                                                                          : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    line = rstrip(line);
    if (line.empty()) continue;
    if (line[0] == 'c') continue; // comment (DIMACS convention: line start only)

    if (line[0] == 's') {
      if (saw_status) return fail("duplicate status line");
      const std::string_view claim = rstrip(line.substr(1));
      std::string_view rest = claim;
      const std::string_view tok = next_token(rest);
      if (!rest.empty() || tok.empty()) return fail("malformed status line");
      if (tok == "SATISFIABLE") {
        claimed_sat = true;
      } else if (tok != "UNSATISFIABLE") {
        return fail("unrecognized status line");
      }
      saw_status = true;
      continue;
    }

    if (line[0] == 'v') {
      if (!saw_status || !claimed_sat) return fail("model line without SAT status");
      if (model_done) return fail("model line after terminating 0");
      std::string_view rest = line.substr(1);
      for (;;) {
        const std::string_view tok = next_token(rest);
        if (tok.empty()) break;
        long v = 0;
        if (!parse_long(tok, v)) return fail("non-numeric model token");
        if (v == 0) {
          if (!next_token(rest).empty()) return fail("model token after terminating 0");
          model_done = true;
          break;
        }
        const long var1 = v < 0 ? -v : v;
        if (var1 > num_vars) return fail("model literal out of range");
        auto& slot = model[static_cast<std::size_t>(var1 - 1)];
        const LBool val = v > 0 ? LBool::True : LBool::False;
        if (slot != LBool::Undef && slot != val) return fail("conflicting model literals");
        slot = val;
      }
      continue;
    }

    return fail("unrecognized output line"); // junk / binary noise
  }

  if (!saw_status) return fail("no status line");
  if (!claimed_sat) {
    out.status = SolveStatus::Unsat;
    return out;
  }
  if (!model_done) return fail("model missing terminating 0");
  out.status = SolveStatus::Sat;
  out.model = std::move(model);
  return out;
}

bool model_satisfies(const std::vector<LBool>& model, const CnfSnapshot& snap,
                     const std::vector<Lit>& assumptions) {
  const auto lit_true = [&model](Lit l) {
    const auto i = static_cast<std::size_t>(l.var());
    if (i >= model.size()) return false;
    return model[i] == (l.sign() ? LBool::False : LBool::True);
  };
  for (Lit a : assumptions) {
    if (!lit_true(a)) return false;
  }
  bool ok = true;
  snap.for_each_clause([&](const std::vector<Lit>& clause) {
    if (!ok) return;
    bool satisfied = false;
    for (Lit l : clause) {
      if (lit_true(l)) {
        satisfied = true;
        break;
      }
    }
    if (!satisfied) ok = false;
  });
  return ok;
}

PipeBackend::PipeBackend(PipeOptions options) : options_(std::move(options)) {
  if (options_.argv.empty()) options_.argv = self_solver_argv();
}

SolveStatus PipeBackend::solve(const std::vector<Lit>& assumptions) {
  util::trace::Span span("solve.external", "solve");
  span.arg("assumptions", static_cast<std::uint64_t>(assumptions.size()));
  ++stats_.solve_calls;
  model_.clear();
  core_.clear();
  last_error_.clear();
  last_timed_out_ = false;
  last_exit_ = {};

  const auto now = std::chrono::steady_clock::now();
  auto deadline = now + std::chrono::milliseconds(options_.solve_deadline_ms);
  if (deadline_ && *deadline_ < deadline) deadline = *deadline_;
  const auto grace = std::chrono::milliseconds(options_.term_grace_ms);
  const auto unknown = [this](std::string why, bool timed_out = false) {
    last_error_ = std::move(why);
    last_timed_out_ = timed_out;
    return SolveStatus::Unknown;
  };
  if (deadline <= now) return unknown("deadline already expired", true);

  util::Subprocess child;
  if (!child.spawn(options_.argv)) return unknown("spawn failed");
  last_pid_ = child.pid();

  // Stream the query. A child that stops reading (or died) fails the write
  // by deadline/EPIPE — either way it cannot be trusted with this query.
  std::ostringstream dimacs;
  dimacs_cache_.write(dimacs, snap_, assumptions);
  const std::string text = std::move(dimacs).str();
  if (!child.write_all(text.data(), text.size(), deadline)) {
    last_exit_ = child.terminate(grace);
    return unknown("child stopped reading the formula",
                   std::chrono::steady_clock::now() >= deadline);
  }
  child.close_stdin(); // EOF: DIMACS solvers start solving here

  std::string output;
  const bool eof = child.read_all(output, deadline, options_.max_output_bytes);
  // Always reap before judging the output — no path may leak a child, and
  // the exit status feeds the supervisor's crash/timeout classification.
  last_exit_ = child.terminate(grace);
  if (!eof) {
    const bool timed_out = std::chrono::steady_clock::now() >= deadline;
    return unknown(timed_out ? "solve deadline exceeded" : "output flood cap exceeded",
                   timed_out);
  }

  // The verdict rides on the *content*, not the exit style: a child killed
  // after printing a complete well-formed answer already answered. Anything
  // incomplete was rejected by the strict parse below regardless.
  SolverOutput parsed = parse_solver_output(output, snap_.num_vars());
  if (parsed.status == SolveStatus::Unknown) {
    std::string why = parsed.error;
    if (last_exit_.signaled) {
      why += " (child killed by signal " + std::to_string(last_exit_.sig) + ")";
    } else if (last_exit_.exited && last_exit_.code != 0 && last_exit_.code != 10 &&
               last_exit_.code != 20) {
      why += " (child exit code " + std::to_string(last_exit_.code) + ")";
    }
    return unknown(std::move(why));
  }
  if (parsed.status == SolveStatus::Sat) {
    if (!model_satisfies(parsed.model, snap_, assumptions)) {
      return unknown("claimed model does not satisfy the formula");
    }
    model_ = std::move(parsed.model);
    return SolveStatus::Sat;
  }
  core_ = assumptions;
  std::sort(core_.begin(), core_.end());
  core_.erase(std::unique(core_.begin(), core_.end()), core_.end());
  return SolveStatus::Unsat;
}

// --- self-exec solver ---------------------------------------------------------

namespace {

void sleep_ms(unsigned ms) {
  timespec ts{static_cast<time_t>(ms / 1000), static_cast<long>(ms % 1000) * 1'000'000L};
  while (nanosleep(&ts, &ts) != 0) {
  }
}

// Line-oriented stdout writer applying the fault spec: crash-after-N-lines
// SIGKILLs *before* the (N+1)-th line, slow-write sleeps before every line.
// Each line is flushed so a later crash cannot retroactively swallow it.
struct FaultyWriter {
  FaultInjector fault;
  unsigned lines = 0;

  void line(const std::string& s) {
    if (fault.kind == FaultInjector::Kind::CrashAfterLines && lines >= fault.arg) {
      std::fflush(stdout);
      raise(SIGKILL);
    }
    if (fault.kind == FaultInjector::Kind::SlowWrite) sleep_ms(fault.arg);
    std::fwrite(s.data(), 1, s.size(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
    ++lines;
  }
};

void emit_model(FaultyWriter& w, const Solver& solver, bool truncate) {
  const int n = solver.num_vars();
  std::string line = "v";
  int emitted = 0;
  const int limit = truncate ? std::max(1, n / 2) : n;
  for (int v = 0; v < limit; ++v) {
    line += solver.model_value(static_cast<Var>(v)) ? ' ' + std::to_string(v + 1)
                                                    : " -" + std::to_string(v + 1);
    if (++emitted == 16) {
      w.line(line);
      line = "v";
      emitted = 0;
    }
  }
  if (truncate) {
    // Killed-mid-print shape: flush what we have, no terminating 0, exit.
    if (line != "v") w.line(line);
    return;
  }
  w.line(line + " 0");
}

int run_self_solver(const FaultInjector& fault) {
  Solver solver;
  const bool parsed = read_dimacs(std::cin, solver);

  if (fault.kind == FaultInjector::Kind::Hang) {
    // Alive but silent, and deaf to SIGTERM — forces the supervisor all the
    // way down its SIGTERM → grace → SIGKILL ladder.
    std::signal(SIGTERM, SIG_IGN);
    for (;;) pause();
  }
  if (fault.kind == FaultInjector::Kind::Garbage) {
    static constexpr unsigned char noise[] = {0x7f, 'E',  'L',  'F',  0x00, 0xff, 0x01, 's',
                                              ' ',  'M',  'A',  'Y',  'B',  'E',  0x0a, 0xfe,
                                              0x00, 0x0a, 'v',  ' ',  'q',  0x0a, 0x80, 0x81};
    std::fwrite(noise, 1, sizeof(noise), stdout);
    std::fflush(stdout);
    return 0;
  }

  FaultyWriter w{fault};
  if (!parsed) {
    w.line("c parse error on stdin"); // no status line: parent reads Unknown
    return 1;
  }
  if (fault.kind == FaultInjector::Kind::BogusModel) {
    // Lie: claim SAT with an all-false assignment regardless of the real
    // verdict. The parent's model validation must catch this.
    w.line("s SATISFIABLE");
    std::string line = "v";
    for (int v = 1; v <= solver.num_vars(); ++v) {
      line += " -" + std::to_string(v);
      if (v % 16 == 0) {
        w.line(line);
        line = "v";
      }
    }
    w.line(line + " 0");
    return 10;
  }

  const bool sat = solver.okay() && solver.solve();
  if (!sat) {
    w.line("s UNSATISFIABLE");
    return 20;
  }
  w.line("s SATISFIABLE");
  emit_model(w, solver, fault.kind == FaultInjector::Kind::PartialModel);
  return 10;
}

} // namespace

int self_solver_main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], kSelfSolverFlag) != 0) return -1;
  const FaultInjector fault = FaultInjector::parse(argc >= 3 ? argv[2] : "");
  return run_self_solver(fault);
}

std::vector<std::string> self_solver_argv(const std::string& fault_spec) {
  std::vector<std::string> argv{"/proc/self/exe", kSelfSolverFlag};
  if (!fault_spec.empty()) argv.push_back(fault_spec);
  return argv;
}

} // namespace upec::sat
