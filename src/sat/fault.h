// Deterministic fault injection for the external-solver path.
//
// The supervision stack (sat/supervise.h) exists because real external
// solvers crash, hang, get OOM-killed mid-print, and emit garbage. None of
// those happen on demand in CI, so the embedded self-exec solver
// (sat::self_solver_main) accepts a fault spec and misbehaves *on purpose*,
// in exactly one of the ways below, at a deterministic point in its output.
// test_external_faults drives every class through the full backend →
// supervisor → scheduler path and asserts the contract: a faulty solver may
// cost time, never an answer — and never a *wrong* answer.
//
// Specs are the wire format (they ride in the child's argv):
//   ""          — behave correctly
//   "crash:N"   — SIGKILL self after writing N output lines (OOM-kill shape)
//   "hang"      — ignore SIGTERM and sleep forever instead of answering
//                 (forces the supervisor's SIGTERM → grace → SIGKILL ladder)
//   "garbage"   — print binary noise instead of a result, exit 0
//   "partial"   — print `s SATISFIABLE` and a truncated `v` line with no
//                 terminating 0, exit 0 (killed-mid-print shape)
//   "slow:MS"   — sleep MS milliseconds before each output line (tests the
//                 mid-stream read deadline)
//   "bogus"     — claim SAT with a fabricated all-false model regardless of
//                 the real verdict (a *lying* solver; caught by the
//                 backend's model validation against the snapshot)
#pragma once

#include <string>
#include <string_view>

namespace upec::sat {

struct FaultInjector {
  enum class Kind : unsigned char {
    None,
    CrashAfterLines,
    Hang,
    Garbage,
    PartialModel,
    SlowWrite,
    BogusModel,
  };

  Kind kind = Kind::None;
  unsigned arg = 0;  // lines for crash, milliseconds for slow

  static FaultInjector parse(std::string_view spec) {
    FaultInjector f;
    const std::size_t colon = spec.find(':');
    const std::string_view name = spec.substr(0, colon);
    unsigned arg = 0;
    if (colon != std::string_view::npos) {
      for (char c : spec.substr(colon + 1)) {
        if (c < '0' || c > '9') break;
        arg = arg * 10 + static_cast<unsigned>(c - '0');
      }
    }
    if (name == "crash") {
      f.kind = Kind::CrashAfterLines;
      f.arg = arg;
    } else if (name == "hang") {
      f.kind = Kind::Hang;
    } else if (name == "garbage") {
      f.kind = Kind::Garbage;
    } else if (name == "partial") {
      f.kind = Kind::PartialModel;
    } else if (name == "slow") {
      f.kind = Kind::SlowWrite;
      f.arg = arg == 0 ? 50 : arg;
    } else if (name == "bogus") {
      f.kind = Kind::BogusModel;
    }
    return f;
  }

  std::string spec() const {
    switch (kind) {
      case Kind::None: return "";
      case Kind::CrashAfterLines: return "crash:" + std::to_string(arg);
      case Kind::Hang: return "hang";
      case Kind::Garbage: return "garbage";
      case Kind::PartialModel: return "partial";
      case Kind::SlowWrite: return "slow:" + std::to_string(arg);
      case Kind::BogusModel: return "bogus";
    }
    return "";
  }
};

} // namespace upec::sat
