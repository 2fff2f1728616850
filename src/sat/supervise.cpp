#include "sat/supervise.h"

#include <time.h>

namespace upec::sat {

namespace {

void sleep_backoff(std::uint32_t ms) {
  if (ms == 0) return;
  timespec ts{static_cast<time_t>(ms / 1000), static_cast<long>(ms % 1000) * 1'000'000L};
  while (nanosleep(&ts, &ts) != 0) {
  }
}

} // namespace

SupervisedBackend::SupervisedBackend(PipeOptions pipe, SuperviseOptions options,
                                     std::uint64_t fallback_conflict_budget,
                                     ClauseChannel* channel, unsigned worker_id)
    : pipe_(std::move(pipe)),
      fallback_(fallback_conflict_budget, channel, worker_id),
      options_(options) {}

void SupervisedBackend::sync(const CnfSnapshot& snap) {
  pipe_.sync(snap);
  fallback_.sync(snap);
}

void SupervisedBackend::set_deadline(std::chrono::steady_clock::time_point t) {
  pipe_.set_deadline(t);
  fallback_.set_deadline(t);
}

void SupervisedBackend::clear_deadline() {
  pipe_.clear_deadline();
  fallback_.clear_deadline();
}

SolveStatus SupervisedBackend::solve(const std::vector<Lit>& assumptions) {
  ++health_.solves;
  last_timed_out_ = false;
  answered_by_fallback_ = false;

  if (!health_.quarantined) {
    unsigned attempt = 0;
    for (;;) {
      const SolveStatus st = pipe_.solve(assumptions);
      if (st != SolveStatus::Unknown) {
        consecutive_degraded_ = 0;
        (st == SolveStatus::Sat ? health_.sat : health_.unsat) += 1;
        return st;
      }
      ++health_.external_failures;
      if (pipe_.last_timed_out()) {
        // The query's wall budget is spent — retrying a hang only doubles
        // the damage. Degrade this solve immediately.
        ++health_.timeouts;
        break;
      }
      if (attempt >= options_.max_restarts) break;
      ++attempt;
      ++health_.restarts;
      sleep_backoff(options_.backoff_ms << (attempt - 1));
    }
    if (++consecutive_degraded_ >= options_.quarantine_after) health_.quarantined = true;
  }

  // Graceful degradation: the embedded in-proc worker answers instead.
  ++health_.degraded_solves;
  answered_by_fallback_ = true;
  const SolveStatus st = fallback_.solve(assumptions);
  switch (st) {
    case SolveStatus::Sat: ++health_.sat; break;
    case SolveStatus::Unsat: ++health_.unsat; break;
    case SolveStatus::Unknown:
      ++health_.unknown;
      last_timed_out_ = fallback_.last_timed_out() || pipe_.last_timed_out();
      break;
  }
  return st;
}

const std::vector<Lit>& SupervisedBackend::unsat_core() const {
  return answered_by_fallback_ ? fallback_.unsat_core() : pipe_.unsat_core();
}

bool SupervisedBackend::model_value(Lit l) const {
  return answered_by_fallback_ ? fallback_.model_value(l) : pipe_.model_value(l);
}

const SolverStats& SupervisedBackend::stats() const {
  stats_agg_ = pipe_.stats();
  stats_agg_ += fallback_.stats();
  return stats_agg_;
}

} // namespace upec::sat
