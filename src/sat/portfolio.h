// PortfolioBackend: races diverse solver configurations on one query,
// first definitive answer wins.
//
// Members are in-proc CDCL solvers over the same synced snapshot, each with a
// different restart pacing and initial-phase stream (member 0 keeps the
// default configuration, so a 1-member portfolio behaves exactly like a plain
// InprocBackend). Members exchange learnt clauses through the run's
// ClauseChannel like ordinary workers — a portfolio is sharing plus racing.
// Optionally one supervised external solver joins the race.
//
// Determinism: racing is safe because answers are *semantic*. A SAT answer
// carries a model the caller validates/harvests against the snapshot; an
// UNSAT answer's core is sound from any member. Which member wins can vary
// run to run — which verdict comes back cannot. (test_determinism pins the
// end-to-end consequence: identical verification results with the portfolio
// on or off.)
//
// Loser cancellation: the winner flips a shared atomic; in-proc losers abort
// at their next conflict/decision (SolverInterrupted{Cancelled}, solver left
// at level 0 and reusable), an external loser's child I/O aborts within
// ~10 ms and the child is terminated. solve() joins every member before
// returning, so no member touches shared state after the barrier.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sat/backend.h"
#include "sat/supervise.h"

namespace upec::sat {

struct PortfolioOptions {
  // In-proc racers; 0 is normalized to 1. Member m > 0 gets a diversified
  // restart unit and a seeded initial-phase stream derived from `seed`.
  unsigned members = 2;
  std::uint64_t conflict_budget = 0;
  std::uint64_t seed = 0x5eedULL;
  // Optionally race one supervised external solver alongside the in-proc
  // members ("supervised portfolio mode").
  bool external = false;
  PipeOptions pipe;
  SuperviseOptions supervise;
};

class PortfolioBackend final : public SolverBackend {
public:
  // Members publish/import on `channel` with ids worker_id_base + m — the
  // caller must keep these globally unique across all backends on the
  // channel (the scheduler uses worker * members_per_worker + m).
  explicit PortfolioBackend(PortfolioOptions options, ClauseChannel* channel = nullptr,
                            unsigned worker_id_base = 0);

  void sync(const CnfSnapshot& snap) override;
  SolveStatus solve(const std::vector<Lit>& assumptions) override;
  const std::vector<Lit>& unsat_core() const override;
  bool model_value(Lit l) const override;
  const SolverStats& stats() const override;  // summed over members

  std::size_t live_learnts() const override;
  std::size_t arena_bytes() const override;

  void set_deadline(std::chrono::steady_clock::time_point t) override;
  void clear_deadline() override;
  bool last_timed_out() const override { return last_timed_out_; }
  BackendHealth health() const override;
  // One entry per participant (in-proc members, then the external racer),
  // summing exactly to stats() — the report's member breakdown.
  std::vector<SolverStats> member_stats() const override;
  // Forwards the heartbeat to every in-proc member. The external child has
  // no hook; its lifecycle shows up in the trace instead.
  void set_progress(ProgressHook hook, std::uint64_t every_conflicts) override;

  unsigned member_count() const { return static_cast<unsigned>(all_.size()); }
  // Which member answered each won solve (a diversity diagnostic).
  const std::vector<std::uint64_t>& member_wins() const { return wins_; }
  int last_winner() const { return winner_; }
  InprocBackend& inproc_member(unsigned m) { return *members_[m]; }
  SupervisedBackend* external_member() { return external_.get(); }

private:
  std::vector<std::unique_ptr<InprocBackend>> members_;
  std::unique_ptr<SupervisedBackend> external_;
  std::vector<SolverBackend*> all_;  // members_ then external_
  std::atomic<bool> cancel_{false};
  int winner_ = -1;
  std::vector<std::uint64_t> wins_;
  BackendHealth health_;
  bool last_timed_out_ = false;
  mutable SolverStats stats_agg_;
  std::vector<Lit> no_core_;
};

} // namespace upec::sat
