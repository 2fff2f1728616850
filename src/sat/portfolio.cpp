#include "sat/portfolio.h"

#include <thread>

namespace upec::sat {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Diversified restart pacing per member (member 0 keeps the default 100).
// Mixing short, long, and default units is the classic portfolio spread:
// short units favor SAT witnesses, long units favor UNSAT proofs.
constexpr unsigned kRestartUnits[] = {100, 40, 250, 140, 400, 70, 180, 550};

} // namespace

PortfolioBackend::PortfolioBackend(PortfolioOptions options, ClauseChannel* channel,
                                   unsigned worker_id_base) {
  const unsigned members = options.members == 0 ? 1 : options.members;
  std::uint64_t stream = options.seed;
  members_.reserve(members);
  for (unsigned m = 0; m < members; ++m) {
    auto backend =
        std::make_unique<InprocBackend>(options.conflict_budget, channel, worker_id_base + m);
    backend->solver().set_cancel_flag(&cancel_);
    const std::uint64_t member_seed = splitmix64(stream);
    if (m > 0) {
      backend->solver().set_restart_unit(
          kRestartUnits[m % (sizeof kRestartUnits / sizeof *kRestartUnits)]);
      backend->solver().set_phase_seed(member_seed | 1);  // nonzero: seeded phases on
    }
    all_.push_back(backend.get());
    members_.push_back(std::move(backend));
  }
  if (options.external) {
    external_ = std::make_unique<SupervisedBackend>(options.pipe, options.supervise,
                                                    options.conflict_budget, channel,
                                                    worker_id_base + members);
    external_->set_cancel_flag(&cancel_);
    all_.push_back(external_.get());
  }
  wins_.assign(all_.size(), 0);
}

void PortfolioBackend::sync(const CnfSnapshot& snap) {
  for (SolverBackend* b : all_) b->sync(snap);
}

void PortfolioBackend::set_deadline(std::chrono::steady_clock::time_point t) {
  for (SolverBackend* b : all_) b->set_deadline(t);
}

void PortfolioBackend::clear_deadline() {
  for (SolverBackend* b : all_) b->clear_deadline();
}

SolveStatus PortfolioBackend::solve(const std::vector<Lit>& assumptions) {
  util::trace::Span span("portfolio.race", "portfolio");
  span.arg("members", static_cast<std::uint64_t>(all_.size()));
  ++health_.solves;
  last_timed_out_ = false;
  winner_ = -1;
  cancel_.store(false, std::memory_order_relaxed);

  std::atomic<int> winner{-1};
  std::vector<SolveStatus> status(all_.size(), SolveStatus::Unknown);
  const auto race = [&](int m) {
    const SolveStatus st = all_[static_cast<std::size_t>(m)]->solve(assumptions);
    status[static_cast<std::size_t>(m)] = st;
    if (st != SolveStatus::Unknown) {
      int expected = -1;
      if (winner.compare_exchange_strong(expected, m)) {
        cancel_.store(true, std::memory_order_relaxed);
      }
    }
  };

  if (all_.size() == 1) {
    race(0);
  } else {
    std::vector<std::thread> racers;
    racers.reserve(all_.size() - 1);
    for (int m = 1; m < static_cast<int>(all_.size()); ++m) racers.emplace_back(race, m);
    race(0);  // member 0 races on the caller's thread
    for (std::thread& t : racers) t.join();  // barrier: no member outlives solve()
  }

  winner_ = winner.load(std::memory_order_relaxed);
  span.arg("winner",
           winner_ >= 0 ? std::to_string(winner_) : std::string("none"));
  if (winner_ < 0) {
    // Nobody answered: budgets/deadlines all around. Timed-out only if some
    // member actually hit the wall clock (losers cancelled by a winner can't
    // reach here — there is no winner).
    ++health_.unknown;
    for (const SolverBackend* b : all_) last_timed_out_ = last_timed_out_ || b->last_timed_out();
    return SolveStatus::Unknown;
  }
  ++wins_[static_cast<std::size_t>(winner_)];
  for (std::size_t m = 0; m < all_.size(); ++m) {
    if (static_cast<int>(m) != winner_ && status[m] == SolveStatus::Unknown) {
      ++health_.cancelled;
    }
  }
  const SolveStatus st = status[static_cast<std::size_t>(winner_)];
  (st == SolveStatus::Sat ? health_.sat : health_.unsat) += 1;
  return st;
}

const std::vector<Lit>& PortfolioBackend::unsat_core() const {
  return winner_ >= 0 ? all_[static_cast<std::size_t>(winner_)]->unsat_core() : no_core_;
}

bool PortfolioBackend::model_value(Lit l) const {
  return winner_ >= 0 && all_[static_cast<std::size_t>(winner_)]->model_value(l);
}

const SolverStats& PortfolioBackend::stats() const {
  stats_agg_ = {};
  for (const SolverBackend* b : all_) stats_agg_ += b->stats();
  return stats_agg_;
}

std::size_t PortfolioBackend::live_learnts() const {
  std::size_t n = 0;
  for (const SolverBackend* b : all_) n += b->live_learnts();
  return n;
}

std::size_t PortfolioBackend::arena_bytes() const {
  std::size_t n = 0;
  for (const SolverBackend* b : all_) n += b->arena_bytes();
  return n;
}

BackendHealth PortfolioBackend::health() const {
  BackendHealth h = health_;
  if (external_) h += external_->health();
  return h;
}

std::vector<SolverStats> PortfolioBackend::member_stats() const {
  std::vector<SolverStats> out;
  out.reserve(all_.size());
  for (const SolverBackend* b : all_) out.push_back(b->stats());
  return out;
}

void PortfolioBackend::set_progress(ProgressHook hook, std::uint64_t every_conflicts) {
  for (auto& m : members_) m->set_progress(hook, every_conflicts);
}

} // namespace upec::sat
