#include "ipc/scheduler.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <string>

#include "sat/metrics.h"
#include "util/trace.h"

namespace upec::ipc {

namespace {

unsigned worker_count(const SchedulerOptions& o) { return o.threads == 0 ? 1 : o.threads; }

// The one fan-out test: more than one worker, or an external endpoint (the
// second solver behind a supervised worker). It gates the clause channel (a
// lone solver only reads its own publishes), snapshot preprocessing (see
// SchedulerOptions::preprocess) and the worker threads (a single in-proc
// worker runs inline on the caller).
bool fans_out(const SchedulerOptions& o) {
  return worker_count(o) > 1 || !o.external_argv.empty();
}

} // namespace

CheckScheduler::CheckScheduler(sat::CnfStore& store, SchedulerOptions options)
    : store_(store),
      options_(std::move(options)),
      pool_(fans_out(options_) ? worker_count(options_) : 0) {
  const unsigned n = worker_count(options_);
  if (options_.share_clauses && fans_out(options_)) {
    channel_ = std::make_unique<sat::ClauseChannel>();
  }

  sat::PipeOptions pipe;
  pipe.argv = options_.external_argv;
  pipe.solve_deadline_ms = options_.external_deadline_ms;

  backends_.reserve(n);
  for (unsigned w = 0; w < n; ++w) {
    // Channel id w: each worker has at most one in-proc solver that publishes
    // (its own, or the supervised backend's fallback).
    std::unique_ptr<sat::SolverBackend> backend;
    if (!options_.external_argv.empty()) {
      backend = std::make_unique<sat::SupervisedBackend>(pipe, options_.supervise,
                                                         options_.conflict_budget, channel_.get(),
                                                         w);
    } else {
      backend = std::make_unique<sat::InprocBackend>(options_.conflict_budget, channel_.get(), w);
    }
    if (options_.deadline) backend->set_deadline(*options_.deadline);
    if (options_.progress_every != 0 && options_.progress) {
      backend->set_progress(
          [cb = options_.progress, w](const sat::SolverProgress& p) { cb(w, p); },
          options_.progress_every);
    }
    backends_.push_back(std::move(backend));
  }

  // Preprocessing needs the frozen-variable contract (see SchedulerOptions).
  // It pays off because one snapshot serves the whole sweep and generations
  // persist across iterations.
  if (options_.preprocess && options_.frozen_vars && fans_out(options_)) {
    simplifier_ = std::make_unique<sat::Simplifier>(options_.simplify);
  }
}

util::MetricsSnapshot CheckScheduler::metrics() const {
  // Every aggregate is a registry merge (counters sum, gauges max): the total
  // is the merge of the worker rows.
  util::MetricsSnapshot out;
  util::MetricsSnapshot total;
  std::uint64_t live_learnts = 0;
  for (unsigned w = 0; w < workers(); ++w) {
    const sat::SolverBackend& backend = *backends_[w];
    const std::string k = std::to_string(w);
    const std::string wp = "sat.solver.w" + k + ".";
    util::MetricsSnapshot wm;
    sat::append_metrics(wm, backend.stats());
    out.merge_prefixed(wp, wm);
    total.merge(wm);

    util::MetricsSnapshot hm;
    sat::append_metrics(hm, backend.health());
    out.merge_prefixed("sat.health.w" + k + ".", hm);
    // Gauges stay outside the sat.solver.* tree, so the identity
    // total == sum of workers covers counters only.
    out.set_gauge("sat.arena_bytes.w" + k, backend.arena_bytes());
    live_learnts += backend.live_learnts();
  }
  out.merge_prefixed("sat.solver.total.", total);

  out.add_counter("sat.channel.published", channel_ ? channel_->published() : 0);
  out.add_counter("sat.channel.exported", total.get("exported_clauses"));
  out.add_counter("sat.channel.imported", total.get("imported_clauses"));
  out.set_gauge("sat.channel.bytes", channel_ ? channel_->bytes() : 0);
  util::MetricsSnapshot sm;
  sat::append_metrics(sm, simplifier_ ? simplifier_->stats() : sat::SimplifyStats{});
  out.merge_prefixed("sat.simplify.", sm);
  out.set_gauge("upec.sweep.retained_learnts", live_learnts);
  return out;
}

SweepResult CheckScheduler::sweep(encode::Miter& miter,
                                  const std::vector<encode::Lit>& assumptions,
                                  const std::vector<rtlir::StateVarId>& candidates,
                                  unsigned frame) {
  util::trace::Span span("scheduler.sweep", "ipc");
  span.arg("candidates", static_cast<std::uint64_t>(candidates.size()));
  span.arg("workers", std::uint64_t{workers()});
  span.arg("frame", std::uint64_t{frame});
  SweepResult result;
  const auto t0 = std::chrono::steady_clock::now();
  const unsigned W = workers();
  std::vector<std::uint64_t> conflicts_before;
  conflicts_before.reserve(W);
  for (const auto& b : backends_) conflicts_before.push_back(b->stats().conflicts);

  // Single batch registration on the calling thread: one CNF emission
  // regardless of worker count, so the number of clauses the store holds at
  // each sweep (and every snapshot cursor) is identical across thread
  // counts and runs. Their content need not be: an Alg. 2 frame lemma
  // carries the core of whichever worker answered, so at threads > 1 the
  // lemma clauses can differ from run to run. After the first sweep over
  // these candidates this is a no-op and the store does not grow at all.
  miter.register_candidates(candidates, frame);
  const sat::CnfSnapshot snap = store_.snapshot();

  // Preprocess the sweep snapshot on the calling thread: one simplification
  // (or a generation-cache hit) serves every worker below. When the store
  // grew since the last generation, only the new clauses are simplified, on
  // top of it (sat/simplify.h). The frozen set is the encode/upec layers'
  // declaration plus this sweep's own assumption variables — everything a
  // worker will assume or read back. Activation and diff literals are
  // covered by the provider (Miter::frozen_vars).
  sat::CnfSnapshot view = snap;
  if (simplifier_ != nullptr) {
    std::vector<sat::Var> frozen = options_.frozen_vars();
    frozen.reserve(frozen.size() + assumptions.size());
    for (encode::Lit l : assumptions) frozen.push_back(l.var());
    view = simplifier_->simplify(snap, frozen);
  }

  // Round-robin partition: chunk w owns every W-th candidate. Candidates
  // arrive in ascending StateVarId order (StateSet::to_vector), so chunks
  // stay balanced as S shrinks across iterations. Activation and diff
  // literals are looked up here, on the calling thread — registration above
  // made both pure map reads — so workers never touch the miter at all.
  struct Candidate {
    rtlir::StateVarId sv;
    encode::Lit activation;
    encode::Lit diff;
  };
  std::vector<std::vector<Candidate>> chunk(W);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const rtlir::StateVarId sv = candidates[i];
    chunk[i % W].push_back(
        Candidate{sv, miter.activation_literal(sv, frame), miter.diff_literal(sv, frame)});
  }

  // One task per worker, one barrier: each worker scans its chunk one
  // candidate per solve, assuming that candidate's activation literal true
  // (the query is exactly "diff(sv) satisfiable"). A model retires every
  // still-unresolved chunk member it proves differing; an UNSAT answer
  // retires the candidate with a per-candidate refutation core. The chunk
  // partition only decides which queries get asked — each candidate is
  // either individually proven differing (its diff literal true in some
  // model) or individually refuted — so the merged frontier is the semantic
  // set {sv : diff(sv) satisfiable} regardless of W or model order.
  std::vector<std::vector<rtlir::StateVarId>> differing(W);
  std::vector<std::vector<SweepResult::UnsatGroup>> groups(W);
  std::vector<char> chunk_unknown(W, 0);
  std::vector<char> chunk_timeout(W, 0);
  std::vector<std::function<void()>> tasks;
  for (unsigned w = 0; w < W; ++w) {
    if (chunk[w].empty()) continue;
    tasks.push_back([this, w, &view, &assumptions, &chunk, &differing, &groups, &chunk_unknown,
                     &chunk_timeout] {
      sat::SolverBackend& backend = *backends_[w];
      backend.sync(view);
      const std::vector<Candidate>& mine = chunk[w];
      std::vector<char> resolved(mine.size(), 0);
      for (std::size_t i = 0; i < mine.size(); ++i) {
        if (resolved[i]) continue;
        std::vector<encode::Lit> as = assumptions;
        as.push_back(mine[i].activation);
        const sat::SolveStatus status = backend.solve(as);
        if (status == sat::SolveStatus::Unknown) {
          chunk_unknown[w] = 1;
          chunk_timeout[w] = backend.last_timed_out() ? 1 : 0;
          return;
        }
        if (status == sat::SolveStatus::Unsat) {
          resolved[i] = 1;
          groups[w].push_back(SweepResult::UnsatGroup{{mine[i].sv}, backend.unsat_core()});
          continue;
        }
        bool harvested = false;
        for (std::size_t j = 0; j < mine.size(); ++j) {
          if (resolved[j] || !backend.model_value(mine[j].diff)) continue;
          resolved[j] = 1;
          differing[w].push_back(mine[j].sv);
          harvested = true;
        }
        if (!harvested) {
          // The query assumed diff(mine[i].sv) true; a model showing no
          // difference means the diff literals and the model disagree.
          chunk_unknown[w] = 1;
          return;
        }
      }
    });
  }
  pool_.run_all(std::move(tasks));

  // Deterministic merge, ascending worker index, after the barrier.
  bool unknown = false;
  for (unsigned w = 0; w < W; ++w) {
    if (chunk_unknown[w]) unknown = true;
    if (chunk_timeout[w]) result.timed_out = true;
    result.differing.insert(result.differing.end(), differing[w].begin(), differing[w].end());
    for (auto& g : groups[w]) result.unsat_groups.push_back(std::move(g));

    result.conflicts += backends_[w]->stats().conflicts - conflicts_before[w];
  }
  std::sort(result.differing.begin(), result.differing.end());
  result.status = unknown                    ? CheckStatus::Unknown
                  : result.differing.empty() ? CheckStatus::Holds
                                             : CheckStatus::Violated;
  result.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

CheckResult CheckScheduler::check(const std::vector<encode::Lit>& assumptions,
                                  std::vector<encode::Lit>* core) {
  util::trace::Span span("scheduler.check", "ipc");
  span.arg("assumptions", static_cast<std::uint64_t>(assumptions.size()));
  if (core != nullptr) core->clear();
  sat::SolverBackend& backend = *backends_[0];
  const sat::SolverStats before = backend.stats();
  const auto t0 = std::chrono::steady_clock::now();
  backend.sync(store_.snapshot());
  const sat::SolveStatus status = backend.solve(assumptions);

  CheckResult result;
  result.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const sat::SolverStats delta = backend.stats() - before;
  result.conflicts = delta.conflicts;
  result.decisions = delta.decisions;
  result.propagations = delta.propagations;
  switch (status) {
  case sat::SolveStatus::Sat: result.status = CheckStatus::Violated; break;
  case sat::SolveStatus::Unsat:
    result.status = CheckStatus::Holds;
    if (core != nullptr) *core = backend.unsat_core();
    break;
  case sat::SolveStatus::Unknown:
    result.status = CheckStatus::Unknown;
    result.timed_out = backend.last_timed_out();
    break;
  }
  return result;
}

} // namespace upec::ipc
