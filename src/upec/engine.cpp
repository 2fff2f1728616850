#include "upec/engine.h"

namespace upec {

namespace {

// Fan-in for every solver's heartbeat: sample into the armed trace (as a
// counter track per source) and forward to the user callback. Purely
// observational on the solving thread — never touches the solver.
void relay_progress(const std::function<void(const ProgressEvent&)>& cb,
                    const std::string& source, const sat::SolverProgress& p) {
  if (util::trace::enabled()) {
    util::trace::counter("solver." + source + ".conflicts", p.conflicts);
    util::trace::counter("solver." + source + ".learnts", p.learnts);
  }
  if (cb) {
    ProgressEvent ev;
    ev.source = source;
    ev.conflicts = p.conflicts;
    ev.restarts = p.restarts;
    ev.learnts = p.learnts;
    ev.deadline_remaining_ms = p.deadline_remaining_ms;
    cb(ev);
  }
}

} // namespace

UpecContext::UpecContext(const soc::Soc& s, VerifyOptions opts)
    : soc(s),
      options(std::move(opts)),
      trace_session(options.trace_path.empty()
                        ? nullptr
                        : std::make_unique<util::trace::TraceSession>(options.trace_path)),
      svt(*s.design),
      store(),
      miter(store, *s.design, svt,
            encode::MiterOptions{.per_instance = soc::Soc::is_cpu_interface}),
      macros(miter, s, options.macros),
      pers(svt, s),
      run_deadline(options.deadline_ms > 0
                       ? std::optional(std::chrono::steady_clock::now() +
                                       std::chrono::milliseconds(options.deadline_ms))
                       : std::nullopt),
      scheduler(store, scheduler_options()),
      s_pers(StateSet::none(svt)) {
  miter.set_model_source(&scheduler.backend(0));
  miter.set_exempt(
      [this](encode::Miter& m, rtlir::StateVarId sv) { return macros.exempt_for(m, sv); });

  StateSet base = pers.s_pers();
  for (rtlir::StateVarId sv : base.to_vector()) {
    if (!options.s_pers_filter || options.s_pers_filter(sv)) s_pers.insert(sv);
  }
}

ipc::SchedulerOptions UpecContext::scheduler_options() {
  ipc::SchedulerOptions so;
  so.threads = options.threads;
  so.conflict_budget = options.conflict_budget;
  so.share_clauses = options.share_clauses;
  so.external_argv = options.external_solver;
  so.external_deadline_ms = options.external_deadline_ms;
  so.supervise = options.supervise;
  so.deadline = run_deadline;
  so.preprocess = options.preprocess;
  so.frozen_vars = [this] { return frozen_vars(); };
  if (options.progress_conflicts > 0) {
    so.progress_every = options.progress_conflicts;
    so.progress = [cb = options.progress](unsigned w, const sat::SolverProgress& p) {
      relay_progress(cb, "w" + std::to_string(w), p);
    };
  }
  return so;
}

std::vector<std::string> UpecContext::waveform_probes() const {
  return {soc::probe::kCpuGnt,       soc::probe::kHwpeProgress, soc::probe::kHwpeBusy,
          soc::probe::kHwpeGntPub,   soc::probe::kDmaBusy,      soc::probe::kTimerCount,
          soc::probe::kEventPending};
}

void UpecContext::touch_probes(unsigned max_frame) {
  util::trace::Span span("encode.touch_probes", "encode");
  span.arg("max_frame", std::uint64_t{max_frame});
  for (const std::string& name : waveform_probes()) {
    const rtlir::NetId net = soc.design->find_output(name);
    if (net == rtlir::kNullNet) continue;
    for (unsigned f = 0; f <= max_frame; ++f) {
      miter.inst_a().net_at(f, net);
      miter.inst_b().net_at(f, net);
    }
  }
}

std::vector<sat::Var> UpecContext::frozen_vars() const {
  std::vector<sat::Var> out;
  miter.frozen_vars(out);
  // Every already-encoded probe image bit, both instances, all frames: the
  // waveform extractor addresses these by name after a counterexample.
  for (const std::string& name : waveform_probes()) {
    const rtlir::NetId net = soc.design->find_output(name);
    if (net == rtlir::kNullNet) continue;
    for (const encode::UnrolledInstance* inst : {&miter.inst_a(), &miter.inst_b()}) {
      for (unsigned f = 0; f < inst->frames_encoded(); ++f) {
        if (const encode::Bits* bits = inst->find_net(f, net)) {
          for (encode::Lit l : *bits) out.push_back(l.var());
        }
      }
    }
  }
  return out;
}

Alg1Result verify_2cycle(const soc::Soc& soc, VerifyOptions options, const Alg1Options& alg) {
  UpecContext ctx(soc, std::move(options));
  return run_alg1(ctx, alg);
}

Alg2Result verify_unrolled(const soc::Soc& soc, VerifyOptions options, const Alg2Options& alg) {
  UpecContext ctx(soc, std::move(options));
  return run_alg2(ctx, alg);
}

VerifyOptions countermeasure_options() {
  VerifyOptions options;
  options.macros.victim_regions = {soc::AddrMap::kPrivRam};
  options.macros.firmware_constraints = true;
  return options;
}

} // namespace upec
