#include "sat/simplify.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/trace.h"

namespace upec::sat {

namespace {

std::uint64_t sig_of(const Clause& lits) {
  std::uint64_t s = 0;
  for (Lit l : lits) s |= 1ull << (static_cast<std::uint32_t>(l.index()) & 63u);
  return s;
}

// One simplification run's working state: occurrence-list clause database
// with root-level assignments, a subsumption work queue, and the elimination
// record. Every pass iterates in a fixed order and every budget is an
// operation counter, so the run is a pure function of its input.
struct Work {
  const SimplifyOptions& opt;
  SimplifyStats& stats;

  int nvars;
  const std::vector<char>& frozen;
  std::vector<LBool> assigns;
  std::vector<char> eliminated;

  struct Cls {
    Clause lits;  // sorted by Lit::index(), deduplicated, never tautological
    std::uint64_t sig = 0;
    bool deleted = false;
  };
  std::vector<Cls> clauses;
  std::vector<std::vector<std::uint32_t>> occ;  // literal index -> clause ids

  std::vector<Lit> unit_queue;  // enqueued root assignments, FIFO
  std::vector<std::uint32_t> subq;  // clauses to (re)consider for subsumption
  std::vector<char> in_subq;

  std::vector<std::pair<Var, std::vector<Clause>>> elim;  // reconstruction stack
  std::vector<Lit> probe_trail;

  // Reusable scratch. occ_buf holds a copy of an occurrence list that the
  // loop walking it mutates (propagate, backward/self subsumption; a
  // committed elimination's pos then neg lists); resolvent is the output of
  // resolve().
  std::vector<std::uint32_t> occ_buf;
  Clause resolvent;

  bool unsat = false;
  bool changed = false;
  std::uint64_t sub_budget;
  std::uint64_t probe_budget;

  Work(const SimplifyOptions& o, SimplifyStats& s, int vars, const std::vector<char>& frozen_flags)
      : opt(o),
        stats(s),
        nvars(vars),
        frozen(frozen_flags),
        assigns(static_cast<std::size_t>(vars), LBool::Undef),
        eliminated(static_cast<std::size_t>(vars), 0),
        occ(static_cast<std::size_t>(vars) * 2),
        sub_budget(o.subsumption_budget),
        probe_budget(o.probe_budget) {}

  LBool value(Lit l) const {
    const LBool v = assigns[static_cast<std::size_t>(l.var())];
    return l.sign() ? lbool_not(v) : v;
  }

  void occ_remove(std::int32_t lit_index, std::uint32_t cid) {
    std::vector<std::uint32_t>& list = occ[static_cast<std::size_t>(lit_index)];
    auto it = std::find(list.begin(), list.end(), cid);
    if (it != list.end()) {
      *it = list.back();
      list.pop_back();
    }
  }

  void detach(std::uint32_t cid) {
    Cls& c = clauses[cid];
    if (c.deleted) return;
    c.deleted = true;
    for (Lit l : c.lits) occ_remove(l.index(), cid);
    c.lits.clear();
    c.lits.shrink_to_fit();
  }

  void push_subq(std::uint32_t cid) {
    if (!opt.subsumption || in_subq[cid]) return;
    in_subq[cid] = 1;
    subq.push_back(cid);
  }

  void enqueue_unit(Lit l) {
    const LBool v = value(l);
    if (v == LBool::True) return;
    if (v == LBool::False) {
      unsat = true;
      return;
    }
    assigns[static_cast<std::size_t>(l.var())] = l.sign() ? LBool::False : LBool::True;
    unit_queue.push_back(l);
    ++stats.fixed_vars;
    changed = true;
  }

  // Normalizes and stores a clause: sort, dedup, drop tautologies and
  // satisfied clauses, strip false literals, route units to the queue.
  void add_clause(Clause c) {
    if (unsat) return;
    std::sort(c.begin(), c.end());
    Clause f;
    f.reserve(c.size());
    for (Lit l : c) {
      const LBool v = value(l);
      if (v == LBool::True) return;  // satisfied at root
      if (v == LBool::False) continue;
      if (!f.empty() && f.back() == l) continue;            // duplicate literal
      if (!f.empty() && f.back().var() == l.var()) return;  // tautology (l, ~l)
      f.push_back(l);
    }
    if (f.empty()) {
      unsat = true;
      return;
    }
    if (f.size() == 1) {
      enqueue_unit(f[0]);
      return;
    }
    const auto cid = static_cast<std::uint32_t>(clauses.size());
    Cls cls;
    cls.sig = sig_of(f);
    cls.lits = std::move(f);
    for (Lit l : cls.lits) occ[static_cast<std::size_t>(l.index())].push_back(cid);
    clauses.push_back(std::move(cls));
    in_subq.push_back(0);
    push_subq(cid);
  }

  // Root-level BCP over occurrence lists: satisfied clauses are detached,
  // falsified literals are stripped (re-enqueueing shrunk-to-unit clauses).
  void propagate() {
    std::size_t qi = 0;
    while (qi < unit_queue.size() && !unsat) {
      const Lit l = unit_queue[qi++];
      occ_buf = occ[static_cast<std::size_t>(l.index())];
      for (std::uint32_t cid : occ_buf) detach(cid);
      occ_buf = occ[static_cast<std::size_t>((~l).index())];
      for (std::uint32_t cid : occ_buf) {
        Cls& d = clauses[cid];
        if (d.deleted) continue;
        auto it = std::find(d.lits.begin(), d.lits.end(), ~l);
        if (it == d.lits.end()) continue;
        d.lits.erase(it);
        occ_remove((~l).index(), cid);
        d.sig = sig_of(d.lits);
        if (d.lits.empty()) {
          unsat = true;
          return;
        }
        if (d.lits.size() == 1) enqueue_unit(d.lits[0]);
        push_subq(cid);
      }
    }
    if (!unsat) unit_queue.clear();
  }

  bool spend(std::uint64_t& budget, std::uint64_t cost) {
    if (budget < cost) {
      budget = 0;
      return false;
    }
    budget -= cost;
    return true;
  }

  // a ⊆ b over index-sorted clauses.
  static bool subset(const Clause& a, const Clause& b) {
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i].index() == b[j].index()) {
        ++i;
        ++j;
      } else if (a[i].index() > b[j].index()) {
        ++j;
      } else {
        return false;
      }
    }
    return i == a.size();
  }

  // (a \ {a[skip]}) ⊆ b.
  static bool subset_except(const Clause& a, std::size_t skip, const Clause& b) {
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
      if (i == skip) {
        ++i;
        continue;
      }
      if (a[i].index() == b[j].index()) {
        ++i;
        ++j;
      } else if (a[i].index() > b[j].index()) {
        ++j;
      } else {
        return false;
      }
    }
    return i == a.size() || (i == skip && i + 1 == a.size());
  }

  void strengthen(std::uint32_t cid, Lit drop) {
    Cls& d = clauses[cid];
    auto it = std::find(d.lits.begin(), d.lits.end(), drop);
    if (it == d.lits.end()) return;
    d.lits.erase(it);
    occ_remove(drop.index(), cid);
    d.sig = sig_of(d.lits);
    ++stats.strengthened_clauses;
    changed = true;
    if (d.lits.empty()) {
      unsat = true;
      return;
    }
    if (d.lits.size() == 1) enqueue_unit(d.lits[0]);
    push_subq(cid);
  }

  // Backward subsumption: delete every clause that contains `cid` entirely.
  // Only other clauses are detached and `clauses` does not grow, so `c`
  // stays valid; the candidate list is copied because detach edits it.
  void backward_subsume(std::uint32_t cid) {
    const Clause& c = clauses[cid].lits;
    const std::uint64_t sig = clauses[cid].sig;
    std::size_t best = 0;
    for (std::size_t i = 1; i < c.size(); ++i) {
      if (occ[static_cast<std::size_t>(c[i].index())].size() <
          occ[static_cast<std::size_t>(c[best].index())].size()) {
        best = i;
      }
    }
    occ_buf = occ[static_cast<std::size_t>(c[best].index())];
    for (std::uint32_t did : occ_buf) {
      if (did == cid) continue;
      const Cls& d = clauses[did];
      if (d.deleted || d.lits.size() < c.size()) continue;
      if ((sig & ~d.sig) != 0) continue;
      if (!spend(sub_budget, c.size() + d.lits.size())) return;
      if (subset(c, d.lits)) {
        detach(did);
        ++stats.subsumed_clauses;
        changed = true;
      }
    }
  }

  // Self-subsuming resolution: for each literal l of `cid`, strengthen every
  // clause D ⊇ (C \ {l}) ∪ {~l} by removing ~l (the resolvent of C and D on
  // l subsumes D). Only clauses containing ~l are strengthened, never `cid`
  // itself, so `c` stays valid; each candidate list is copied because
  // strengthening edits it.
  void self_subsume(std::uint32_t cid) {
    const Clause& c = clauses[cid].lits;
    for (std::size_t i = 0; i < c.size() && !unsat; ++i) {
      const Lit l = c[i];
      std::uint64_t sig = 1ull << (static_cast<std::uint32_t>((~l).index()) & 63u);
      for (std::size_t j = 0; j < c.size(); ++j) {
        if (j != i) sig |= 1ull << (static_cast<std::uint32_t>(c[j].index()) & 63u);
      }
      occ_buf = occ[static_cast<std::size_t>((~l).index())];
      for (std::uint32_t did : occ_buf) {
        const Cls& d = clauses[did];
        if (d.deleted || d.lits.size() < c.size()) continue;
        if ((sig & ~d.sig) != 0) continue;
        if (!spend(sub_budget, c.size() + d.lits.size())) return;
        if (subset_except(c, i, d.lits)) {
          strengthen(did, ~l);
          if (unsat) return;
        }
      }
    }
  }

  void subsumption_pass() {
    if (!opt.subsumption || unsat) return;
    propagate();
    std::size_t qi = 0;
    while (qi < subq.size() && !unsat && sub_budget > 0) {
      const std::uint32_t cid = subq[qi++];
      in_subq[cid] = 0;
      if (clauses[cid].deleted) continue;
      backward_subsume(cid);
      if (unsat || clauses[cid].deleted) continue;
      self_subsume(cid);
      if (!unit_queue.empty()) propagate();
    }
    // Anything still queued (budget exhaustion) stays for the next pass.
    subq.erase(subq.begin(), subq.begin() + static_cast<std::ptrdiff_t>(qi));
    propagate();
  }

  // Resolvent of a (contains v positive) and b (contains v negative) on v.
  // Returns false for tautological resolvents.
  bool resolve(const Clause& a, const Clause& b, Var v, Clause& out) const {
    out.clear();
    std::size_t i = 0, j = 0;
    while (i < a.size() || j < b.size()) {
      Lit next;
      if (j == b.size() || (i < a.size() && a[i].index() < b[j].index())) {
        next = a[i++];
      } else if (i == a.size() || b[j].index() < a[i].index()) {
        next = b[j++];
      } else {
        next = a[i++];
        ++j;
      }
      if (next.var() == v) continue;
      if (!out.empty() && out.back().var() == next.var() && out.back() != next) return false;
      if (!out.empty() && out.back() == next) continue;
      out.push_back(next);
    }
    return true;
  }

  void try_eliminate(Var v) {
    const Lit pv(v, false), nv(v, true);
    const std::vector<std::uint32_t>& pos = occ[static_cast<std::size_t>(pv.index())];
    const std::vector<std::uint32_t>& neg = occ[static_cast<std::size_t>(nv.index())];
    if (pos.size() > opt.bve_occurrence_cap || neg.size() > opt.bve_occurrence_cap) return;

    // Count the non-tautological resolvents first; most candidates fail
    // here, before anything is copied.
    const std::size_t limit =
        pos.size() + neg.size() + static_cast<std::size_t>(std::max(0, opt.bve_growth));
    std::size_t resolvents = 0;
    for (std::uint32_t p : pos) {
      for (std::uint32_t n : neg) {
        if (!resolve(clauses[p].lits, clauses[n].lits, v, resolvent)) continue;
        if (++resolvents > limit) return;  // would grow the formula: skip
      }
    }

    // Commit: save the removed clauses for model reconstruction, replace
    // them with the resolvents. Detaching edits the occurrence lists, so
    // they are copied first; the resolvents are rebuilt from the saved
    // copies, in the same order as they were counted.
    const std::size_t num_pos = pos.size();
    occ_buf.assign(pos.begin(), pos.end());
    occ_buf.insert(occ_buf.end(), neg.begin(), neg.end());
    std::vector<Clause> saved;
    saved.reserve(occ_buf.size());
    for (std::uint32_t cid : occ_buf) saved.push_back(clauses[cid].lits);
    elim.emplace_back(v, std::move(saved));
    for (std::uint32_t cid : occ_buf) detach(cid);
    eliminated[static_cast<std::size_t>(v)] = 1;
    ++stats.eliminated_vars;
    if (frozen[static_cast<std::size_t>(v)]) ++stats.frozen_eliminations;  // tripwire: never
    changed = true;
    const std::vector<Clause>& removed = elim.back().second;
    for (std::size_t p = 0; p < num_pos; ++p) {
      for (std::size_t n = num_pos; n < removed.size(); ++n) {
        if (!resolve(removed[p], removed[n], v, resolvent)) continue;
        ++stats.resolvents_added;
        add_clause(resolvent);
        if (unsat) return;
      }
    }
    propagate();
  }

  void bve_pass() {
    if (!opt.bve || unsat) return;
    propagate();
    // Cheapest variables first (fewest occurrences), ties by index: pure
    // literals and barely-used Tseitin auxiliaries go before anything with
    // real fan-out.
    std::vector<std::pair<std::size_t, Var>> order;
    for (Var v = 0; v < nvars; ++v) {
      const auto idx = static_cast<std::size_t>(v);
      if (frozen[idx] || eliminated[idx] || assigns[idx] != LBool::Undef) continue;
      const std::size_t p = occ[idx * 2].size(), n = occ[idx * 2 + 1].size();
      if (p == 0 && n == 0) continue;
      if (p > opt.bve_occurrence_cap || n > opt.bve_occurrence_cap) continue;
      order.emplace_back(p + n, v);
    }
    std::sort(order.begin(), order.end());
    for (const auto& [cost, v] : order) {
      if (unsat) return;
      const auto idx = static_cast<std::size_t>(v);
      if (eliminated[idx] || assigns[idx] != LBool::Undef) continue;
      try_eliminate(v);
    }
  }

  void probe_assign(Lit l) {
    assigns[static_cast<std::size_t>(l.var())] = l.sign() ? LBool::False : LBool::True;
    probe_trail.push_back(l);
  }

  void probe_undo() {
    for (Lit l : probe_trail) assigns[static_cast<std::size_t>(l.var())] = LBool::Undef;
    probe_trail.clear();
  }

  // BCP under the temporary assumption `l`; true iff it hits a conflict
  // (then `l` is a failed literal). Always leaves assigns as it found them.
  bool probe(Lit l) {
    probe_trail.clear();
    probe_assign(l);
    std::size_t qi = 0;
    while (qi < probe_trail.size()) {
      const Lit t = probe_trail[qi++];
      for (std::uint32_t cid : occ[static_cast<std::size_t>((~t).index())]) {
        const Cls& d = clauses[cid];
        if (d.deleted) continue;
        if (!spend(probe_budget, d.lits.size())) {
          probe_undo();
          return false;
        }
        Lit unit = Lit::undef();
        int unassigned = 0;
        bool satisfied = false;
        for (Lit x : d.lits) {
          const LBool v = value(x);
          if (v == LBool::True) {
            satisfied = true;
            break;
          }
          if (v == LBool::Undef) {
            if (++unassigned > 1) break;
            unit = x;
          }
        }
        if (satisfied || unassigned > 1) continue;
        if (unassigned == 0) {
          probe_undo();
          return true;  // conflict: l fails
        }
        probe_assign(unit);
      }
    }
    probe_undo();
    return false;
  }

  void probing_pass() {
    if (!opt.probing || unsat) return;
    propagate();
    // Probe only literals whose negation sits in a binary clause — the
    // classic candidate filter: everything else cannot propagate through a
    // binary chain and almost never fails.
    std::vector<char> in_bin(occ.size(), 0);
    for (const Cls& c : clauses) {
      if (c.deleted || c.lits.size() != 2) continue;
      in_bin[static_cast<std::size_t>(c.lits[0].index())] = 1;
      in_bin[static_cast<std::size_t>(c.lits[1].index())] = 1;
    }
    for (Var v = 0; v < nvars && !unsat; ++v) {
      const auto idx = static_cast<std::size_t>(v);
      if (eliminated[idx]) continue;
      for (int s = 0; s < 2 && !unsat; ++s) {
        if (assigns[idx] != LBool::Undef) break;
        if (probe_budget == 0) return;
        const Lit l(v, s == 1);
        if (!in_bin[static_cast<std::size_t>((~l).index())]) continue;
        if (probe(l)) {
          ++stats.failed_literals;
          enqueue_unit(~l);
          propagate();
        }
      }
    }
  }

  void run() {
    propagate();
    for (unsigned round = 0; round < opt.max_rounds && !unsat; ++round) {
      changed = false;
      subsumption_pass();
      bve_pass();
      probing_pass();
      ++stats.rounds;
      if (!changed) break;
    }
  }
};

} // namespace

Simplifier::Simplifier(SimplifyOptions options) : options_(options) {}
Simplifier::~Simplifier() = default;

CnfSnapshot Simplifier::simplify(const CnfSnapshot& snap, const std::vector<Var>& frozen) {
  util::trace::Span span("simplify.run", "simplify");
  const std::uint64_t sid = snap.store_id();
  const int nvars = snap.num_vars();
  const std::size_t nclauses = snap.num_clauses();
  span.arg("input_clauses", static_cast<std::uint64_t>(nclauses));

  // Generation cache: same input prefix and a frozen set covered by the
  // cached one — reuse. (A frozen set may shrink across Alg. 1 iterations as
  // the frontier does; everything the caller still names was frozen when the
  // generation was computed, so the cached formula stays sound for it.)
  if (out_ != nullptr && sid == in_store_id_ && nvars == in_cursor_.vars &&
      nclauses == in_cursor_.clauses) {
    bool covered = true;
    for (Var v : frozen) {
      if (v < 0) continue;
      const auto idx = static_cast<std::size_t>(v);
      if (idx >= frozen_flags_.size() || !frozen_flags_[idx]) {
        covered = false;
        break;
      }
    }
    if (covered) {
      ++stats_.reuses;
      span.arg("reused", std::uint64_t{1});
      return out_->snapshot();
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  ++stats_.runs;
  std::vector<char> flags(static_cast<std::size_t>(nvars), 0);
  for (Var v : frozen) {
    if (v >= 0 && v < nvars) flags[static_cast<std::size_t>(v)] = 1;
  }

  Work w(options_, stats_, nvars, flags);
  std::uint64_t in_lits = 0;
  snap.for_each_clause([&](const std::vector<Lit>& c) {
    in_lits += c.size();
    w.add_clause(c);
  });
  w.run();

  // Materialize the generation into a fresh store, preserving the variable
  // numbering (eliminated variables simply stop occurring). Root facts come
  // first as units, then the surviving clauses in database order.
  auto out = std::make_unique<CnfStore>();
  for (int v = 0; v < nvars; ++v) out->new_var();
  std::size_t out_clauses = 0;
  std::uint64_t out_lits = 0;
  if (w.unsat) {
    out->add_clause(Clause{});
    out_clauses = 1;
  } else {
    Clause unit(1, Lit());
    for (Var v = 0; v < nvars; ++v) {
      const LBool a = w.assigns[static_cast<std::size_t>(v)];
      if (a == LBool::Undef) continue;
      unit[0] = Lit(v, a == LBool::False);
      out->add_clause(unit);
      ++out_clauses;
      ++out_lits;
    }
    for (const auto& c : w.clauses) {
      if (c.deleted) continue;
      out->add_clause(c.lits);
      ++out_clauses;
      out_lits += c.lits.size();
    }
  }

  // Publish the new generation (this invalidates the previous one).
  out_ = std::move(out);
  elim_stack_.clear();
  elim_stack_.reserve(w.elim.size());
  for (auto& e : w.elim) elim_stack_.push_back(ElimEntry{e.first, std::move(e.second)});
  root_assigns_ = std::move(w.assigns);
  unsat_ = w.unsat;
  in_store_id_ = sid;
  in_cursor_ = CnfSnapshot::Cursor{nvars, nclauses};
  frozen_flags_ = std::move(flags);

  stats_.input_vars = nvars;
  stats_.input_clauses = nclauses;
  stats_.input_literals = in_lits;
  stats_.output_clauses = out_clauses;
  stats_.output_literals = out_lits;
  stats_.seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return out_->snapshot();
}

void Simplifier::reconstruct(std::vector<bool>& model) const {
  if (model.size() < root_assigns_.size()) model.resize(root_assigns_.size(), false);
  for (std::size_t v = 0; v < root_assigns_.size(); ++v) {
    if (root_assigns_[v] != LBool::Undef) model[v] = root_assigns_[v] == LBool::True;
  }
  // Reverse replay: each entry's saved clauses mention only variables that
  // are final by the time it is processed (later eliminations are fixed
  // first), and the resolvents the model already satisfies guarantee one
  // consistent value of v exists — so at most one flip per entry.
  for (auto it = elim_stack_.rbegin(); it != elim_stack_.rend(); ++it) {
    for (const Clause& c : it->clauses) {
      bool satisfied = false;
      Lit own = Lit::undef();
      for (Lit l : c) {
        if (l.var() == it->v) own = l;
        if (model[static_cast<std::size_t>(l.var())] != l.sign()) {
          satisfied = true;
          break;
        }
      }
      if (!satisfied && own != Lit::undef()) {
        model[static_cast<std::size_t>(it->v)] = !own.sign();
      }
    }
  }
}

} // namespace upec::sat
