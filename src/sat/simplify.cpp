#include "sat/simplify.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <utility>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "util/trace.h"

namespace upec::sat {

namespace {

using Lits = std::span<const Lit>;

std::uint64_t sig_of(Lits lits) {
  std::uint64_t s = 0;
  for (Lit l : lits) s |= 1ull << (static_cast<std::uint32_t>(l.index()) & 63u);
  return s;
}

template <class T>
std::size_t reserved_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

} // namespace

std::size_t Simplifier::ElimStack::bytes() const {
  return reserved_bytes(vars) + reserved_bytes(first) + reserved_bytes(starts) +
         reserved_bytes(lits);
}

// One simplification run's working state: occurrence-list clause database
// with root-level assignments, a subsumption work queue, and the elimination
// record. Every pass iterates in a fixed order and every budget is an
// operation counter, so the run is a pure function of its input.
struct Simplifier::Work {
  const SimplifyOptions& opt;
  SimplifyStats& stats;

  int nvars;
  const std::vector<char>& frozen;
  std::vector<LBool> assigns;
  std::vector<char> eliminated;
  // Variables whose occurrences this run changed: the probing candidates.
  // Seed clauses mark every variable they mention; afterwards any clause
  // that is added, shrunk or deleted marks its variables. `retry` is the
  // same mark, cleared when BVE tries the variable: a failed attempt fails
  // again until one of the variable's clauses changes, so only marked
  // variables are BVE candidates.
  std::vector<char> touched;
  std::vector<char> retry;
  // False while the previous generation's output is loaded: those clauses
  // are old work, so they neither join the subsumption queue nor mark
  // their variables touched.
  bool seeding = true;

  // Clause database: every literal lives in `arena`; a clause is the slice
  // arena[start, start + size), sorted by Lit::index(), deduplicated, never
  // tautological. Shrinking edits the slice in place and deletion only sets
  // the flag, so slices never move — but add_clause may reallocate the
  // arena, so no pointer into it is held across add_clause.
  struct Cls {
    std::uint64_t sig;
    std::uint32_t start;
    std::uint32_t size : 31;
    std::uint32_t deleted : 1;
  };
  static_assert(sizeof(Cls) == 16);
  std::vector<Lit> arena;
  std::vector<Cls> clauses;
  std::vector<std::vector<std::uint32_t>> occ;  // literal index -> clause ids

  std::vector<Lit> unit_queue;  // enqueued root assignments, FIFO
  std::vector<std::uint32_t> subq;  // clauses to (re)consider for subsumption
  std::vector<char> in_subq;

  ElimStack elim;  // reconstruction stack
  std::vector<Lit> probe_trail;

  // Reusable scratch. occ_buf holds a copy of (or the filtered candidates
  // of) an occurrence list that the loop walking it mutates (propagate,
  // backward/self subsumption; a committed elimination's pos then neg
  // lists); resolvent is the output of resolve(); sorted is add_clause's
  // normalization buffer.
  std::vector<std::uint32_t> occ_buf;
  Clause resolvent;
  Clause sorted;

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
        touched(static_cast<std::size_t>(vars), 0),
        retry(static_cast<std::size_t>(vars), 0),
        occ(static_cast<std::size_t>(vars) * 2),
        sub_budget(o.subsumption_budget),
        probe_budget(o.probe_budget) {}

  LBool value(Lit l) const {
    const LBool v = assigns[static_cast<std::size_t>(l.var())];
    return l.sign() ? lbool_not(v) : v;
  }

  Lits lits(const Cls& c) const { return {arena.data() + c.start, c.size}; }

  // Peak reserved bytes of the database: nothing in it ever shrinks its
  // capacity during a run, so the current reading is the peak.
  std::size_t db_bytes() const {
    std::size_t n = reserved_bytes(arena) + reserved_bytes(clauses) + reserved_bytes(occ);
    for (const auto& list : occ) n += reserved_bytes(list);
    return n;
  }

  void occ_remove(std::int32_t lit_index, std::uint32_t cid) {
    std::vector<std::uint32_t>& list = occ[static_cast<std::size_t>(lit_index)];
    auto it = std::find(list.begin(), list.end(), cid);
    if (it != list.end()) {
      *it = list.back();
      list.pop_back();
    }
  }

  void touch(Lits c) {
    for (Lit l : c) {
      const auto idx = static_cast<std::size_t>(l.var());
      touched[idx] = 1;
      retry[idx] = 1;
    }
  }

  void detach(std::uint32_t cid) {
    Cls& c = clauses[cid];
    if (c.deleted) return;
    c.deleted = true;
    touch(lits(c));
    for (Lit l : lits(c)) occ_remove(l.index(), cid);
  }

  // Removes `x` from clause `cid`'s slice, keeping the rest in order, and
  // refreshes its signature and occurrence lists. False if `x` is absent.
  bool remove_lit(std::uint32_t cid, Lit x) {
    Cls& c = clauses[cid];
    Lit* const begin = arena.data() + c.start;
    Lit* const end = begin + c.size;
    Lit* const it = std::find(begin, end, x);
    if (it == end) return false;
    touch(lits(c));
    std::copy(it + 1, end, it);
    --c.size;
    occ_remove(x.index(), cid);
    c.sig = sig_of(lits(c));
    return true;
  }

  // After a literal was removed from `cid`: an empty clause refutes the
  // formula (returns false), a unit is enqueued, and a non-empty clause is
  // re-queued for subsumption.
  bool shrunk(std::uint32_t cid) {
    const Cls& c = clauses[cid];
    if (c.size == 0) {
      unsat = true;
      return false;
    }
    if (c.size == 1) enqueue_unit(arena[c.start]);
    push_subq(cid);
    return true;
  }

  void push_subq(std::uint32_t cid) {
    if (!opt.subsumption || !seeding || in_subq[cid]) return;
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
  // satisfied clauses, strip false literals, route units to the queue. The
  // normalized literals are written straight onto the arena's tail, which is
  // rolled back when the clause is not stored. `c` must not point into the
  // arena.
  void add_clause(Lits c) {
    if (unsat) return;
    if (seeding) touch(c);
    sorted.assign(c.begin(), c.end());
    std::sort(sorted.begin(), sorted.end());
    const std::size_t start = arena.size();
    assert(start <= UINT32_MAX - sorted.size());
    for (Lit l : sorted) {
      const LBool v = value(l);
      if (v == LBool::True) {  // satisfied at root
        arena.resize(start);
        return;
      }
      if (v == LBool::False) continue;
      if (arena.size() > start && arena.back() == l) continue;  // duplicate literal
      if (arena.size() > start && arena.back().var() == l.var()) {  // tautology (l, ~l)
        arena.resize(start);
        return;
      }
      arena.push_back(l);
    }
    const std::size_t size = arena.size() - start;
    if (size == 0) {
      unsat = true;
      return;
    }
    if (size == 1) {
      const Lit unit = arena[start];
      arena.resize(start);
      enqueue_unit(unit);
      return;
    }
    const auto cid = static_cast<std::uint32_t>(clauses.size());
    const Cls cls{sig_of(Lits(arena).subspan(start)), static_cast<std::uint32_t>(start),
                  static_cast<std::uint32_t>(size), 0};
    for (Lit l : lits(cls)) occ[static_cast<std::size_t>(l.index())].push_back(cid);
    clauses.push_back(cls);
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
        if (clauses[cid].deleted || !remove_lit(cid, ~l)) continue;
        if (!shrunk(cid)) return;
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
  static bool subset(Lits a, Lits b) {
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
  static bool subset_except(Lits a, std::size_t skip, Lits b) {
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
    if (!remove_lit(cid, drop)) return;
    ++stats.strengthened_clauses;
    changed = true;
    shrunk(cid);
  }

  // Backward subsumption: delete every clause that contains `cid` entirely.
  // Only other clauses are detached and nothing is added, so `c` stays
  // valid. Detaching edits the occurrence list and touches only the clause
  // detached, so the candidates that pass the cheap filters are collected
  // first, in list order.
  void backward_subsume(std::uint32_t cid) {
    const Lits c = lits(clauses[cid]);
    const std::uint64_t sig = clauses[cid].sig;
    std::size_t best = 0;
    for (std::size_t i = 1; i < c.size(); ++i) {
      if (occ[static_cast<std::size_t>(c[i].index())].size() <
          occ[static_cast<std::size_t>(c[best].index())].size()) {
        best = i;
      }
    }
    occ_buf.clear();
    for (std::uint32_t did : occ[static_cast<std::size_t>(c[best].index())]) {
      const Cls& d = clauses[did];
      if (did != cid && !d.deleted && d.size >= c.size() && (sig & ~d.sig) == 0) {
        occ_buf.push_back(did);
      }
    }
    for (std::uint32_t did : occ_buf) {
      const Cls& d = clauses[did];
      if (!spend(sub_budget, c.size() + d.size)) return;
      if (subset(c, lits(d))) {
        detach(did);
        ++stats.subsumed_clauses;
        changed = true;
      }
    }
  }

  // Self-subsuming resolution: for each literal l of `cid`, strengthen every
  // clause D ⊇ (C \ {l}) ∪ {~l} by removing ~l (the resolvent of C and D on
  // l subsumes D). Only clauses containing ~l are strengthened, never `cid`
  // itself, and nothing is added, so `c` stays valid. Strengthening edits
  // the occurrence list and only the clause strengthened, so each literal's
  // filtered candidates are collected first, in list order.
  void self_subsume(std::uint32_t cid) {
    const Lits c = lits(clauses[cid]);
    for (std::size_t i = 0; i < c.size() && !unsat; ++i) {
      const Lit l = c[i];
      std::uint64_t sig = 1ull << (static_cast<std::uint32_t>((~l).index()) & 63u);
      for (std::size_t j = 0; j < c.size(); ++j) {
        if (j != i) sig |= 1ull << (static_cast<std::uint32_t>(c[j].index()) & 63u);
      }
      occ_buf.clear();
      for (std::uint32_t did : occ[static_cast<std::size_t>((~l).index())]) {
        const Cls& d = clauses[did];
        if (!d.deleted && d.size >= c.size() && (sig & ~d.sig) == 0) occ_buf.push_back(did);
      }
      for (std::uint32_t did : occ_buf) {
        const Cls& d = clauses[did];
        if (!spend(sub_budget, c.size() + d.size)) return;
        if (subset_except(c, i, lits(d))) {
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
  bool resolve(Lits a, Lits b, Var v, Clause& out) const {
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
        if (!resolve(lits(clauses[p]), lits(clauses[n]), v, resolvent)) continue;
        if (++resolvents > limit) return;  // would grow the formula: skip
      }
    }

    // Commit: save the removed clauses onto the reconstruction stack,
    // replace them with the resolvents. Detaching edits the occurrence
    // lists, so they are copied first; the resolvents are rebuilt from the
    // saved copies (which add_clause never moves), in the same order as they
    // were counted.
    const std::size_t num_pos = pos.size();
    occ_buf.assign(pos.begin(), pos.end());
    occ_buf.insert(occ_buf.end(), neg.begin(), neg.end());
    const std::size_t first = elim.starts.size();
    elim.vars.push_back(v);
    elim.first.push_back(static_cast<std::uint32_t>(first));
    for (std::uint32_t cid : occ_buf) {
      const Lits c = lits(clauses[cid]);
      elim.starts.push_back(static_cast<std::uint32_t>(elim.lits.size()));
      elim.lits.insert(elim.lits.end(), c.begin(), c.end());
    }
    for (std::uint32_t cid : occ_buf) detach(cid);
    eliminated[static_cast<std::size_t>(v)] = 1;
    ++stats.eliminated_vars;
    if (frozen[static_cast<std::size_t>(v)]) ++stats.frozen_eliminations;  // tripwire: never
    changed = true;
    const std::size_t end = elim.starts.size();
    for (std::size_t p = first; p < first + num_pos; ++p) {
      for (std::size_t n = first + num_pos; n < end; ++n) {
        if (!resolve(elim.clause(p), elim.clause(n), v, resolvent)) continue;
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
    // Variables to retry only (the rest kept the occurrences under which
    // this run or the previous generation already tried them). Cheapest
    // first (fewest occurrences), ties by index: pure literals and
    // barely-used Tseitin auxiliaries go before anything with real fan-out.
    std::vector<std::pair<std::size_t, Var>> order;
    for (Var v = 0; v < nvars; ++v) {
      const auto idx = static_cast<std::size_t>(v);
      if (!retry[idx] || frozen[idx] || eliminated[idx] || assigns[idx] != LBool::Undef) {
        continue;
      }
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
      retry[idx] = 0;
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
        if (!spend(probe_budget, d.size)) {
          probe_undo();
          return false;
        }
        Lit unit = Lit::undef();
        int unassigned = 0;
        bool satisfied = false;
        for (Lit x : lits(d)) {
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
    // Probe only literals of touched variables whose negation sits in a
    // binary clause — the classic candidate filter: everything else cannot
    // propagate through a binary chain and almost never fails.
    std::vector<char> in_bin(occ.size(), 0);
    for (const Cls& c : clauses) {
      if (c.deleted || c.size != 2) continue;
      in_bin[static_cast<std::size_t>(arena[c.start].index())] = 1;
      in_bin[static_cast<std::size_t>(arena[c.start + 1].index())] = 1;
    }
    for (Var v = 0; v < nvars && !unsat; ++v) {
      const auto idx = static_cast<std::size_t>(v);
      if (!touched[idx] || eliminated[idx]) continue;
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

  // Resolvents of the eliminations being undone, flat: resolvent i is
  // stale_lits[stale_starts[i] .. stale_starts[i + 1]) (the last one runs to
  // the end), recorded when the clause database held stale_floor[i] clauses.
  std::vector<Lit> stale_lits;
  std::vector<std::uint32_t> stale_starts;
  std::vector<std::uint32_t> stale_floor;

  // Records the resolvents that eliminating st.vars[e] added, right after its
  // saved clauses were added back.
  void collect_resolvents(const ElimStack& st, std::size_t e) {
    const Var v = st.vars[e];
    const Lit pv(v, false);
    const std::size_t begin = st.first[e], end = st.entry_end(e);
    for (std::size_t p = begin; p < end; ++p) {
      const Lits a = st.clause(p);
      if (std::find(a.begin(), a.end(), pv) == a.end()) continue;
      for (std::size_t n = begin; n < end; ++n) {
        const Lits b = st.clause(n);
        if (std::find(b.begin(), b.end(), ~pv) == b.end()) continue;
        if (!resolve(a, b, v, resolvent)) continue;
        stale_starts.push_back(static_cast<std::uint32_t>(stale_lits.size()));
        stale_floor.push_back(static_cast<std::uint32_t>(clauses.size()));
        stale_lits.insert(stale_lits.end(), resolvent.begin(), resolvent.end());
      }
    }
  }

  // A restored variable's saved clauses imply every resolvent its
  // elimination added, so a verbatim copy of one still in the formula is
  // redundant and is deleted like a subsumed clause. Only clauses of the
  // previous generation's output (ids below `old_clauses`) and clauses
  // restored for a later entry (ids from the resolvent's floor on) qualify —
  // never the delta, nor the saved clauses that imply the copy — so each
  // deleted clause is implied by clauses of an earlier entry, and by
  // induction over the stack the formula keeps its models.
  void drop_stale_resolvents(std::size_t old_clauses) {
    for (std::size_t i = 0; i < stale_starts.size(); ++i) {
      const std::size_t from = stale_starts[i];
      const std::size_t to = i + 1 < stale_starts.size() ? stale_starts[i + 1] : stale_lits.size();
      // The copy was added after root facts known then were applied; apply
      // the current ones.
      sorted.clear();
      bool satisfied = false;
      for (std::size_t j = from; j < to && !satisfied; ++j) {
        const LBool v = value(stale_lits[j]);
        if (v == LBool::True) satisfied = true;
        if (v == LBool::Undef) sorted.push_back(stale_lits[j]);
      }
      if (satisfied || sorted.size() < 2) continue;
      const Lits r(sorted);
      const std::uint64_t sig = sig_of(r);
      std::size_t best = 0;
      for (std::size_t j = 1; j < r.size(); ++j) {
        if (occ[static_cast<std::size_t>(r[j].index())].size() <
            occ[static_cast<std::size_t>(r[best].index())].size()) {
          best = j;
        }
      }
      for (std::uint32_t cid : occ[static_cast<std::size_t>(r[best].index())]) {
        const Cls& d = clauses[cid];
        if (d.deleted || d.size != r.size() || d.sig != sig) continue;
        if (cid >= old_clauses && cid < stale_floor[i]) continue;
        if (!std::equal(r.begin(), r.end(), lits(d).begin())) continue;
        detach(cid);  // edits the list walked: stop here
        ++stats.subsumed_clauses;
        break;
      }
    }
    stale_lits = std::vector<Lit>();
    stale_starts = std::vector<std::uint32_t>();
    stale_floor = std::vector<std::uint32_t>();
  }

  // Brings back every variable `marked` flags, transitively: a restored
  // variable's saved clauses come back, and any variable they mention that
  // is still eliminated comes back too. Such a variable was eliminated later
  // (when an entry is pushed, the formula holds no eliminated variable), so
  // one forward walk over the stack closes the set. The walk compacts the
  // remaining entries in place, in order, and this run's eliminations follow
  // them. Clause ids below `old_clauses` are the previous generation's
  // output.
  void restore(std::vector<char>& marked, std::size_t old_clauses) {
    ElimStack& st = elim;
    const std::size_t nsaved = st.starts.size();
    const std::size_t saved_lits = st.lits.size();
    std::size_t kept = 0, kept_clauses = 0, kept_lits = 0;
    for (std::size_t e = 0; e < st.vars.size(); ++e) {
      const Var v = st.vars[e];
      const std::size_t begin = st.first[e], end = st.entry_end(e);
      if (marked[static_cast<std::size_t>(v)]) {
        eliminated[static_cast<std::size_t>(v)] = 0;
        ++stats.restored_vars;
        for (std::size_t i = begin; i < end; ++i) {
          const Lits c = st.clause(i);
          for (Lit l : c) {
            const auto idx = static_cast<std::size_t>(l.var());
            if (eliminated[idx]) marked[idx] = 1;
          }
          add_clause(c);
        }
        collect_resolvents(st, e);
        continue;
      }
      // Entry e moves to slot `kept`; every write lands at or before what
      // it overwrites, after that was read.
      st.vars[kept] = v;
      st.first[kept++] = static_cast<std::uint32_t>(kept_clauses);
      for (std::size_t i = begin; i < end; ++i) {
        const std::size_t from = st.starts[i];
        const std::size_t to = i + 1 < nsaved ? st.starts[i + 1] : saved_lits;
        st.starts[kept_clauses++] = static_cast<std::uint32_t>(kept_lits);
        if (kept_lits != from) std::copy(st.lits.begin() + from, st.lits.begin() + to,
                                         st.lits.begin() + kept_lits);
        kept_lits += to - from;
      }
    }
    st.vars.resize(kept);
    st.first.resize(kept);
    st.starts.resize(kept_clauses);
    st.lits.resize(kept_lits);
    for (Var v : st.vars) assert(!marked[static_cast<std::size_t>(v)]);
    drop_stale_resolvents(old_clauses);
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

  // A real run builds on the cached generation when the input extends its
  // prefix; anything else (a first call, another store) builds on an empty
  // generation, which makes the whole input the delta.
  assert(out_ == nullptr || sid != out_->id());
  const bool extends = out_ != nullptr && sid == in_store_id_ && nvars >= in_cursor_.vars &&
                       nclauses >= in_cursor_.clauses;
  if (!extends) {
    out_.reset();
    elim_ = ElimStack();
    root_assigns_ = std::vector<LBool>();
    retry_ = std::vector<char>();
    in_cursor_ = CnfSnapshot::Cursor{};
    frozen_flags_ = std::vector<char>();
  }

  const auto t0 = std::chrono::steady_clock::now();
  ++stats_.runs;
  std::vector<char> flags(static_cast<std::size_t>(nvars), 0);
  for (Var v : frozen) {
    if (v >= 0 && v < nvars) flags[static_cast<std::size_t>(v)] = 1;
  }

  {
    // The previous generation: its root facts, its eliminated variables and
    // its output clauses, loaded as old work. Then its store is freed (its
    // snapshot is invalid from here on, see the header), before the new one
    // is built.
    Work w(options_, stats_, nvars, flags);
    {
      // Size each occurrence list for the clauses about to be loaded: one
      // counting pass spares the lists their growth reallocations.
      std::vector<std::uint32_t> count(w.occ.size(), 0);
      const auto tally = [&count](const std::vector<Lit>& c) {
        for (Lit l : c) ++count[static_cast<std::size_t>(l.index())];
      };
      if (out_ != nullptr) out_->snapshot().for_each_clause(tally);
      snap.for_each_clause(in_cursor_.clauses, tally);
      for (std::size_t i = 0; i < count.size(); ++i) w.occ[i].reserve(count[i]);
    }
    std::copy(root_assigns_.begin(), root_assigns_.end(), w.assigns.begin());
    root_assigns_ = std::vector<LBool>();
    for (Var v : elim_.vars) w.eliminated[static_cast<std::size_t>(v)] = 1;
    std::copy(retry_.begin(), retry_.end(), w.retry.begin());
    retry_ = std::vector<char>();
    if (out_ != nullptr) {
      w.seeding = false;
      out_->snapshot().for_each_clause([&w](const std::vector<Lit>& c) { w.add_clause(c); });
      w.seeding = true;
      out_.reset();
    }
    const std::size_t old_clauses = w.clauses.size();

    // The delta: raw clauses past the previous cursor. An eliminated variable
    // that a delta clause mentions, or that the caller now freezes, comes back.
    std::vector<char> restore(static_cast<std::size_t>(nvars), 0);
    std::uint64_t in_lits = extends ? stats_.input_literals : 0;
    std::uint64_t delta = 0;
    snap.for_each_clause(in_cursor_.clauses, [&](const std::vector<Lit>& c) {
      in_lits += c.size();
      ++delta;
      for (Lit l : c) {
        const auto idx = static_cast<std::size_t>(l.var());
        if (w.eliminated[idx]) restore[idx] = 1;
      }
      w.add_clause(c);
    });
    for (std::size_t v = 0; v < flags.size(); ++v) {
      if (flags[v] && w.eliminated[v]) restore[v] = 1;
      // A variable the previous generation kept frozen is new BVE work.
      if (!flags[v] && v < frozen_flags_.size() && frozen_flags_[v]) w.touched[v] = w.retry[v] = 1;
    }
    if (extends) stats_.delta_clauses += delta;

    w.elim = std::move(elim_);
    elim_ = ElimStack();
    w.restore(restore, old_clauses);
    span.arg("delta_clauses", delta);
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
      Clause c;
      for (const Work::Cls& cls : w.clauses) {
        if (cls.deleted) continue;
        const Lits lits = w.lits(cls);
        c.assign(lits.begin(), lits.end());
        out->add_clause(c);
        ++out_clauses;
        out_lits += c.size();
      }
    }

    // Publish the new generation.
    out_ = std::move(out);
    elim_ = std::move(w.elim);
    root_assigns_ = std::move(w.assigns);
    retry_ = std::move(w.retry);
    unsat_ = w.unsat;
    in_store_id_ = sid;
    in_cursor_ = CnfSnapshot::Cursor{nvars, nclauses};
    frozen_flags_ = std::move(flags);

    stats_.input_vars = nvars;
    stats_.input_clauses = nclauses;
    stats_.input_literals = in_lits;
    stats_.output_clauses = out_clauses;
    stats_.output_literals = out_lits;
    stats_.db_bytes = w.db_bytes();
    stats_.elim_bytes = elim_.bytes();
    stats_.live_eliminated = elim_.vars.size();
  }

  // The working database is gone now. glibc keeps most of its pages
  // resident (the main heap's free chunks); the workers' generation switch,
  // which comes next, allocates in their own arenas and cannot reuse them,
  // so without this the sweep after a run peaked 4-9 MB above the run.
#ifdef __GLIBC__
  malloc_trim(0);
#endif
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
  for (std::size_t e = elim_.vars.size(); e-- > 0;) {
    const Var v = elim_.vars[e];
    for (std::size_t i = elim_.first[e]; i < elim_.entry_end(e); ++i) {
      bool satisfied = false;
      Lit own = Lit::undef();
      for (Lit l : elim_.clause(i)) {
        if (l.var() == v) own = l;
        if (model[static_cast<std::size_t>(l.var())] != l.sign()) {
          satisfied = true;
          break;
        }
      }
      if (!satisfied && own != Lit::undef()) model[static_cast<std::size_t>(v)] = !own.sign();
    }
  }
}

} // namespace upec::sat
