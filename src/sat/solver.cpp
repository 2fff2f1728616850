#include "sat/solver.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace upec::sat {

Solver::Solver() = default;

void Solver::drop_problem_clauses() {
  cancel_until(0);
  for (ClauseRef c = 0; c < lit_arena_.size(); c += record_words(c)) {
    if (!is_learnt(c) && !is_deleted(c)) delete_clause(c);
  }
  // Learnt clauses keep their watched literals in lits[0] and lits[1], so
  // watching those again restores exactly their old watchers.
  for (auto& ws : watches_) ws.clear();
  for (const ClauseRef cr : learnts_) attach_clause(cr);
  garbage_collect();  // reasons that were problem clauses become kNoClause
  stats_.carried_learnts += learnts_.size();
}

Var Solver::new_var() {
  const Var v = num_vars();
  vals_.push_back(LBool::Undef);
  vals_.push_back(LBool::Undef);
  phase_.push_back(0);
  var_info_.push_back(VarInfo{});
  activity_.push_back(0.0);
  seen_.push_back(0);
  watches_.emplace_back();
  watches_.emplace_back();
  heap_pos_.push_back(-1);
  queue_slot_.push_back(0);
  queue_append(v);  // the newest variable is the next focused decision
  return v;
}

Solver::ClauseRef Solver::alloc_clause(const std::vector<Lit>& lits, bool learnt,
                                       std::uint32_t lbd) {
  assert(lits.size() >= 2);
  if (!clause_fits(lit_arena_.size(), lits.size())) {
    throw std::length_error("sat::Solver: clause arena exceeds 2^31 words");
  }
  const auto c = static_cast<ClauseRef>(lit_arena_.size());
  const auto size = static_cast<std::uint32_t>(lits.size());
  lit_arena_.resize(c + 1 + size + (learnt ? 2 : 0));
  set_word(c, size << 2 | (learnt ? 1u : 0u));
  std::copy(lits.begin(), lits.end(), clause_lits(c));
  if (learnt) {
    set_word(c + 1 + size, lbd);
    set_clause_activity(c, 0.0f);
  }
  return c;
}

void Solver::delete_clause(ClauseRef c) {
  set_word(c, word(c) | 2u);
  garbage_lits_ += record_words(c);
}

std::size_t Solver::allocated_clauses() const {
  std::size_t n = 0;
  for (ClauseRef c = 0; c < lit_arena_.size(); c += record_words(c)) ++n;
  return n;
}

void Solver::attach_clause(ClauseRef c) {
  const Lit* lits = clause_lits(c);
  assert(clause_size(c) >= 2);
  const ClauseRef tagged = clause_size(c) == 2 ? c | kBinaryTag : c;
  watches_[(~lits[0]).index()].push_back(Watcher{tagged, lits[1]});
  watches_[(~lits[1]).index()].push_back(Watcher{tagged, lits[0]});
}

void Solver::detach_clause(ClauseRef c) {
  const Lit* lits = clause_lits(c);
  for (int i = 0; i < 2; ++i) {
    auto& ws = watches_[(~lits[i]).index()];
    for (std::size_t j = 0; j < ws.size(); ++j) {
      if ((ws[j].cref & ~kBinaryTag) == c) {
        ws[j] = ws.back();
        ws.pop_back();
        break;
      }
    }
  }
}

bool Solver::add_clause(const std::vector<Lit>& lits_in) {
  if (!ok_) return false;
  // Clause addition must happen at the root level: literal values consulted
  // below for simplification are only trustworthy there. A previous solve()
  // may have left assumption decisions on the trail (e.g. after an UNSAT
  // answer); clear them first.
  cancel_until(0);

  std::vector<Lit>& lits = add_sorted_;
  lits.assign(lits_in.begin(), lits_in.end());
  std::sort(lits.begin(), lits.end());
  // Remove duplicates; detect tautologies and already-satisfied clauses.
  std::vector<Lit>& out = add_kept_;
  out.clear();
  Lit prev = Lit::undef();
  for (Lit l : lits) {
    if (value(l) == LBool::True || l == ~prev) return true; // satisfied / tautology
    if (value(l) != LBool::False && l != prev) {
      out.push_back(l);
      prev = l;
    }
  }

  if (out.empty()) {
    ok_ = false;
    return false;
  }
  if (out.size() == 1) {
    uncheckedEnqueue(out[0], 0, kNoClause);
    ok_ = (propagate() == kNoClause);
    return ok_;
  }
  ClauseRef c = alloc_clause(out, /*learnt=*/false);
  attach_clause(c);
  return true;
}

Solver::ClauseRef Solver::propagate() {
  ClauseRef confl = kNoClause;
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    const int p_level = level(p.var());
    ++stats_.propagations;
    auto& ws = watches_[p.index()];
    std::size_t i = 0, j = 0;
    const std::size_t n = ws.size();
    while (i < n) {
      const Watcher w = ws[i++];
      const LBool blocker_value = value(w.blocker);
      if (blocker_value == LBool::True) {
        ws[j++] = w;
        continue;
      }
      if (w.cref & kBinaryTag) {
        // The blocker is the other literal: implied at p's level, or false
        // and the clause conflicting. Only a conflict reads the record, to
        // put ~p second as the long-clause path does.
        ws[j++] = w;
        const ClauseRef cr = w.cref & ~kBinaryTag;
        if (blocker_value == LBool::Undef) {
          uncheckedEnqueue(w.blocker, p_level, cr);
          continue;
        }
        Lit* lits = clause_lits(cr);
        if (lits[0] == ~p) std::swap(lits[0], lits[1]);
        confl = cr;
        qhead_ = trail_.size();
        while (i < n) ws[j++] = ws[i++];
        continue;
      }
      Lit* lits = clause_lits(w.cref);
      // Make sure the false literal is lits[1].
      const Lit false_lit = ~p;
      if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
      assert(lits[1] == false_lit);

      const Lit first = lits[0];
      if (first != w.blocker && value(first) == LBool::True) {
        ws[j++] = Watcher{w.cref, first};
        continue;
      }
      // Look for a new literal to watch.
      const std::uint32_t size = clause_size(w.cref);
      bool found = false;
      for (std::uint32_t k = 2; k < size; ++k) {
        if (value(lits[k]) != LBool::False) {
          std::swap(lits[1], lits[k]);
          watches_[(~lits[1]).index()].push_back(Watcher{w.cref, first});
          found = true;
          break;
        }
      }
      if (found) continue;

      // Clause is unit or conflicting.
      if (value(first) == LBool::False) {
        ws[j++] = Watcher{w.cref, first};
        confl = w.cref;
        qhead_ = trail_.size();
        while (i < n) ws[j++] = ws[i++];
        continue;
      }
      // Unit: `first` is implied at the highest level among the false
      // literals. Below the current level that may not be p's level; then
      // the highest one takes over the second watch, so backtracking below
      // it frees both watched literals together.
      int implied_level = p_level;
      std::uint32_t max_k = 1;
      if (p_level < decision_level()) {
        for (std::uint32_t k = 2; k < size; ++k) {
          const int lv = level(lits[k].var());
          if (lv > implied_level) {
            implied_level = lv;
            max_k = k;
          }
        }
      }
      if (max_k == 1) {
        ws[j++] = Watcher{w.cref, first};
      } else {
        std::swap(lits[1], lits[max_k]);
        watches_[(~lits[1]).index()].push_back(Watcher{w.cref, first});
      }
      uncheckedEnqueue(first, implied_level, w.cref);
    }
    ws.resize(j);
    if (confl != kNoClause) break;
  }
  return confl;
}

void Solver::var_bump_activity(Var v) {
  activity_[static_cast<std::size_t>(v)] += var_inc_;
  if (activity_[static_cast<std::size_t>(v)] > 1e100) {
    for (auto& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (stable_ && heap_pos_[static_cast<std::size_t>(v)] >= 0) heap_update(v);
}

void Solver::cla_bump_activity(ClauseRef c) {
  const float activity = clause_activity(c) + cla_inc_;
  set_clause_activity(c, activity);
  if (activity > 1e20f) {
    for (ClauseRef cr : learnts_) set_clause_activity(cr, clause_activity(cr) * 1e-20f);
    cla_inc_ *= 1e-20f;
  }
}

int Solver::conflict_level(ClauseRef confl, bool& forced) {
  const std::uint32_t size = clause_size(confl);
  Lit* lits = clause_lits(confl);
  // Indices of the highest and second-highest level literals.
  std::uint32_t hi = 0, second = 1;
  if (level(lits[1].var()) > level(lits[0].var())) std::swap(hi, second);
  for (std::uint32_t k = 2; k < size; ++k) {
    const int lv = level(lits[k].var());
    if (lv > level(lits[hi].var())) {
      second = hi;
      hi = k;
    } else if (lv > level(lits[second].var())) {
      second = k;
    }
  }
  // Watch the two highest: backtracking below the conflict level must free
  // a watched literal, or the clause could turn unit without being seen.
  if (hi > 1 || second > 1) {
    detach_clause(confl);
    std::swap(lits[0], lits[hi]);
    std::swap(lits[1], lits[second == 0 ? hi : second]);
    attach_clause(confl);
  } else if (hi == 1) {
    std::swap(lits[0], lits[1]);
  }
  const int top = level(lits[0].var());
  forced = top > level(lits[1].var());
  return top;
}

void Solver::analyze(ClauseRef confl, std::vector<Lit>& out_learnt, int& out_btlevel,
                     unsigned& out_lbd) {
  int path_count = 0;
  Lit p = Lit::undef();
  out_learnt.clear();
  out_learnt.push_back(Lit::undef()); // reserve slot for the asserting literal
  std::size_t index = trail_.size();

  do {
    assert(confl != kNoClause);
    if (is_learnt(confl)) cla_bump_activity(confl);
    const Lit* lits = p == Lit::undef() ? clause_lits(confl) : reason_lits(confl, p);
    const std::uint32_t size = clause_size(confl);
    for (std::uint32_t k = (p == Lit::undef()) ? 0 : 1; k < size; ++k) {
      const Lit q = lits[k];
      const Var v = q.var();
      if (!seen_[static_cast<std::size_t>(v)] && var_info_[static_cast<std::size_t>(v)].level > 0) {
        seen_[static_cast<std::size_t>(v)] = 1;
        var_bump_activity(v);
        bumped_.push_back(static_cast<std::uint64_t>(v));
        if (var_info_[static_cast<std::size_t>(v)].level >= decision_level()) {
          ++path_count;
        } else {
          out_learnt.push_back(q);
        }
      }
    }
    // Select next literal on the trail to expand. Seen literals below the
    // conflict level are already in out_learnt; on the out-of-order trail
    // they can sit among the conflict level's literals.
    for (;;) {
      const Var u = trail_[index - 1].var();
      if (seen_[static_cast<std::size_t>(u)] && level(u) >= decision_level()) break;
      --index;
    }
    p = trail_[--index];
    confl = var_info_[static_cast<std::size_t>(p.var())].reason;
    seen_[static_cast<std::size_t>(p.var())] = 0;
    --path_count;
  } while (path_count > 0);
  out_learnt[0] = ~p;

  // Move this conflict's variables to the queue's newest end, oldest first.
  // Slots are distinct, so sorting `slot << 32 | var` keys gives the slot
  // order while comparing registers only.
  for (std::uint64_t& key : bumped_) {
    const Var v = static_cast<Var>(key);
    key = static_cast<std::uint64_t>(queue_slot_[static_cast<std::size_t>(v)]) << 32 |
          static_cast<std::uint32_t>(v);
  }
  std::sort(bumped_.begin(), bumped_.end());
  for (const std::uint64_t key : bumped_) {
    queue_move_to_front(static_cast<Var>(key & 0xffffffffu));
  }
  bumped_.clear();

  // Conflict-clause minimization (recursive, abstraction-guided).
  analyze_toclear_ = out_learnt;
  std::uint32_t abstract_levels = 0;
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    const int lv = var_info_[static_cast<std::size_t>(out_learnt[i].var())].level;
    abstract_levels |= 1u << (lv & 31);
  }
  std::size_t keep = 1;
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    const Var v = out_learnt[i].var();
    if (var_info_[static_cast<std::size_t>(v)].reason == kNoClause ||
        !lit_redundant(out_learnt[i], abstract_levels)) {
      out_learnt[keep++] = out_learnt[i];
    }
  }
  out_learnt.resize(keep);
  for (Lit l : analyze_toclear_) seen_[static_cast<std::size_t>(l.var())] = 0;

  // Compute backtrack level and LBD.
  if (out_learnt.size() == 1) {
    out_btlevel = 0;
  } else {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < out_learnt.size(); ++i) {
      if (var_info_[static_cast<std::size_t>(out_learnt[i].var())].level >
          var_info_[static_cast<std::size_t>(out_learnt[max_i].var())].level) {
        max_i = i;
      }
    }
    std::swap(out_learnt[1], out_learnt[max_i]);
    out_btlevel = var_info_[static_cast<std::size_t>(out_learnt[1].var())].level;
  }
  // LBD: number of distinct decision levels in the learnt clause.
  lbd_levels_.clear();
  for (Lit l : out_learnt) {
    lbd_levels_.push_back(var_info_[static_cast<std::size_t>(l.var())].level);
  }
  out_lbd = distinct_level_count(lbd_levels_);
}

unsigned Solver::distinct_level_count(const std::vector<int>& levels) {
  // Levels 0..127 via a two-word bitmap. The former `lv & 64` word select
  // aliased level 128 onto level 0's bit (and generally lv onto lv mod 128),
  // undercounting LBD on deep searches — which would let the wrong clauses
  // survive reduce_db and leak through an LBD-capped export policy. Levels
  // >= 128 therefore use an exact (small, rare) fallback set.
  unsigned count = 0;
  std::uint64_t seen_lo = 0, seen_hi = 0;
  std::vector<int> deep;
  for (const int lv : levels) {
    if (lv < 128) {
      std::uint64_t& word = (lv >= 64) ? seen_hi : seen_lo;
      const std::uint64_t bit = 1ULL << (lv & 63);
      if (!(word & bit)) {
        word |= bit;
        ++count;
      }
    } else if (std::find(deep.begin(), deep.end(), lv) == deep.end()) {
      deep.push_back(lv);
      ++count;
    }
  }
  return count;
}

bool Solver::lit_redundant(Lit p, std::uint32_t abstract_levels) {
  analyze_stack_.clear();
  analyze_stack_.push_back(p);
  const std::size_t top = analyze_toclear_.size();
  while (!analyze_stack_.empty()) {
    const Lit q = analyze_stack_.back();
    analyze_stack_.pop_back();
    const ClauseRef reason = var_info_[static_cast<std::size_t>(q.var())].reason;
    assert(reason != kNoClause);
    const Lit* lits = reason_lits(reason, ~q);
    const std::uint32_t size = clause_size(reason);
    for (std::uint32_t k = 1; k < size; ++k) {
      const Lit r = lits[k];
      const Var v = r.var();
      const int lv = var_info_[static_cast<std::size_t>(v)].level;
      if (!seen_[static_cast<std::size_t>(v)] && lv > 0) {
        if (var_info_[static_cast<std::size_t>(v)].reason != kNoClause &&
            ((1u << (lv & 31)) & abstract_levels)) {
          seen_[static_cast<std::size_t>(v)] = 1;
          analyze_stack_.push_back(r);
          analyze_toclear_.push_back(r);
        } else {
          for (std::size_t j = top; j < analyze_toclear_.size(); ++j) {
            seen_[static_cast<std::size_t>(analyze_toclear_[j].var())] = 0;
          }
          analyze_toclear_.resize(top);
          return false;
        }
      }
    }
  }
  return true;
}

// Final-conflict analysis: called when placing assumption ~p found it already
// falsified. Produces in conflict_ the core — the subset of the assumption
// literals that jointly force the contradiction. The refuted assumption (~p)
// is in the core by construction; every other trail literal that contributed
// is either a genuine assumption decision (reason == kNoClause, recorded
// verbatim) or was *implied*, in which case its reason clause is expanded and
// the walk recurses toward the decisions that fed it. The seen_ flags make
// the recursion a single backwards trail scan — each variable's reason is
// walked at most once — and the result is deduplicated and sorted so callers
// (core pruning) can use it as a canonical set.
void Solver::analyze_final(Lit p) {
  conflict_.clear();
  conflict_.push_back(~p);
  if (level(p.var()) == 0) {
    // Refuted by the formula alone (the trail may hold root facts above
    // decision level 0).
    return;
  }
  seen_[static_cast<std::size_t>(p.var())] = 1;
  for (std::size_t i = trail_.size(); i-- > static_cast<std::size_t>(trail_lim_[0]);) {
    const Var v = trail_[i].var();
    if (!seen_[static_cast<std::size_t>(v)]) continue;
    const ClauseRef reason = var_info_[static_cast<std::size_t>(v)].reason;
    if (reason == kNoClause) {
      assert(var_info_[static_cast<std::size_t>(v)].level > 0);
      // Decisions above the root are exactly the assumption placements, and
      // the trail holds the assumption literal as passed by the caller.
      conflict_.push_back(trail_[i]);
    } else {
      const Lit* lits = reason_lits(reason, trail_[i]);
      const std::uint32_t size = clause_size(reason);
      for (std::uint32_t k = 1; k < size; ++k) {
        if (var_info_[static_cast<std::size_t>(lits[k].var())].level > 0) {
          seen_[static_cast<std::size_t>(lits[k].var())] = 1;
        }
      }
    }
    seen_[static_cast<std::size_t>(v)] = 0;
  }
  seen_[static_cast<std::size_t>(p.var())] = 0;
  std::sort(conflict_.begin(), conflict_.end());
  conflict_.erase(std::unique(conflict_.begin(), conflict_.end()), conflict_.end());
}

void Solver::cancel_until(int target) {
  if (decision_level() <= target) return;
  const auto start = static_cast<std::size_t>(trail_lim_[static_cast<std::size_t>(target)]);
  kept_.clear();
  std::size_t search = queue_search_;
  for (std::size_t c = trail_.size(); c-- > start;) {
    const Var v = trail_[c].var();
    if (level(v) <= target) {
      // Assigned out of order at a level that survives. Its propagation
      // may have relied on literals undone here, so it is re-queued.
      kept_.push_back(trail_[c]);
      continue;
    }
    vals_[2 * static_cast<std::size_t>(v)] = LBool::Undef;
    vals_[2 * static_cast<std::size_t>(v) + 1] = LBool::Undef;
    phase_[static_cast<std::size_t>(v)] = trail_[c].sign() ? -1 : 1;
    const std::uint32_t slot = queue_slot_[static_cast<std::size_t>(v)];
    queue_set_free(slot);
    search = std::max<std::size_t>(search, slot);
    if (stable_ && heap_pos_[static_cast<std::size_t>(v)] < 0) heap_insert(v);
  }
  queue_search_ = search;
  qhead_ = std::min(qhead_, start);
  trail_.resize(start);
  trail_.insert(trail_.end(), kept_.rbegin(), kept_.rend());
  trail_lim_.resize(static_cast<std::size_t>(target));
}

Lit Solver::pick_branch_lit() {
  Var next = kUndefVar;
  if (stable_) {
    while (next == kUndefVar || value(next) != LBool::Undef) {
      if (heap_empty()) return Lit::undef();
      next = heap_pop();
    }
  } else {
    // The highest free slot at or below queue_search_, a word at a time.
    std::size_t w = queue_search_ >> 6;
    std::uint64_t bits = queue_free_[w] & (~std::uint64_t{0} >> (63 - (queue_search_ & 63)));
    while (bits == 0) {
      if (w == 0) {
        assert(queue_invariants_hold());
        return Lit::undef();
      }
      bits = queue_free_[--w];
    }
    queue_search_ = w * 64 + 63 - static_cast<std::size_t>(std::countl_zero(bits));
    next = queue_order_[queue_search_];
  }
  const signed char ph = phase_[static_cast<std::size_t>(next)];
  return Lit(next, ph < 0);
}

void Solver::reduce_db() {
  // Keep clauses with small LBD; delete the less active half of the rest.
  std::sort(learnts_.begin(), learnts_.end(), [this](ClauseRef a, ClauseRef b) {
    const std::uint32_t lbd_a = clause_lbd(a), lbd_b = clause_lbd(b);
    if (lbd_a != lbd_b) return lbd_a > lbd_b;
    return clause_activity(a) < clause_activity(b);
  });
  std::vector<ClauseRef> kept;
  kept.reserve(learnts_.size());
  const std::size_t target = learnts_.size() / 2;
  for (std::size_t i = 0; i < learnts_.size(); ++i) {
    const ClauseRef cr = learnts_[i];
    // A clause is locked if it is the reason for a current assignment. The
    // implied literal is lits[0], or either literal of a binary clause.
    const auto implies = [&](Lit l) {
      return value(l) == LBool::True && var_info_[static_cast<std::size_t>(l.var())].reason == cr;
    };
    const Lit* lits = clause_lits(cr);
    const bool locked = implies(lits[0]) || (clause_size(cr) == 2 && implies(lits[1]));
    if (i < target && clause_lbd(cr) > 2 && !locked) {
      detach_clause(cr);
      delete_clause(cr);
      ++stats_.deleted_clauses;
    } else {
      kept.push_back(cr);
    }
  }
  learnts_ = std::move(kept);
  // Deleted clauses are detached (no watcher refs) and never reasons (locked
  // clauses are kept), so their storage is reclaimable. Compact once a
  // quarter of the arena is dead; without this, lit_arena_ grows
  // monotonically — an unbounded leak over long incremental runs.
  if (garbage_lits_ * 4 > lit_arena_.size()) garbage_collect();
}

void Solver::garbage_collect() {
#ifndef NDEBUG
  // Watcher invariants (see "clause storage"): the tag marks exactly the
  // binary clauses, and a binary watcher's blocker is the other literal.
  for (std::size_t p = 0; p < watches_.size(); ++p) {
    const Lit watched = ~Lit::from_index(static_cast<std::int32_t>(p));
    for (const Watcher& w : watches_[p]) {
      const ClauseRef c = w.cref & ~kBinaryTag;
      assert(!is_deleted(c));
      assert(((w.cref & kBinaryTag) != 0) == (clause_size(c) == 2));
      if (clause_size(c) == 2) {
        const Lit* lits = clause_lits(c);
        assert((lits[0] == watched && lits[1] == w.blocker) ||
               (lits[1] == watched && lits[0] == w.blocker));
      }
    }
  }
#endif
  // Forwarding pass: each record's first literal slot takes the offset the
  // record moves to (kNoClause for a deleted one); the displaced literals of
  // live records wait in `firsts`, in arena order. Every record has at least
  // two literals, so the slot always exists.
  std::vector<Lit> firsts;
  ClauseRef to = 0;
  for (ClauseRef c = 0; c < lit_arena_.size(); c += record_words(c)) {
    if (is_deleted(c)) {
      set_word(c + 1, kNoClause);
    } else {
      firsts.push_back(lit_arena_[c + 1]);
      set_word(c + 1, to);
      to += static_cast<ClauseRef>(record_words(c));
    }
  }
  // Remap every live ClauseRef through the forwarding slots: the learnt list
  // (its order, which reduce_db's sort starts from, is kept), all watchers,
  // and the reasons of assigned variables (only trail entries can be
  // consulted as reasons; stale refs on unassigned variables are never
  // dereferenced).
  const auto forward = [this](ClauseRef c) { return word(c + 1); };
  for (ClauseRef& cr : learnts_) cr = forward(cr);
  for (auto& ws : watches_) {
    for (Watcher& w : ws) w.cref = forward(w.cref & ~kBinaryTag) | (w.cref & kBinaryTag);
  }
  for (const Lit p : trail_) {
    ClauseRef& reason = var_info_[static_cast<std::size_t>(p.var())].reason;
    if (reason != kNoClause) reason = forward(reason);
  }
  // Sliding pass: live records move down in order, so a write never reaches
  // a header the walk has yet to read.
  to = 0;
  std::size_t next_first = 0;
  for (ClauseRef c = 0; c < lit_arena_.size();) {
    const std::size_t words = record_words(c);
    if (!is_deleted(c)) {
      lit_arena_[to] = lit_arena_[c];
      lit_arena_[to + 1] = firsts[next_first++];
      for (std::size_t k = 2; k < words; ++k) lit_arena_[to + k] = lit_arena_[c + k];
      to += static_cast<ClauseRef>(words);
    }
    c += static_cast<ClauseRef>(words);
  }
  lit_arena_.resize(to);
  garbage_lits_ = 0;
}

bool Solver::import_foreign() {
  if (import_buf_.empty()) return true;
  assert(decision_level() == 0);
  bool enqueued = false;
  for (const SharedClause& sc : import_buf_) {
    // Simplify against root-level facts before attaching: a clause whose
    // watched literals are already false would never wake propagation again,
    // and a model could silently violate it.
    std::vector<Lit> out;
    out.reserve(sc.lits.size());
    bool satisfied = false;
    bool in_range = true;
    for (const Lit l : sc.lits) {
      if (static_cast<std::size_t>(l.index()) >= vals_.size()) {
        in_range = false;  // exporter ran ahead of our snapshot; drop
        break;
      }
      const LBool v = value(l);
      if (v == LBool::True) {
        satisfied = true;
        break;
      }
      if (v == LBool::Undef) out.push_back(l);
    }
    if (!in_range || satisfied) continue;
    ++stats_.imported_clauses;
    if (out.empty()) {
      ok_ = false;
      break;
    }
    if (out.size() == 1) {
      uncheckedEnqueue(out[0], 0, kNoClause);
      enqueued = true;
    } else {
      const ClauseRef cr =
          alloc_clause(out, /*learnt=*/true,
                       std::min<std::uint32_t>(sc.lbd != 0 ? sc.lbd : 2,
                                               static_cast<std::uint32_t>(out.size())));
      attach_clause(cr);
      learnts_.push_back(cr);
    }
  }
  import_buf_.clear();
  if (ok_ && enqueued && propagate() != kNoClause) ok_ = false;
  return ok_;
}

double Solver::luby(double y, int x) {
  int size = 1, seq = 0;
  while (size < x + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != x) {
    size = (size - 1) >> 1;
    --seq;
    x = x % size;
  }
  return std::pow(y, seq);
}

bool Solver::solve(const std::vector<Lit>& assumptions) {
  ++stats_.solve_calls;
  stable_ = false;
  assumptions_ = assumptions;
  conflict_.clear();
  model_.clear();
  if (!ok_) return false;

  cancel_until(0);

  const auto past_deadline = [this] {
    return deadline_ && std::chrono::steady_clock::now() >= *deadline_;
  };
  if (past_deadline()) throw SolverInterrupted{SolverInterrupted::Reason::Deadline};

  // Solve entry is a restart boundary: drain foreign clauses accumulated
  // since the last call before any search starts.
  if (import_hook_) {
    import_hook_(import_buf_);
    if (!import_foreign()) return false;
  }

  int restart_count = 0;
  std::uint64_t conflicts_until_restart =
      static_cast<std::uint64_t>(luby(2.0, restart_count) * kRestartUnit);
  std::uint64_t conflicts_this_restart = 0;
  const std::uint64_t entry_conflicts = stats_.conflicts;

  for (;;) {
    const ClauseRef confl = propagate();
    if (confl != kNoClause) {
      ++stats_.conflicts;
      ++conflicts_this_restart;
      if (conflict_budget_ && stats_.conflicts - entry_conflicts > conflict_budget_) {
        cancel_until(0);
        throw SolverInterrupted{SolverInterrupted::Reason::Budget};
      }
      if ((stats_.conflicts & 511) == 0 && past_deadline()) {
        cancel_until(0);
        throw SolverInterrupted{SolverInterrupted::Reason::Deadline};
      }
      if (progress_every_ != 0 && stats_.conflicts % progress_every_ == 0) {
        SolverProgress p;
        p.conflicts = stats_.conflicts;
        p.restarts = stats_.restarts;
        p.learnts = learnts_.size();
        if (deadline_) {
          p.deadline_remaining_ms =
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  *deadline_ - std::chrono::steady_clock::now())
                  .count();
        }
        progress_hook_(p);
      }
      if (!stable_ && stats_.conflicts - entry_conflicts >= kStableAfterConflicts) {
        switch_to_stable();
      }
      // The conflict may sit below the current level: out-of-order
      // implications carry their reason's level, not the decision level.
      bool forced = false;
      const int confl_level = conflict_level(confl, forced);
      if (confl_level == 0) {
        // Conflict independent of assumptions: formula is UNSAT outright.
        ok_ = false;
        return false;
      }
      if (forced) {
        // One literal alone on the conflict level: one level down the
        // conflict clause is unit on it and serves as its reason, with no
        // analysis.
        cancel_until(confl_level - 1);
        const Lit* lits = clause_lits(confl);
        uncheckedEnqueue(lits[0], level(lits[1].var()), confl);
        continue;
      }
      cancel_until(confl_level);
      int bt_level = 0;
      unsigned lbd = 0;
      analyze(confl, learnt_clause_, bt_level, lbd);
      if (export_hook_ && lbd <= export_lbd_cap_ && learnt_clause_.size() <= export_size_cap_) {
        ++stats_.exported_clauses;
        export_hook_(learnt_clause_, lbd);
      }
      // Long jumps backtrack chronologically; either way the asserting
      // literal is assigned at bt_level, its real level. Backtracking past
      // the assumptions is fine: the decision loop redoes them.
      if (confl_level - bt_level > kChronoThreshold) {
        ++stats_.chrono_backtracks;
        cancel_until(confl_level - 1);
      } else {
        cancel_until(bt_level);
      }
      if (learnt_clause_.size() == 1) {
        if (value(learnt_clause_[0]) == LBool::Undef) {
          uncheckedEnqueue(learnt_clause_[0], 0, kNoClause);
        } else if (value(learnt_clause_[0]) == LBool::False) {
          ok_ = false;
          return false;
        }
      } else {
        const ClauseRef cr = alloc_clause(learnt_clause_, /*learnt=*/true, lbd);
        attach_clause(cr);
        learnts_.push_back(cr);
        ++stats_.learned_clauses;
        uncheckedEnqueue(learnt_clause_[0], bt_level, cr);
      }
      var_decay_activity();
      if (learnts_.size() >= max_learnts_) {
        reduce_db();
        max_learnts_ = max_learnts_ + max_learnts_ / 10;
      }
    } else {
      if (conflicts_this_restart >= conflicts_until_restart &&
          decision_level() > static_cast<int>(assumptions_.size())) {
        ++stats_.restarts;
        ++restart_count;
        conflicts_this_restart = 0;
        conflicts_until_restart =
            static_cast<std::uint64_t>(luby(2.0, restart_count) * kRestartUnit);
        // A restart boundary is the canonical deadline check (mirrors the
        // supervised subprocess deadline, see set_deadline).
        if (past_deadline()) {
          cancel_until(0);
          throw SolverInterrupted{SolverInterrupted::Reason::Deadline};
        }
        // A restart is the only in-solve import point: no analysis is in
        // flight. Foreign clauses must attach at the root, so only pay the
        // full backtrack when something actually arrived.
        if (import_hook_) import_hook_(import_buf_);
        if (!import_buf_.empty()) {
          cancel_until(0);
          if (!import_foreign()) return false;
        } else {
          cancel_until(static_cast<int>(assumptions_.size()));
        }
        continue;
      }
      // Place assumptions as pseudo-decisions first.
      Lit next = Lit::undef();
      while (decision_level() < static_cast<int>(assumptions_.size())) {
        const Lit a = assumptions_[static_cast<std::size_t>(decision_level())];
        if (value(a) == LBool::True) {
          trail_lim_.push_back(static_cast<int>(trail_.size())); // dummy level
        } else if (value(a) == LBool::False) {
          analyze_final(~a);
          cancel_until(0);
          return false;
        } else {
          next = a;
          break;
        }
      }
      if (next == Lit::undef()) {
        ++stats_.decisions;
        next = pick_branch_lit();
        if (next == Lit::undef()) {
          // All variables assigned: model found.
          model_.resize(vals_.size() / 2);
          for (std::size_t v = 0; v < model_.size(); ++v) model_[v] = vals_[2 * v];
          cancel_until(0);
          return true;
        }
      }
      trail_lim_.push_back(static_cast<int>(trail_.size()));
      uncheckedEnqueue(next, decision_level(), kNoClause);
    }
  }
}


void Solver::for_each_problem_clause(
    const std::function<void(const std::vector<Lit>&)>& fn) const {
  std::vector<Lit> tmp;
  for (ClauseRef c = 0; c < lit_arena_.size(); c += record_words(c)) {
    if (is_learnt(c) || is_deleted(c)) continue;
    tmp.assign(clause_lits(c), clause_lits(c) + clause_size(c));
    fn(tmp);
  }
  // Level-0 units (facts) that never became stored clauses. Out-of-order
  // assignment can place them anywhere on the trail.
  for (std::size_t i = 0; i < trail_.size(); ++i) {
    const Var v = trail_[i].var();
    if (level(v) == 0 && var_info_[static_cast<std::size_t>(v)].reason == kNoClause) {
      tmp.assign(1, trail_[i]);
      fn(tmp);
    }
  }
}

std::size_t Solver::validate_model() const {
  std::size_t violated = 0;
  for_each_problem_clause([&](const std::vector<Lit>& clause) {
    for (Lit l : clause) {
      if (model_value(l)) return;
    }
    ++violated;
  });
  return violated;
}

// --- decision queue (focused mode) -------------------------------------------

void Solver::queue_append(Var v) {
  if (queue_order_.size() >= 2 * static_cast<std::size_t>(num_vars()) + 64) renumber_queue();
  const auto slot = static_cast<std::uint32_t>(queue_order_.size());
  queue_order_.push_back(v);
  queue_slot_[static_cast<std::size_t>(v)] = slot;
  if ((slot >> 6) == queue_free_.size()) queue_free_.push_back(0);
  if (value(v) == LBool::Undef) {
    queue_set_free(slot);
    queue_search_ = slot;
  }
}

void Solver::queue_move_to_front(Var v) {
  const std::uint32_t slot = queue_slot_[static_cast<std::size_t>(v)];
  if (slot + 1 == queue_order_.size()) return;
  queue_order_[slot] = kUndefVar;
  queue_clear_free(slot);
  queue_append(v);
}

void Solver::renumber_queue() {
  assert(queue_invariants_hold());
  // Slides every variable down over the holes, in order, and its bit with
  // it; the new search slot is the last variable's at or below the old one.
  std::size_t to = 0, search = 0;
  for (std::size_t s = 0; s < queue_order_.size(); ++s) {
    const Var v = queue_order_[s];
    if (v == kUndefVar) continue;
    if (s <= queue_search_) search = to;
    const bool free = (queue_free_[s >> 6] >> (s & 63)) & 1;
    queue_clear_free(static_cast<std::uint32_t>(s));
    if (free) queue_set_free(static_cast<std::uint32_t>(to));
    queue_order_[to] = v;
    queue_slot_[static_cast<std::size_t>(v)] = static_cast<std::uint32_t>(to);
    ++to;
  }
  queue_order_.resize(to);
  queue_free_.resize(to / 64 + 1);
  queue_search_ = search;
  assert(queue_invariants_hold());
}

#ifndef NDEBUG
bool Solver::queue_invariants_hold() const {
  if (queue_free_.size() * 64 < queue_order_.size()) return false;
  for (std::size_t s = 0; s < queue_free_.size() * 64; ++s) {
    const Var v = s < queue_order_.size() ? queue_order_[s] : kUndefVar;
    if (v != kUndefVar && queue_slot_[static_cast<std::size_t>(v)] != s) return false;
    const bool free = v != kUndefVar && value(v) == LBool::Undef;
    if (((queue_free_[s >> 6] >> (s & 63)) & 1) != static_cast<std::uint64_t>(free)) return false;
    if (free && s > queue_search_) return false;
  }
  return true;
}
#endif

void Solver::switch_to_stable() {
  stable_ = true;
  for (const int v : heap_) heap_pos_[static_cast<std::size_t>(v)] = -1;
  heap_.clear();
  for (Var v = 0; v < num_vars(); ++v) {
    if (value(v) == LBool::Undef) heap_insert(v);
  }
}

// --- binary max-heap on VSIDS activity ---------------------------------------

void Solver::heap_insert(Var v) {
  if (heap_pos_[static_cast<std::size_t>(v)] >= 0) return;
  heap_pos_[static_cast<std::size_t>(v)] = static_cast<int>(heap_.size());
  heap_.push_back(v);
  heap_percolate_up(static_cast<int>(heap_.size()) - 1);
}

void Solver::heap_update(Var v) {
  const int i = heap_pos_[static_cast<std::size_t>(v)];
  if (i < 0) return;
  heap_percolate_up(i);
  heap_percolate_down(heap_pos_[static_cast<std::size_t>(v)]);
}

Var Solver::heap_pop() {
  const Var top = heap_[0];
  heap_pos_[static_cast<std::size_t>(top)] = -1;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_pos_[static_cast<std::size_t>(heap_[0])] = 0;
    heap_percolate_down(0);
  }
  return top;
}

void Solver::heap_percolate_up(int i) {
  const Var v = heap_[static_cast<std::size_t>(i)];
  while (i > 0) {
    const int parent = (i - 1) >> 1;
    if (!heap_lt(v, heap_[static_cast<std::size_t>(parent)])) break;
    heap_[static_cast<std::size_t>(i)] = heap_[static_cast<std::size_t>(parent)];
    heap_pos_[static_cast<std::size_t>(heap_[static_cast<std::size_t>(i)])] = i;
    i = parent;
  }
  heap_[static_cast<std::size_t>(i)] = v;
  heap_pos_[static_cast<std::size_t>(v)] = i;
}

void Solver::heap_percolate_down(int i) {
  const Var v = heap_[static_cast<std::size_t>(i)];
  const int n = static_cast<int>(heap_.size());
  for (;;) {
    int child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n &&
        heap_lt(heap_[static_cast<std::size_t>(child + 1)], heap_[static_cast<std::size_t>(child)])) {
      ++child;
    }
    if (!heap_lt(heap_[static_cast<std::size_t>(child)], v)) break;
    heap_[static_cast<std::size_t>(i)] = heap_[static_cast<std::size_t>(child)];
    heap_pos_[static_cast<std::size_t>(heap_[static_cast<std::size_t>(i)])] = i;
    i = child;
  }
  heap_[static_cast<std::size_t>(i)] = v;
  heap_pos_[static_cast<std::size_t>(v)] = i;
}

} // namespace upec::sat
