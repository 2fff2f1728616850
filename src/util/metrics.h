// Hierarchical counter/gauge snapshot with explicit merge semantics.
//
// The engine's per-component statistics (sat::SolverStats, SimplifyStats,
// BackendHealth, the clause channel, the upec frontier pruner) are unified
// into one named, flat registry: ipc::CheckScheduler::metrics() builds it,
// the upec layer adds its pruner counter, and both the text and the JSON
// report read it (Alg1Result::metrics). Names are dotted paths that encode the
// hierarchy — `sat.solver.w3.conflicts`, `sat.solver.w3.m1.conflicts`,
// `upec.sweep.pruned_candidates`, `sat.channel.exported` — so a snapshot
// is simultaneously the per-component breakdown and (via merge_prefixed)
// the aggregate.
//
// Merge semantics, defined once here instead of at every call site:
//   - Counter: merges by SUM (conflicts, propagations, solve calls, ...).
//   - Gauge:   merges by MAX (live learnt clauses, quarantined flags,
//              high-water marks). Monotone-safe for "any member" checks.
// Merging a counter into a gauge (or vice versa) keeps the existing kind;
// the engine never mixes kinds for one name.
//
// Values are unsigned integers only — durations are carried as _us /
// _ms counters — so snapshots diff exactly across runs and machines.
// Storage is a std::map, giving every serialization a stable
// (lexicographic) key order for free.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace upec::util {

class JsonWriter;

enum class MetricKind : std::uint8_t { Counter, Gauge };

class MetricsSnapshot {
public:
  struct Entry {
    std::uint64_t value = 0;
    MetricKind kind = MetricKind::Counter;
  };

  // add_counter accumulates; set_gauge keeps the max of repeated sets so it
  // composes the same way merge() does.
  void add_counter(const std::string& name, std::uint64_t v);
  void set_gauge(const std::string& name, std::uint64_t v);

  std::uint64_t get(const std::string& name) const;
  bool has(const std::string& name) const;
  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  // Folds `other` into this snapshot under the kind-specific rule above.
  void merge(const MetricsSnapshot& other);
  // merge(), but every incoming name gains `prefix` — how a worker's local
  // snapshot becomes `sat.solver.w3.*` in the run-level registry.
  void merge_prefixed(const std::string& prefix, const MetricsSnapshot& other);

  // Serializes as one flat JSON object, keys in lexicographic order.
  void write_json(JsonWriter& w) const;
  std::string to_json() const;

  const std::map<std::string, Entry>& entries() const { return entries_; }

private:
  std::map<std::string, Entry> entries_;
};

} // namespace upec::util
