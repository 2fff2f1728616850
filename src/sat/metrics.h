// Adapters between the sat layer's typed stats structs and the unified
// util::MetricsSnapshot registry (util/metrics.h).
//
// Naming convention: the adapters emit *unprefixed* leaf names (`conflicts`,
// `timeouts`, ...); the aggregation point prefixes each component's
// snapshot into the run-level registry via merge_prefixed — e.g.
// `sat.solver.w3.` + `conflicts`. This keeps one component's serialization
// in one place while the hierarchy stays a call-site concern.
#pragma once

#include "sat/backend.h"
#include "sat/simplify.h"
#include "sat/solver.h"
#include "util/metrics.h"

namespace upec::sat {

// SolverStats: every field is a counter.
void append_metrics(util::MetricsSnapshot& out, const SolverStats& stats);

// SimplifyStats: activity fields are counters; last-run formula sizes and
// the memory readings (`db_bytes`, `elim_bytes`) are gauges; `seconds`
// becomes the `wall_us` counter (integral microseconds).
void append_metrics(util::MetricsSnapshot& out, const SimplifyStats& stats);

// BackendHealth (call-site prefix, e.g. `sat.health.w3.`); `quarantined` is
// a 0/1 gauge, everything else counters.
void append_metrics(util::MetricsSnapshot& out, const BackendHealth& health);

} // namespace upec::sat
