// Row counts in a run's metrics registry (util/metrics.h): the scheduler
// workers it reports (`sat.solver.w<k>.*`).
#pragma once

#include <cstddef>
#include <string>

#include "util/metrics.h"

namespace upec {

inline std::size_t worker_rows(const util::MetricsSnapshot& m) {
  std::size_t n = 0;
  while (m.has("sat.solver.w" + std::to_string(n) + ".solve_calls")) ++n;
  return n;
}

} // namespace upec
