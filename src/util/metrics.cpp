#include "util/metrics.h"

#include <algorithm>

#include "util/json.h"

namespace upec::util {

void MetricsSnapshot::add_counter(const std::string& name, std::uint64_t v) {
  Entry& e = entries_[name];
  e.kind = MetricKind::Counter;
  e.value += v;
}

void MetricsSnapshot::set_gauge(const std::string& name, std::uint64_t v) {
  auto [it, inserted] = entries_.try_emplace(name);
  it->second.kind = MetricKind::Gauge;
  it->second.value = inserted ? v : std::max(it->second.value, v);
}

std::uint64_t MetricsSnapshot::get(const std::string& name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? 0 : it->second.value;
}

bool MetricsSnapshot::has(const std::string& name) const {
  return entries_.count(name) != 0;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, incoming] : other.entries_) {
    auto [it, inserted] = entries_.try_emplace(name, incoming);
    if (inserted)
      continue;
    Entry& e = it->second;
    if (e.kind == MetricKind::Counter)
      e.value += incoming.value;
    else
      e.value = std::max(e.value, incoming.value);
  }
}

void MetricsSnapshot::merge_prefixed(const std::string& prefix,
                                     const MetricsSnapshot& other) {
  for (const auto& [name, incoming] : other.entries_) {
    auto [it, inserted] = entries_.try_emplace(prefix + name, incoming);
    if (inserted)
      continue;
    Entry& e = it->second;
    if (e.kind == MetricKind::Counter)
      e.value += incoming.value;
    else
      e.value = std::max(e.value, incoming.value);
  }
}

void MetricsSnapshot::write_json(JsonWriter& w) const {
  w.begin_object();
  for (const auto& [name, entry] : entries_)
    w.key(name).value(entry.value);
  w.end_object();
}

std::string MetricsSnapshot::to_json() const {
  JsonWriter w;
  write_json(w);
  return w.take();
}

} // namespace upec::util
