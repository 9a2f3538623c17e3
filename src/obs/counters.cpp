#include "obs/counters.h"

#include <algorithm>
#include <stdexcept>

namespace ocn::obs {

bool MetricsSnapshot::has(std::string_view name) const {
  return std::any_of(values.begin(), values.end(),
                     [&](const auto& kv) { return kv.first == name; });
}

std::int64_t MetricsSnapshot::value(std::string_view name) const {
  for (const auto& [k, v] : values) {
    if (k == name) return v;
  }
  return 0;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  cycle = std::max(cycle, other.cycle);
  for (const auto& [name, v] : other.values) {
    bool found = false;
    for (auto& [k, mine] : values) {
      if (k == name) {
        mine += v;
        found = true;
        break;
      }
    }
    if (!found) values.emplace_back(name, v);
  }
}

Json MetricsSnapshot::to_json() const {
  Json counters = Json::object();
  for (const auto& [k, v] : values) counters.set(k, Json(v));
  return Json::object().set("cycle", Json(cycle)).set("counters", std::move(counters));
}

MetricsSnapshot MetricsSnapshot::from_json(const Json& j) {
  MetricsSnapshot s;
  if (const Json* c = j.find("cycle")) s.cycle = c->as_int();
  if (const Json* counters = j.find("counters"); counters && counters->is_object()) {
    for (const auto& [k, v] : counters->as_object()) {
      s.values.emplace_back(k, v.as_int());
    }
  }
  return s;
}

Counter& CounterRegistry::counter(const std::string& name) {
  const auto [it, inserted] = names_.try_emplace(name, counters_.size());
  if (inserted) return counters_.emplace_back(name, Counter{}).second;
  if (it->second == kGauge) {
    throw std::invalid_argument("obs: counter name already registered as gauge: " + name);
  }
  return counters_[it->second].second;
}

void CounterRegistry::gauge(std::string name, std::function<std::int64_t()> read) {
  if (!names_.try_emplace(name, kGauge).second) {
    throw std::invalid_argument("obs: instrument name already registered: " + name);
  }
  gauges_.emplace_back(std::move(name), std::move(read));
}

MetricsSnapshot CounterRegistry::snapshot(std::int64_t cycle) const {
  MetricsSnapshot s;
  s.cycle = cycle;
  s.values.reserve(instruments());
  for (const auto& [k, c] : counters_) s.values.emplace_back(k, c.value());
  for (const auto& [k, fn] : gauges_) s.values.emplace_back(k, fn());
  return s;
}

void CounterRegistry::reset_counters() {
  for (auto& [k, c] : counters_) c.reset();
}

}  // namespace ocn::obs
