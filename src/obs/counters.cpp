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

namespace {

/// `v` as an int64 (Json::as_int), or std::runtime_error naming `what`.
std::int64_t snapshot_int(const Json& v, const std::string& what) {
  try {
    return v.as_int();
  } catch (const std::runtime_error& e) {
    throw std::runtime_error("metrics snapshot: " + what + ": " + e.what());
  }
}

}  // namespace

MetricsSnapshot MetricsSnapshot::from_json(const Json& j) {
  MetricsSnapshot s;
  if (const Json* c = j.find("cycle")) s.cycle = snapshot_int(*c, "'cycle'");
  if (const Json* counters = j.find("counters"); counters && counters->is_object()) {
    for (const auto& [k, v] : counters->as_object()) {
      s.values.emplace_back(k, snapshot_int(v, "counter '" + k + "'"));
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
