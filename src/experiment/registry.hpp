// Named scenario registry: the catalogue of (topology x demand profile x
// protocol config) combinations the repo can run by name.
//
// The paper evaluates only a closed/open Manhattan grid; the registry
// crosses the scenario-zoo topologies (ring/radial city, highway corridor,
// roundabout town, random web) with demand profiles and protocol variants,
// and hands fully-specified ScenarioConfigs to the sweep runner. Entries
// are factories parameterized by scale so the same scenario runs both at
// full evaluation size and as a seconds-long CI smoke check.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "experiment/scenario.hpp"

namespace ivc::experiment {

enum class ScenarioScale {
  Full,   // evaluation size (minutes per sweep)
  Smoke,  // CI size (seconds per sweep)
  kCount,
};

struct NamedScenario {
  std::string name;         // unique key, e.g. "ring-radial-open-rush"
  std::string topology;     // generator family, e.g. "ring-radial"
  std::string demand;       // demand profile label, e.g. "rush"
  std::string description;  // one-liner for --list
  ScenarioConfig (*make)(ScenarioScale scale);
};

class ScenarioRegistry {
 public:
  // The built-in catalogue (every zoo topology crossed with demand and
  // protocol variants). Constructed once, immutable afterwards.
  [[nodiscard]] static const ScenarioRegistry& builtin();

  ScenarioRegistry() = default;

  // Registers a scenario; the name must be unique.
  void add(NamedScenario scenario);

  [[nodiscard]] const NamedScenario* find(std::string_view name) const;
  [[nodiscard]] const std::vector<NamedScenario>& entries() const { return entries_; }

 private:
  std::vector<NamedScenario> entries_;
};

}  // namespace ivc::experiment
