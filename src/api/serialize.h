// JSON scenario files: pin experiment configs in version control and
// feed them to `cbtc_cli sweep --file scenario.json`.
//
// A scenario file is a JSON object with a "scenario" section (the
// static scenario_spec), an optional "sim" section (the dynamic
// sim_spec), and an optional "lifetime" section (the battery-attrition
// lifetime_spec, including the adaptation policy); a bare scenario
// object (no "scenario" key) is accepted too. Every field is optional
// and defaults to the corresponding spec default, so files only state
// what they change:
//
//   {
//     "scenario": {
//       "name": "mobile_churn",
//       "deployment": {"kind": "uniform", "nodes": 40, "region_side": 1200},
//       "method": "protocol",
//       "cbtc": {"alpha": 2.618, "mode": "discrete"}
//     },
//     "sim": {
//       "horizon": 120, "settle": 15, "sample_every": 5,
//       "beacons": {"interval": 1.0, "miss_limit": 3},
//       "mobility": {"kind": "random_waypoint", "max_speed": 6.0},
//       "failures": {"random_crashes": 4, "window": [20, 60]},
//       "traffic": {"period": 2.0, "sink": 0}
//     },
//     "lifetime": {"battery_rounds": 30, "policy": "energy_balanced",
//                  "convergecast": true, "sink": 0}
//   }
//
// The writer emits every field that shapes a run, so a saved file is
// a durable record even if spec defaults change later. It omits only
// fields another kind owns (tree_branching unless the deployment is a
// tree, ...) and blocks left at an inert default: isotropic
// propagation, the default partition, disabled traffic, and the
// lifetime policy, convergecast and sink. The parser rejects unknown,
// repeated and kind-foreign keys and out-of-domain values, so mistakes
// fail loudly instead of being silently ignored (api/schema.h).
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "api/scenario.h"
#include "api/sim_spec.h"

namespace cbtc::api {

/// A (de)serialized experiment: static scenario + optional dynamics +
/// optional lifetime experiment.
struct scenario_file {
  scenario_spec scenario{};
  std::optional<sim_spec> sim;
  std::optional<lifetime_spec> lifetime;

  [[nodiscard]] bool operator==(const scenario_file&) const = default;
};

/// Serializes to pretty-printed JSON (doubles round-trip exactly).
[[nodiscard]] std::string to_json(const scenario_file& file);
[[nodiscard]] std::string to_json(const scenario_spec& spec);

/// Parses a scenario file; throws std::invalid_argument naming the
/// offset or field path on malformed JSON, unknown or repeated keys,
/// kind-foreign keys or out-of-domain values.
[[nodiscard]] scenario_file parse_scenario_json(std::string_view text);

/// File I/O convenience wrappers; throw std::runtime_error on I/O
/// failure (and propagate parse errors).
[[nodiscard]] scenario_file load_scenario_file(const std::string& path);
void save_scenario_file(const std::string& path, const scenario_file& file);

}  // namespace cbtc::api
