// Scenario descriptions for the cbtc::api façade.
//
// A `scenario_spec` is a complete, value-typed description of one
// experiment family: how nodes are deployed, what radio they carry,
// which topology-control method runs (centralized oracle, distributed
// protocol, or a position-based baseline), and which metrics to
// compute. A spec plus a seed fully determines a network instance, so
// batches are reproducible by construction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "algo/params.h"
#include "algo/pipeline.h"
#include "geom/bbox.h"
#include "geom/vec2.h"
#include "proto/runner.h"
#include "radio/power_model.h"
#include "radio/propagation.h"

namespace cbtc::api {

/// How the nodes are placed.
enum class deployment_kind {
  uniform,  ///< uniform in a square region (the paper's Section 5 setup)
  cluster,  ///< gaussian clusters (dense spots, thin bridges)
  grid,     ///< jittered grid (planned mesh deployments); jitter 0 = exact lattice
  fixed,    ///< explicit positions (CSV imports, analytic gadgets)
  ring,     ///< perimeter circle (structured, seed-free)
  tree,     ///< complete b-ary aggregation tiers (structured, seed-free)
  star,     ///< hub and spokes (structured, seed-free)
};

struct deployment_spec {
  deployment_kind kind{deployment_kind::uniform};
  std::size_t nodes{100};
  double region_side{1500.0};
  // cluster-only knobs
  std::size_t clusters{5};
  double cluster_sigma{150.0};
  // grid-only knob; <= 0 selects the exact seed-free lattice
  double grid_jitter{0.3};
  // tree-only knob
  std::size_t tree_branching{2};
  // star-only knob
  std::size_t star_arms{4};
  // kind == fixed: the positions themselves (seed is ignored)
  std::vector<geom::vec2> fixed;

  [[nodiscard]] static deployment_spec fixed_positions(std::vector<geom::vec2> positions);

  [[nodiscard]] bool operator==(const deployment_spec&) const = default;
};

/// Per-link propagation on top of the power law (radio/propagation.h).
/// The default is isotropic: every link of the same length has the
/// same budget, bitwise-equivalent to the plain power-model path.
struct propagation_spec {
  radio::propagation_kind kind{radio::propagation_kind::isotropic};
  // lognormal_shadowing knobs (dB); clamp bounds the per-link
  // deviation so the longest feasible link stays bounded.
  double sigma_db{4.0};
  double clamp_db{8.0};
  /// Extra entropy for the shadowing hash. Mixed with the *instance*
  /// seed, so every seed of a batch draws its own gain field and the
  /// whole batch stays reproducible.
  std::uint64_t seed{0};
  // obstacle_field knob: the attenuating rectangles.
  std::vector<radio::obstacle> obstacles;

  /// The concrete model for one instance (`instance_seed` is
  /// base_seed + run seed; only shadowing consumes it).
  [[nodiscard]] radio::propagation_model model(std::uint64_t instance_seed) const;

  [[nodiscard]] bool operator==(const propagation_spec&) const = default;
};

/// Radio parameters; the power model is derived as p(d) = d^exponent
/// with maximum range R (see radio::power_model), and `propagation`
/// selects the per-link gain layer on top.
struct radio_spec {
  double path_loss_exponent{2.0};
  double max_range{500.0};
  propagation_spec propagation{};

  [[nodiscard]] bool operator==(const radio_spec&) const = default;
};

enum class baseline_kind {
  euclidean_mst,
  relative_neighborhood,
  gabriel,
  yao,
  knn,
  max_power,  ///< no topology control: everyone transmits at P
};

/// Which algorithm builds the topology. `stc` is Sethu-Gerety step
/// topology control (algo/stc.h): purely link-power based, so it is
/// the natural comparison method for CBTC under non-isotropic
/// propagation.
struct method_spec {
  enum class kind { oracle, protocol, baseline, stc };

  kind k{kind::oracle};
  baseline_kind baseline{baseline_kind::max_power};
  std::size_t yao_cones{6};  ///< baseline_kind::yao
  std::size_t knn_k{3};      ///< baseline_kind::knn

  [[nodiscard]] static method_spec oracle() { return {}; }
  [[nodiscard]] static method_spec protocol() { return {.k = kind::protocol}; }
  [[nodiscard]] static method_spec stc() { return {.k = kind::stc}; }
  [[nodiscard]] static method_spec of_baseline(baseline_kind b) {
    return {.k = kind::baseline, .baseline = b};
  }

  [[nodiscard]] bool operator==(const method_spec&) const = default;
};

/// Which (potentially costly) metrics the engine computes per run.
/// Degree/radius/power and the paper's invariant checks are always on.
struct metric_options {
  bool stretch{true};               ///< power + hop stretch vs G_R (Dijkstra/BFS)
  /// Stretch sampling parameter k >= 1, not a source count: every
  /// floor(n/k)-th node id is a source, k to 2k-1 of them for k <= n
  /// (graph::power_stretch).
  std::size_t stretch_samples{8};
  bool interference{true};          ///< coverage-based edge interference
  bool robustness{true};            ///< articulation-point count

  [[nodiscard]] bool operator==(const metric_options&) const = default;
};

/// Library-level post-processing applied after the method finishes.
struct post_options {
  /// Extension: back up bridge edges for single-failure resilience
  /// (algo::augment_bridge_resilience).
  bool bridge_augmentation{false};

  [[nodiscard]] bool operator==(const post_options&) const = default;
};

/// A complete scenario: deployment + radio + method + parameters.
struct scenario_spec {
  std::string name;  ///< registry key / display label (may be empty)
  deployment_spec deploy{};
  radio_spec radio{};
  method_spec method{};
  /// CBTC parameters (oracle and protocol methods). The protocol
  /// method always runs discrete growth — the distributed agents
  /// implement the Increase(p) schedule only — so `mode` affects the
  /// oracle method alone.
  algo::cbtc_params cbtc{};
  /// Post-growth optimizations (oracle and protocol methods).
  algo::optimization_set opts{};
  /// Protocol substrate (channel, timeouts); `agent.params` and `seed`
  /// are overwritten by the engine from `cbtc` and the run seed.
  proto::protocol_run_config protocol{};
  /// Offset added to every run seed, so different scenarios draw
  /// different instance streams from the same seed range.
  std::uint64_t base_seed{20010601};
  metric_options metrics{};
  post_options post{};

  /// Positions of instance `seed` (deterministic; `base_seed + seed`
  /// feeds the generator). `fixed` deployments ignore the seed.
  [[nodiscard]] std::vector<geom::vec2> make_positions(std::uint64_t seed) const;

  /// The derived radio power model.
  [[nodiscard]] radio::power_model power() const;

  /// The per-link radio budget of instance `seed`: power model plus
  /// the propagation layer (isotropic unless the spec says otherwise).
  [[nodiscard]] radio::link_model link(std::uint64_t seed) const;

  /// Nominal deployment region (bounding box of `fixed` deployments).
  [[nodiscard]] geom::bbox region() const;

  [[nodiscard]] bool operator==(const scenario_spec&) const = default;
};

/// Half-open run range: seeds `first, first + 1, ..., first + count - 1`.
struct seed_range {
  std::uint64_t first{0};
  std::uint64_t count{1};
};

/// Short human-readable name of a method ("oracle", "protocol",
/// "gabriel", ...).
[[nodiscard]] std::string method_name(const method_spec& m);

/// Parses `method_name` output (and a few aliases: "mst", "rng");
/// throws std::invalid_argument on unknown names.
[[nodiscard]] method_spec parse_method(const std::string& name);

}  // namespace cbtc::api
