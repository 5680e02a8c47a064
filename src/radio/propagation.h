// Pluggable per-link propagation: gain models over node pairs.
//
// The paper (and radio::power_model) assumes an isotropic power law
// p(d) = d^n — every link of the same length has the same budget. Real
// fields do not: lognormal shadowing and obstructions make the
// required power a property of the *link*, not the distance
// [Rappaport 96; Sethu & Gerety, arXiv:0709.0961]. propagation_model
// captures that as a multiplicative per-link gain g(u, v) on the
// received power:
//
//   rx_power = g(u, v) * tx_power / d^n
//   required_power(u, v) = p(d(u, v)) / g(u, v)
//
// Three implementations:
//   * isotropic            — g == 1 everywhere; bitwise-equivalent to
//                            the plain power_model path (the default).
//   * lognormal_shadowing  — g = 10^(X/10) with X a clamped zero-mean
//                            gaussian drawn by hashing
//                            (seed, min(u,v), max(u,v)): symmetric,
//                            reproducible, independent of call order
//                            and thread count.
//   * obstacle_field       — axis-aligned attenuating rectangles; a
//                            link loses loss_db per rectangle its
//                            segment crosses.
//
// link_model composes a power_model with a propagation_model and is
// what reachability consumers (max-power graph, oracle growth, the
// medium, the live index, invariant checks) thread through. All gains
// are pure functions of (model, u, v, positions), so every
// deterministic-reduction contract of the engine survives unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "geom/bbox.h"
#include "geom/vec2.h"
#include "radio/power_model.h"

namespace cbtc::radio {

enum class propagation_kind { isotropic, lognormal_shadowing, obstacle_field };

/// An axis-aligned attenuating rectangle (a building, a wall, terrain):
/// any link whose segment crosses `box` loses `loss_db` dB of budget.
struct obstacle {
  geom::bbox box;
  double loss_db{6.0};

  [[nodiscard]] bool operator==(const obstacle&) const = default;
};

/// True if the closed segment [p, q] intersects `box` (shared with the
/// obstacle model and its tests). Exactly symmetric in p and q, so
/// obstacle gains are too.
[[nodiscard]] bool segment_intersects_box(const geom::bbox& box, const geom::vec2& p,
                                          const geom::vec2& q);

class propagation_model {
 public:
  /// The default model is isotropic (gain 1 on every link).
  propagation_model() = default;

  [[nodiscard]] static propagation_model isotropic() { return {}; }

  /// Per-link lognormal shadowing: gain 10^(X/10), X gaussian with
  /// standard deviation `sigma_db`, clamped to [-clamp_db, clamp_db]
  /// so the maximum feasible link length stays bounded (the spatial
  /// grids prune by it). X is drawn by hashing (seed, min(u,v),
  /// max(u,v)) — symmetric and reproducible by construction.
  [[nodiscard]] static propagation_model lognormal_shadowing(double sigma_db, double clamp_db,
                                                             std::uint64_t seed);

  /// Attenuating axis-aligned rectangles; gains are always <= 1.
  [[nodiscard]] static propagation_model obstacle_field(std::vector<obstacle> obstacles);

  /// The gain of link {u, v} (symmetric: gain(u, v) == gain(v, u)).
  /// Positions only matter for obstacle fields; ids only for shadowing.
  [[nodiscard]] double gain(std::uint32_t u, std::uint32_t v, const geom::vec2& pu,
                            const geom::vec2& pv) const;

  /// A view of this model under a node relabeling: gain(u, v) of the
  /// returned model equals gain(ids[u], ids[v]) of this one. This is
  /// how the engine's spatial-relabeling pass keeps shadowing gains —
  /// which hash *node ids* — bitwise-identical while the pipeline runs
  /// in permuted label space. Composes with an existing relabeling.
  [[nodiscard]] propagation_model relabeled(std::vector<std::uint32_t> ids) const;

  /// Upper bound on gain() over every possible link (exactly 1.0 for
  /// isotropic and obstacle fields).
  [[nodiscard]] double max_gain() const { return max_gain_; }

  [[nodiscard]] propagation_kind kind() const { return kind_; }
  [[nodiscard]] bool is_isotropic() const { return kind_ == propagation_kind::isotropic; }

  // Parameter accessors (serialization / introspection).
  [[nodiscard]] double sigma_db() const { return sigma_db_; }
  [[nodiscard]] double clamp_db() const { return clamp_db_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] const std::vector<obstacle>& obstacles() const;

 private:
  propagation_kind kind_{propagation_kind::isotropic};
  double sigma_db_{0.0};
  double clamp_db_{0.0};
  std::uint64_t seed_{0};
  // Shared so propagation_model stays cheap to copy into every
  // engine/medium/index that consumes it.
  std::shared_ptr<const std::vector<obstacle>> obstacles_;
  // Engaged by relabeled(): translates caller ids back to the original
  // labels before hashing, so relabeled runs draw the same gains.
  std::shared_ptr<const std::vector<std::uint32_t>> relabel_;
  double max_gain_{1.0};
};

/// A power model plus a propagation model: the per-link radio budget.
/// Implicitly constructible from a bare power_model (isotropic), so
/// every pre-propagation call site keeps compiling — and keeps its
/// bitwise behaviour, because isotropic gains short-circuit to the
/// plain power_model arithmetic.
class link_model {
 public:
  link_model(power_model pm, propagation_model prop = {});  // NOLINT(google-explicit-constructor)

  [[nodiscard]] const power_model& power() const { return power_; }
  [[nodiscard]] const propagation_model& propagation() const { return prop_; }
  [[nodiscard]] bool is_isotropic() const { return prop_.is_isotropic(); }
  [[nodiscard]] double max_power() const { return power_.max_power(); }
  [[nodiscard]] double max_range() const { return power_.max_range(); }

  [[nodiscard]] double gain(std::uint32_t u, std::uint32_t v, const geom::vec2& pu,
                            const geom::vec2& pv) const {
    return prop_.gain(u, v, pu, pv);
  }

  /// Minimum transmission power that closes link u -> v:
  /// p(d(u, v)) / gain(u, v).
  [[nodiscard]] double required_power(std::uint32_t u, std::uint32_t v, const geom::vec2& pu,
                                      const geom::vec2& pv) const;

  /// Same with the distance precomputed by the caller (`distance` must
  /// equal |pu - pv|; hot paths avoid a second sqrt).
  [[nodiscard]] double required_power_at(double distance, std::uint32_t u, std::uint32_t v,
                                         const geom::vec2& pu, const geom::vec2& pv) const;

  /// Gain-adjusted reception power of link u -> v.
  [[nodiscard]] double rx_power_at(double tx_power, double distance, std::uint32_t u,
                                   std::uint32_t v, const geom::vec2& pu,
                                   const geom::vec2& pv) const;

  /// Decodability of link u -> v at `tx_power` (same one-ulp tolerance
  /// as power_model::reaches; identical verdicts when isotropic).
  [[nodiscard]] bool reaches(double tx_power, std::uint32_t u, std::uint32_t v,
                             const geom::vec2& pu, const geom::vec2& pv) const;
  [[nodiscard]] bool reaches_at(double tx_power, double distance, std::uint32_t u, std::uint32_t v,
                                const geom::vec2& pu, const geom::vec2& pv) const;

  /// Conservative upper bound on the length of any feasible link:
  /// spatial indexes prune candidates by this radius, then filter
  /// per link. Exactly max_range() when gains cannot exceed 1.
  [[nodiscard]] double max_candidate_range() const { return max_candidate_range_; }

  /// The same radio budget under a node relabeling (see
  /// propagation_model::relabeled).
  [[nodiscard]] link_model relabeled(std::vector<std::uint32_t> ids) const {
    return {power_, prop_.relabeled(std::move(ids))};
  }

 private:
  power_model power_;
  propagation_model prop_;
  double max_candidate_range_;
};

}  // namespace cbtc::radio
