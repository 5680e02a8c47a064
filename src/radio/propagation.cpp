#include "radio/propagation.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace cbtc::radio {

namespace {

constexpr double two_pi = 6.283185307179586476925286766559;

/// splitmix64: the standard 64-bit finalizer — every link draws its
/// gain from one hash invocation, so results cannot depend on call
/// order or thread placement.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform in (0, 1]: the top 53 bits of the hash, never zero (the log
/// below needs a strictly positive argument).
double unit_open(std::uint64_t h) {
  return static_cast<double>((h >> 11) + 1) * 0x1.0p-53;
}

/// Standard normal from one link hash (Box-Muller, first component).
double standard_normal(std::uint64_t h) {
  const double u1 = unit_open(h);
  const double u2 = unit_open(splitmix64(h ^ 0x6a09e667f3bcc909ULL));
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(two_pi * u2);
}

double db_to_gain(double db) { return std::pow(10.0, db / 10.0); }

}  // namespace

bool segment_intersects_box(const geom::bbox& box, const geom::vec2& p, const geom::vec2& q) {
  // Clip from the lexicographically smaller endpoint: the two
  // directions round differently when a segment grazes a corner, and
  // obstacle gains must be exactly symmetric.
  if (q.x < p.x || (q.x == p.x && q.y < p.y)) return segment_intersects_box(box, q, p);
  // Liang-Barsky slab clipping of the parametric segment p + t (q - p),
  // t in [0, 1], against the closed box.
  double t0 = 0.0;
  double t1 = 1.0;
  const double d[2] = {q.x - p.x, q.y - p.y};
  const double lo[2] = {box.min.x, box.min.y};
  const double hi[2] = {box.max.x, box.max.y};
  const double s[2] = {p.x, p.y};
  for (int axis = 0; axis < 2; ++axis) {
    if (d[axis] == 0.0) {
      if (s[axis] < lo[axis] || s[axis] > hi[axis]) return false;
      continue;
    }
    double ta = (lo[axis] - s[axis]) / d[axis];
    double tb = (hi[axis] - s[axis]) / d[axis];
    if (ta > tb) std::swap(ta, tb);
    t0 = std::max(t0, ta);
    t1 = std::min(t1, tb);
    if (t0 > t1) return false;
  }
  return true;
}

propagation_model propagation_model::lognormal_shadowing(double sigma_db, double clamp_db,
                                                         std::uint64_t seed) {
  if (sigma_db < 0.0) {
    throw std::invalid_argument("propagation_model: sigma_db must be non-negative");
  }
  if (clamp_db < 0.0) {
    throw std::invalid_argument("propagation_model: clamp_db must be non-negative");
  }
  propagation_model m;
  m.kind_ = propagation_kind::lognormal_shadowing;
  m.sigma_db_ = sigma_db;
  m.clamp_db_ = clamp_db;
  m.seed_ = seed;
  m.max_gain_ = db_to_gain(clamp_db);
  return m;
}

propagation_model propagation_model::obstacle_field(std::vector<obstacle> obstacles) {
  for (const obstacle& o : obstacles) {
    if (o.box.min.x > o.box.max.x || o.box.min.y > o.box.max.y) {
      throw std::invalid_argument("propagation_model: obstacle box has min > max");
    }
    if (o.loss_db <= 0.0) {
      throw std::invalid_argument("propagation_model: obstacle loss_db must be positive");
    }
  }
  propagation_model m;
  m.kind_ = propagation_kind::obstacle_field;
  m.obstacles_ = std::make_shared<const std::vector<obstacle>>(std::move(obstacles));
  m.max_gain_ = 1.0;  // obstacles only ever attenuate
  return m;
}

const std::vector<obstacle>& propagation_model::obstacles() const {
  static const std::vector<obstacle> empty;
  return obstacles_ ? *obstacles_ : empty;
}

propagation_model propagation_model::relabeled(std::vector<std::uint32_t> ids) const {
  propagation_model m = *this;
  if (is_isotropic()) return m;  // identity gains: nothing to translate
  if (relabel_) {
    for (std::uint32_t& id : ids) id = (*relabel_)[id];
  }
  m.relabel_ = std::make_shared<const std::vector<std::uint32_t>>(std::move(ids));
  return m;
}

double propagation_model::gain(std::uint32_t u, std::uint32_t v, const geom::vec2& pu,
                               const geom::vec2& pv) const {
  if (relabel_) {
    u = (*relabel_)[u];
    v = (*relabel_)[v];
  }
  switch (kind_) {
    case propagation_kind::isotropic:
      return 1.0;
    case propagation_kind::lognormal_shadowing: {
      // Hash the *unordered* pair: gain(u, v) == gain(v, u) exactly.
      const std::uint64_t a = std::min(u, v);
      const std::uint64_t b = std::max(u, v);
      const std::uint64_t h = splitmix64(seed_ ^ splitmix64((a << 32) | b));
      const double x_db = std::clamp(sigma_db_ * standard_normal(h), -clamp_db_, clamp_db_);
      return db_to_gain(x_db);
    }
    case propagation_kind::obstacle_field: {
      double loss_db = 0.0;
      for (const obstacle& o : *obstacles_) {
        if (segment_intersects_box(o.box, pu, pv)) loss_db += o.loss_db;
      }
      return loss_db == 0.0 ? 1.0 : db_to_gain(-loss_db);
    }
  }
  return 1.0;
}

link_model::link_model(power_model pm, propagation_model prop)
    : power_(pm), prop_(std::move(prop)) {
  if (prop_.max_gain() <= 1.0) {
    // Gains never exceed 1: no link can outreach the isotropic radius.
    max_candidate_range_ = power_.max_range();
  } else {
    // d feasible => d^n <= P * g * (1 + tol); pad by a hair so the
    // grid prune stays a strict superset of the per-link filter.
    max_candidate_range_ =
        std::max(power_.max_range(), power_.range(power_.max_power() * prop_.max_gain()) *
                                         (1.0 + 1e-9));
  }
}

double link_model::required_power(std::uint32_t u, std::uint32_t v, const geom::vec2& pu,
                                  const geom::vec2& pv) const {
  return required_power_at(geom::distance(pu, pv), u, v, pu, pv);
}

double link_model::required_power_at(double distance, std::uint32_t u, std::uint32_t v,
                                     const geom::vec2& pu, const geom::vec2& pv) const {
  if (prop_.is_isotropic()) return power_.required_power(distance);
  return power_.required_power(distance) / prop_.gain(u, v, pu, pv);
}

double link_model::rx_power_at(double tx_power, double distance, std::uint32_t u, std::uint32_t v,
                               const geom::vec2& pu, const geom::vec2& pv) const {
  if (prop_.is_isotropic()) return power_.rx_power(tx_power, distance);
  return power_.rx_power(tx_power, distance) * prop_.gain(u, v, pu, pv);
}

bool link_model::reaches(double tx_power, std::uint32_t u, std::uint32_t v, const geom::vec2& pu,
                         const geom::vec2& pv) const {
  return reaches_at(tx_power, geom::distance(pu, pv), u, v, pu, pv);
}

bool link_model::reaches_at(double tx_power, double distance, std::uint32_t u, std::uint32_t v,
                            const geom::vec2& pu, const geom::vec2& pv) const {
  if (prop_.is_isotropic()) return power_.reaches(tx_power, distance);
  // Same one-ulp tolerance as power_model::reaches, applied to the
  // gain-adjusted budget.
  return required_power_at(distance, u, v, pu, pv) <= tx_power * (1.0 + 1e-12);
}

}  // namespace cbtc::radio
