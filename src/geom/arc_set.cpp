#include "geom/arc_set.h"

#include <algorithm>
#include <cmath>

#include "geom/angle.h"

namespace cbtc::geom {

double arc::length() const { return norm_angle(hi - lo) == 0.0 && lo != hi ? two_pi : norm_angle(hi - lo); }

namespace {

// Splits a (possibly wrapping) arc into non-wrapping [lo, hi] pieces
// with lo <= hi on the real line [0, 2*pi].
void unroll(const arc& a, std::vector<arc>& out) {
  const double lo = norm_angle(a.lo);
  const double hi = norm_angle(a.hi);
  if (lo <= hi) {
    out.push_back({lo, hi});
  } else {
    out.push_back({lo, two_pi});
    out.push_back({0.0, hi});
  }
}

bool piece_before(const arc& a, const arc& b) { return a.lo < b.lo || (a.lo == b.lo && a.hi < b.hi); }

/// The arc of cover_alpha around direction `d`.
arc cover_arc(double d, double alpha) {
  const double c = norm_angle(d);
  const double half = alpha / 2.0;
  return {norm_angle(c - half), norm_angle(c + half)};
}

}  // namespace

void arc_set::merge_sorted(std::span<const arc> pieces) {
  full_ = false;
  std::vector<arc>& merged = arcs_;
  merged.clear();
  for (const arc& a : pieces) {
    if (!merged.empty() && a.lo <= merged.back().hi) {
      merged.back().hi = std::max(merged.back().hi, a.hi);
    } else {
      merged.push_back(a);
    }
  }

  // Re-join a piece ending at 2*pi with a piece starting at 0 (wrap).
  if (merged.size() >= 2 && merged.front().lo == 0.0 && merged.back().hi >= two_pi) {
    if (merged.back().lo <= merged.front().hi + 0.0) {
      // Entire circle covered.
      full_ = true;
      merged.clear();
      return;
    }
    // Merge into a single wrapping arc.
    arc wrap{merged.back().lo, merged.front().hi};
    merged.pop_back();
    merged.erase(merged.begin());
    merged.push_back(wrap);
  } else if (merged.size() == 1 && merged.front().lo == 0.0 && merged.front().hi >= two_pi) {
    full_ = true;
    merged.clear();
    return;
  }

  // Normalize endpoints back into [0, 2*pi).
  for (arc& a : merged) {
    if (a.hi >= two_pi && a.lo > 0.0) a.hi -= two_pi;  // wrapping arc
    else if (a.hi >= two_pi) a.hi = two_pi;            // should not happen after the checks above
  }

  // Canonical order by normalized lo.
  std::sort(merged.begin(), merged.end(), [](const arc& a, const arc& b) { return a.lo < b.lo; });
}

arc_set arc_set::from_arcs(std::span<const arc> arcs) {
  std::vector<arc> pieces;
  pieces.reserve(arcs.size() * 2);
  for (const arc& a : arcs) unroll(a, pieces);
  std::sort(pieces.begin(), pieces.end(), piece_before);
  arc_set result;
  result.merge_sorted(pieces);
  return result;
}

arc_set arc_set::cover(std::span<const double> directions, double alpha) {
  if (alpha >= two_pi && !directions.empty()) return full_circle();
  std::vector<arc> arcs;
  arcs.reserve(directions.size());
  for (double d : directions) arcs.push_back(cover_arc(d, alpha));
  return from_arcs(arcs);
}

arc_set arc_set::full_circle() {
  arc_set s;
  s.full_ = true;
  return s;
}

double arc_set::measure() const {
  if (full_) return two_pi;
  double total = 0.0;
  for (const arc& a : arcs_) {
    const double len = norm_angle(a.hi - a.lo);
    total += (len == 0.0 && a.lo != a.hi) ? two_pi : len;
  }
  return std::min(total, two_pi);
}

bool arc_set::contains(double theta) const {
  if (full_) return true;
  const double t = norm_angle(theta);
  for (const arc& a : arcs_) {
    if (angle_in_ccw_arc(t, a.lo, a.hi)) return true;
  }
  return false;
}

bool arc_set::approx_equals(const arc_set& other, double eps) const {
  if (full_ || other.full_) {
    // Accept "full vs almost-full": every arc endpoint mismatch must be
    // within eps, which for a full circle means the other set's measure
    // is within arcs-count * eps of 2*pi.
    const arc_set& partial = full_ ? other : *this;
    if (partial.full_) return true;
    const double slack = eps * std::max<std::size_t>(1, partial.arcs_.size()) * 2.0;
    return partial.measure() >= two_pi - slack;
  }
  if (arcs_.size() != other.arcs_.size()) return false;
  for (std::size_t i = 0; i < arcs_.size(); ++i) {
    if (angle_dist(arcs_[i].lo, other.arcs_[i].lo) > eps) return false;
    if (angle_dist(arcs_[i].hi, other.arcs_[i].hi) > eps) return false;
  }
  return true;
}

void cover_accumulator::clear() {
  pieces_.clear();
  any_ = false;
}

void cover_accumulator::add(double direction) {
  any_ = true;
  const std::size_t first = pieces_.size();
  unroll(cover_arc(direction, alpha_), pieces_);
  for (std::size_t i = first; i < pieces_.size(); ++i) {
    const auto at = pieces_.begin() + static_cast<std::ptrdiff_t>(i);
    std::rotate(std::upper_bound(pieces_.begin(), at, *at, piece_before), at, at + 1);
  }
}

const arc_set& cover_accumulator::merged() {
  if (alpha_ >= two_pi && any_) {
    set_.full_ = true;
    set_.arcs_.clear();
  } else {
    set_.merge_sorted(pieces_);
  }
  return set_;
}

}  // namespace cbtc::geom
