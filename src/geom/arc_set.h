// Unions of circular arcs on [0, 2*pi).
//
// Section 3.1 of the paper defines
//   cover_alpha(dir) = { theta : exists theta' in dir, |theta - theta'| mod 2pi <= alpha/2 }
// i.e. the union of closed arcs of half-width alpha/2 around each known
// direction. The shrink-back optimization removes discovery power
// levels as long as this *set* is unchanged, so we need a normal form
// for arc unions plus epsilon-tolerant equality.
#pragma once

#include <span>
#include <vector>

namespace cbtc::geom {

/// A closed arc on the circle, counterclockwise from `lo` to `hi`
/// (both normalized to [0, 2*pi); an arc may wrap through 0).
struct arc {
  double lo{0.0};
  double hi{0.0};

  /// Counterclockwise extent of the arc in [0, 2*pi].
  [[nodiscard]] double length() const;
};

/// A union of circular arcs kept in a canonical normal form:
/// disjoint, sorted by starting angle, non-adjacent (merged), with the
/// full circle represented explicitly.
class arc_set {
 public:
  arc_set() = default;

  /// Builds the union of the given (possibly overlapping) arcs.
  static arc_set from_arcs(std::span<const arc> arcs);

  /// cover_alpha(dir): union of closed arcs [d - alpha/2, d + alpha/2]
  /// for each direction d. `alpha >= 2*pi` yields the full circle.
  static arc_set cover(std::span<const double> directions, double alpha);

  /// The full circle.
  static arc_set full_circle();

  [[nodiscard]] bool empty() const { return !full_ && arcs_.empty(); }
  [[nodiscard]] bool is_full_circle() const { return full_; }

  /// Total angular measure covered, in [0, 2*pi].
  [[nodiscard]] double measure() const;

  /// True if angle `theta` is covered.
  [[nodiscard]] bool contains(double theta) const;

  /// True if the two sets are equal up to boundary perturbations of at
  /// most `eps` per arc endpoint.
  [[nodiscard]] bool approx_equals(const arc_set& other, double eps = 1e-9) const;

  /// The canonical arcs (empty when the set is the full circle).
  [[nodiscard]] const std::vector<arc>& arcs() const { return arcs_; }

 private:
  friend class cover_accumulator;

  /// Becomes the union of `pieces`: non-wrapping arcs lo <= hi on
  /// [0, 2*pi], sorted by (lo, hi). The one merge behind from_arcs
  /// (and so cover) and cover_accumulator; it reuses this set's storage.
  void merge_sorted(std::span<const arc> pieces);

  std::vector<arc> arcs_;  // canonical form; unused when full_ is set
  bool full_{false};
};

/// cover_alpha of a direction set that only grows, such as shrink-back's
/// level prefixes. The unrolled pieces stay sorted by (lo, hi) across
/// add() calls, and merged() re-merges them in reused buffers. Pieces
/// equal under that order are identical, so the sequence, and with it
/// every canonical arc, is bit for bit the one arc_set::cover sorts
/// into for the same directions.
class cover_accumulator {
 public:
  explicit cover_accumulator(double alpha) : alpha_(alpha) {}

  /// Forgets every direction; keeps the buffers.
  void clear();
  /// Adds direction `d`'s arc [d - alpha/2, d + alpha/2].
  void add(double direction);
  /// arc_set::cover of the directions added since the last clear().
  [[nodiscard]] const arc_set& merged();

 private:
  double alpha_;
  bool any_{false};
  std::vector<arc> pieces_;  // sorted by (lo, hi)
  arc_set set_;
};

}  // namespace cbtc::geom
