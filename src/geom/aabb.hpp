// Axis-aligned bounding box — the bounding-volume type of the BVH (§II-A2).
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>

#include "geom/vec3.hpp"

namespace rtd::geom {

struct Aabb {
  Vec3 lo{std::numeric_limits<float>::max(),
          std::numeric_limits<float>::max(),
          std::numeric_limits<float>::max()};
  Vec3 hi{std::numeric_limits<float>::lowest(),
          std::numeric_limits<float>::lowest(),
          std::numeric_limits<float>::lowest()};

  constexpr Aabb() = default;
  constexpr Aabb(const Vec3& lo_, const Vec3& hi_) : lo(lo_), hi(hi_) {}

  /// The empty box: grows from nothing via grow().
  static constexpr Aabb empty() { return Aabb{}; }

  /// Box around a single point.
  static constexpr Aabb of_point(const Vec3& p) { return {p, p}; }

  /// Box around a sphere (the user-specified "bounds program" of the paper's
  /// OWL sphere geometry).
  static constexpr Aabb of_sphere(const Vec3& center, float radius) {
    const Vec3 r{radius, radius, radius};
    return {center - r, center + r};
  }

  [[nodiscard]] constexpr bool is_empty() const {
    return lo.x > hi.x || lo.y > hi.y || lo.z > hi.z;
  }

  void grow(const Vec3& p) {
    lo = min(lo, p);
    hi = max(hi, p);
  }

  void grow(const Aabb& b) {
    lo = min(lo, b.lo);
    hi = max(hi, b.hi);
  }

  [[nodiscard]] constexpr Vec3 center() const {
    return (lo + hi) * 0.5f;
  }

  [[nodiscard]] constexpr Vec3 extent() const { return hi - lo; }

  /// Surface area (for SAH cost evaluation).  Empty boxes report 0.
  [[nodiscard]] float surface_area() const {
    if (is_empty()) return 0.0f;
    const Vec3 e = extent();
    return 2.0f * (e.x * e.y + e.y * e.z + e.z * e.x);
  }

  [[nodiscard]] constexpr bool contains(const Vec3& p) const {
    return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y &&
           p.z >= lo.z && p.z <= hi.z;
  }

  [[nodiscard]] constexpr bool contains(const Aabb& b) const {
    return b.lo.x >= lo.x && b.hi.x <= hi.x && b.lo.y >= lo.y &&
           b.hi.y <= hi.y && b.lo.z >= lo.z && b.hi.z <= hi.z;
  }

  [[nodiscard]] constexpr bool overlaps(const Aabb& b) const {
    return lo.x <= b.hi.x && hi.x >= b.lo.x && lo.y <= b.hi.y &&
           hi.y >= b.lo.y && lo.z <= b.hi.z && hi.z >= b.lo.z;
  }

  /// Index of the widest axis (0 = x, 1 = y, 2 = z); split heuristic input.
  [[nodiscard]] int widest_axis() const {
    const Vec3 e = extent();
    if (e.x >= e.y && e.x >= e.z) return 0;
    return e.y >= e.z ? 1 : 2;
  }

  static Aabb unite(const Aabb& a, const Aabb& b) {
    return {min(a.lo, b.lo), max(a.hi, b.hi)};
  }
};

/// Squared distance from `p` to the nearest point of `box` (0 inside it).
/// Beyond ε² it proves no point inside the box is an ε-neighbor of `p`.
inline float min_distance_squared(const Vec3& p, const Aabb& box) {
  const auto axis = [](float v, float a, float b) {
    const float d = v < a ? a - v : (v > b ? v - b : 0.0f);
    return d * d;
  };
  return axis(p.x, box.lo.x, box.hi.x) + axis(p.y, box.lo.y, box.hi.y) +
         axis(p.z, box.lo.z, box.hi.z);
}

/// Squared distance from `p` to the farthest corner of `box`.  Within ε²
/// it proves every point inside the box is an ε-neighbor of `p`.
inline float max_distance_squared(const Vec3& p, const Aabb& box) {
  const auto axis = [](float v, float a, float b) {
    const float d = std::max(std::abs(v - a), std::abs(v - b));
    return d * d;
  };
  return axis(p.x, box.lo.x, box.hi.x) + axis(p.y, box.lo.y, box.hi.y) +
         axis(p.z, box.lo.z, box.hi.z);
}

/// Squared distance between the nearest points of two boxes (0 when they
/// overlap).  Every per-axis gap is a float difference no larger than that
/// of any point pair drawn from the two boxes, and the squares add in
/// distance_squared's x, y, z order; rounding is monotone, so a result
/// beyond ε² proves no pair is within ε² under distance_squared.
inline float min_distance_squared(const Aabb& a, const Aabb& b) {
  const auto axis = [](float alo, float ahi, float blo, float bhi) {
    const float d = blo > ahi ? blo - ahi : (alo > bhi ? alo - bhi : 0.0f);
    return d * d;
  };
  return axis(a.lo.x, a.hi.x, b.lo.x, b.hi.x) +
         axis(a.lo.y, a.hi.y, b.lo.y, b.hi.y) +
         axis(a.lo.z, a.hi.z, b.lo.z, b.hi.z);
}

/// Squared distance between the farthest corners of two boxes: within ε²
/// it proves every pair drawn from them is within ε² (same argument).
inline float max_distance_squared(const Aabb& a, const Aabb& b) {
  const auto axis = [](float alo, float ahi, float blo, float bhi) {
    const float d = std::max(std::abs(bhi - alo), std::abs(ahi - blo));
    return d * d;
  };
  return axis(a.lo.x, a.hi.x, b.lo.x, b.hi.x) +
         axis(a.lo.y, a.hi.y, b.lo.y, b.hi.y) +
         axis(a.lo.z, a.hi.z, b.lo.z, b.hi.z);
}

}  // namespace rtd::geom
