#include "index/densebox_index.hpp"

#include <algorithm>
#include <stdexcept>

namespace rtd::index {

using geom::Aabb;
using geom::Vec3;

DenseBoxIndex::DenseBoxIndex(std::span<const Vec3> points, float eps)
    : points_(points), eps_(eps) {
  Aabb bounds;
  for (const auto& p : points_) bounds.grow(p);
  grid_ = EpsCellGrid(bounds, eps);
  // Beyond the key range distinct cells would silently alias and a bogus
  // dense-cell certificate could fuse far-apart points — fail loudly.
  if (!grid_.fits_key_range(bounds)) {
    throw std::invalid_argument(
        "DenseBoxIndex: more than 2^20 cells on one axis (extent/eps too "
        "large for the 21-bit cell key)");
  }
  const Vec3& o = grid_.origin;
  cells_.reserve(points_.size() / 4);
  for (std::uint32_t i = 0; i < points_.size(); ++i) {
    const std::int64_t cx = grid_.coord(points_[i].x, o.x);
    const std::int64_t cy = grid_.coord(points_[i].y, o.y);
    const std::int64_t cz = grid_.coord(points_[i].z, o.z);
    cmax_[0] = std::max(cmax_[0], cx);
    cmax_[1] = std::max(cmax_[1], cy);
    cmax_[2] = std::max(cmax_[2], cz);
    Cell& c = cells_[key(cx, cy, cz)];
    c.bounds.grow(points_[i]);
    c.members.push_back(i);
  }
}

std::uint64_t DenseBoxIndex::key(std::int64_t x, std::int64_t y,
                                 std::int64_t z) {
  // 21 bits per axis, biased to keep query coordinates non-negative (same
  // packing as dbscan::GridIndex).
  constexpr std::int64_t kBias = 1 << 20;
  return (static_cast<std::uint64_t>(x + kBias) << 42) |
         (static_cast<std::uint64_t>(y + kBias) << 21) |
         static_cast<std::uint64_t>(z + kBias);
}

template <typename CellFn>
bool DenseBoxIndex::for_cells_overlapping(const Aabb& box,
                                          CellFn&& f) const {
  if (points_.empty()) return true;
  const auto clamp = [](std::int64_t v, std::int64_t hi) {
    return std::clamp<std::int64_t>(v, 0, hi);
  };
  const Vec3& o = grid_.origin;
  const std::int64_t x0 = clamp(grid_.coord(box.lo.x, o.x), cmax_[0]);
  const std::int64_t x1 = clamp(grid_.coord(box.hi.x, o.x), cmax_[0]);
  const std::int64_t y0 = clamp(grid_.coord(box.lo.y, o.y), cmax_[1]);
  const std::int64_t y1 = clamp(grid_.coord(box.hi.y, o.y), cmax_[1]);
  const std::int64_t z0 = clamp(grid_.coord(box.lo.z, o.z), cmax_[2]);
  const std::int64_t z1 = clamp(grid_.coord(box.hi.z, o.z), cmax_[2]);
  const double span = static_cast<double>(x1 - x0 + 1) *
                      static_cast<double>(y1 - y0 + 1) *
                      static_cast<double>(z1 - z0 + 1);
  if (span > static_cast<double>(points_.size()) + 1024.0) return false;
  for (std::int64_t cz = z0; cz <= z1; ++cz) {
    for (std::int64_t cy = y0; cy <= y1; ++cy) {
      for (std::int64_t cx = x0; cx <= x1; ++cx) {
        const auto it = cells_.find(key(cx, cy, cz));
        if (it == cells_.end()) continue;
        if (!f(it->second)) return true;
      }
    }
  }
  return true;
}

template <typename OnNeighbor>
void DenseBoxIndex::for_neighbors_until(const Vec3& center, float eps,
                                        std::uint32_t self,
                                        rt::TraversalStats& stats,
                                        OnNeighbor&& on_neighbor) const {
  const float eps2 = eps * eps;
  const Aabb ball = Aabb::of_sphere(center, eps);
  const bool walked = for_cells_overlapping(ball, [&](const Cell& c) {
    ++stats.aabb_tests;
    if (geom::min_distance_squared(center, c.bounds) > eps2) {
      return true;
    }
    if (geom::max_distance_squared(center, c.bounds) <= eps2) {
      // Whole-cell certificate: every LIVE member is a neighbor, no tests
      // (removals don't re-tighten cell bounds, so the certificate stays
      // valid for the survivors — a dead member only ever widened it).
      for (const auto m : c.members) {
        if (m != self && !is_dead(m) && !on_neighbor(m)) return false;
      }
      return true;
    }
    for (const auto m : c.members) {
      ++stats.isect_calls;
      if (m != self && !is_dead(m) &&
          geom::distance_squared(center, points_[m]) <= eps2) {
        if (!on_neighbor(m)) return false;
      }
    }
    return true;
  });
  if (!walked) {
    // Radius far above the build ε: the cell walk would cover more cells
    // than points — degrade to a counted linear scan.
    for (std::uint32_t j = 0; j < points_.size(); ++j) {
      ++stats.isect_calls;
      if (j != self && !is_dead(j) &&
          geom::distance_squared(center, points_[j]) <= eps2) {
        if (!on_neighbor(j)) return;
      }
    }
  }
}

void DenseBoxIndex::query_sphere(const Vec3& center, float eps,
                                 std::uint32_t self, NeighborVisitor visit,
                                 rt::TraversalStats& stats) const {
  ++stats.rays;
  for_neighbors_until(center, eps, self, stats, [&](std::uint32_t m) {
    visit(m);
    return true;
  });
}

std::uint32_t DenseBoxIndex::query_count(const Vec3& center, float eps,
                                         std::uint32_t self,
                                         rt::TraversalStats& stats,
                                         std::uint32_t stop_at) const {
  ++stats.rays;
  if (stop_at == 0) return 0;
  std::uint32_t count = 0;
  for_neighbors_until(center, eps, self, stats,
                      [&](std::uint32_t) { return ++count < stop_at; });
  return count;
}

void DenseBoxIndex::query_box(const Aabb& box, NeighborVisitor visit,
                              rt::TraversalStats& stats) const {
  const bool walked = for_cells_overlapping(box, [&](const Cell& c) {
    ++stats.aabb_tests;
    if (box.contains(c.bounds)) {
      for (const auto m : c.members) {
        if (!is_dead(m)) visit(m);
      }
      return true;
    }
    for (const auto m : c.members) {
      ++stats.isect_calls;
      if (!is_dead(m) && box.contains(points_[m])) visit(m);
    }
    return true;
  });
  if (!walked) {
    // Oversized box: the base linear scan is cheaper (it counts the ray).
    NeighborIndex::query_box(box, visit, stats);
    return;
  }
  ++stats.rays;
}

}  // namespace rtd::index
