#include "index/triangle_index.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "geom/ray.hpp"
#include "index/query_scratch.hpp"

namespace rtd::index {

TriangleIndex::TriangleIndex(std::span<const geom::Vec3> points, float eps,
                             int subdivisions,
                             const rt::Context::Options& options)
    : accel_(rt::Context(options).build_triangles(points, eps, subdivisions)),
      points_(points) {}

void TriangleIndex::require_radius(float eps) const {
  if (eps != accel_.radius()) {
    throw std::invalid_argument(
        "TriangleIndex: query eps " + std::to_string(eps) +
        " differs from the mesh radius " + std::to_string(accel_.radius()) +
        " (the radius is baked into the tessellation; use try_set_eps to "
        "refit)");
  }
}

void TriangleIndex::query_sphere(const geom::Vec3& center, float eps,
                                 std::uint32_t self, NeighborVisitor visit,
                                 rt::TraversalStats& stats) const {
  require_radius(eps);
  // tmax covers the exit through the circumscribed shell of any owner
  // within ε: at most ε to its center plus the vertex scale beyond it.
  const geom::Ray ray{center,
                      {0.0f, 0.0f, 1.0f},
                      0.0f,
                      1.01f * (eps + accel_.vertex_scale())};
  const float eps2 = eps * eps;
  std::vector<std::uint32_t>& owners = QueryScratch::local().acquire_owners();
  accel_.trace(
      ray,
      [&](std::uint32_t owner, float /*t_hit*/) {
        // AnyHit program: self filter + exact distance filter.
        if (owner != self && !is_dead(owner) &&
            geom::distance_squared(center, points_[owner]) <= eps2) {
          owners.push_back(owner);
        }
      },
      stats);
  std::sort(owners.begin(), owners.end());
  const auto last = std::unique(owners.begin(), owners.end());
  for (auto it = owners.begin(); it != last; ++it) visit(*it);
}

void TriangleIndex::query_box(const geom::Aabb& box, NeighborVisitor visit,
                              rt::TraversalStats& stats) const {
  // Padded a hair beyond the vertex scale so float rounding in the mesh
  // can never drop a triangle of an inside point; the center test below
  // is authoritative.
  const float pad = 1.01f * accel_.vertex_scale();
  const geom::Aabb padded(box.lo - geom::Vec3{pad, pad, pad},
                          box.hi + geom::Vec3{pad, pad, pad});
  const std::vector<std::uint32_t>& owners = accel_.owners();
  rt::traverse_overlap(
      accel_.bvh(), accel_.wide_bvh(), padded,
      [&](std::uint32_t prim) {
        ++stats.isect_calls;
        const std::uint32_t j = owners[prim];
        if ((prim == 0 || owners[prim - 1] != j) && !is_dead(j) &&
            box.contains(points_[j])) {
          visit(j);
        }
        return rt::TraversalControl::kContinue;
      },
      stats);
}

}  // namespace rtd::index
