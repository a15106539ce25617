// TriangleIndex — the §VI-C triangle geometry behind the NeighborIndex
// contract.
//
// Wraps rt::TriangleAccel: every point's ε-sphere tessellated into a
// circumscribed icosphere (rt/tessellate.hpp), hardware triangle tests, hits
// delivered through the AnyHit program.  A query is one +z ray from the
// center with tmax 1.01·(ε + vertex_scale()) — long enough to leave every
// shell that contains the center — and the AnyHit filter keeps an owner
// when it is within ε exactly.  The paper measured this configuration 2-5x
// slower than the sphere scene (BvhRtIndex); it exists to reproduce that
// result.  The BvhRtIndex semantics carry over:
//   * the radius is baked into the mesh, so query eps must equal the build
//     eps; try_set_eps rescales the vertices about their centers and REFITS
//     (TriangleAccel::set_radius) instead of retessellating;
//   * query_count always pays the full query (default enumeration), so
//     kind() reports kBvhRt — the RT pipeline, whose counts are exact.
// Inserts are not absorbed (the caller rebuilds); removals are masked.
#pragma once

#include <span>

#include "index/neighbor_index.hpp"
#include "rt/context.hpp"

namespace rtd::index {

/// RT triangle-scene neighbor index (tessellated ε-spheres + AnyHit).
class TriangleIndex final : public NeighborIndex {
 public:
  /// Tessellate one ε-sphere per point at `subdivisions` (20 * 4^s
  /// triangles per point) and build the triangle BVH.
  TriangleIndex(std::span<const geom::Vec3> points, float eps,
                int subdivisions, const rt::Context::Options& options = {});

  [[nodiscard]] IndexKind kind() const override { return IndexKind::kBvhRt; }
  [[nodiscard]] std::span<const geom::Vec3> points() const override {
    return points_;
  }
  [[nodiscard]] float build_eps() const override { return accel_.radius(); }
  [[nodiscard]] rt::TraversalWidth traversal_width() const override {
    return accel_.wide_bvh().empty() ? rt::TraversalWidth::kBinary
                                     : rt::TraversalWidth::kWide;
  }

  /// A ray crossing a shell at a shared edge may hit two of its triangles,
  /// so the owners that pass the filter are staged in this thread's
  /// QueryScratch::owners and visited once each, in ascending id order,
  /// after the trace.  `visit` must not run another TriangleIndex query on
  /// the same thread.
  void query_sphere(const geom::Vec3& center, float eps, std::uint32_t self,
                    NeighborVisitor visit,
                    rt::TraversalStats& stats) const override;

  /// Overlap walk with the box padded by the mesh's vertex scale: every
  /// triangle of a point inside the box overlaps it.  A point is tested
  /// only from its first triangle, so it is visited at most once.
  void query_box(const geom::Aabb& box, NeighborVisitor visit,
                 rt::TraversalStats& stats) const override;

  /// The underlying acceleration structure (build statistics).
  [[nodiscard]] const rt::TriangleAccel& accel() const { return accel_; }

 private:
  bool do_try_set_eps(float eps) override {
    accel_.set_radius(eps);
    return true;
  }

  void require_radius(float eps) const;

  rt::TriangleAccel accel_;
  std::span<const geom::Vec3> points_;
};

}  // namespace rtd::index
