#include "geom/ray.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace rtd::geom {
namespace {

TEST(RayAabb, HitsBoxInFront) {
  const Ray ray{{-2.0f, 0.5f, 0.5f}, {1.0f, 0.0f, 0.0f}, 0.0f, 100.0f};
  const Aabb box(Vec3{0, 0, 0}, Vec3{1, 1, 1});
  EXPECT_TRUE(ray_intersects_aabb(ray, box));
}

TEST(RayAabb, MissesBoxBehind) {
  const Ray ray{{-2.0f, 0.5f, 0.5f}, {-1.0f, 0.0f, 0.0f}, 0.0f, 100.0f};
  const Aabb box(Vec3{0, 0, 0}, Vec3{1, 1, 1});
  EXPECT_FALSE(ray_intersects_aabb(ray, box));
}

TEST(RayAabb, RespectsTmax) {
  const Ray ray{{-2.0f, 0.5f, 0.5f}, {1.0f, 0.0f, 0.0f}, 0.0f, 1.0f};
  const Aabb box(Vec3{0, 0, 0}, Vec3{1, 1, 1});
  EXPECT_FALSE(ray_intersects_aabb(ray, box));  // box starts at t=2
}

TEST(RayAabb, OriginInsideBoxAlwaysHits) {
  const Ray ray = Ray::point_query(Vec3{0.5f, 0.5f, 0.5f});
  const Aabb box(Vec3{0, 0, 0}, Vec3{1, 1, 1});
  EXPECT_TRUE(ray_intersects_aabb(ray, box));
}

TEST(RayAabb, PointQueryOutsideBoxMisses) {
  const Ray ray = Ray::point_query(Vec3{5.0f, 0.5f, 0.5f});
  const Aabb box(Vec3{0, 0, 0}, Vec3{1, 1, 1});
  EXPECT_FALSE(ray_intersects_aabb(ray, box));
}

TEST(RayAabb, ParallelRayOutsideSlabMisses) {
  // Direction has zero y-component and origin is outside the y slab.
  const Ray ray{{0.5f, 5.0f, 0.5f}, {1.0f, 0.0f, 0.0f}, 0.0f, 100.0f};
  const Aabb box(Vec3{0, 0, 0}, Vec3{1, 1, 1});
  EXPECT_FALSE(ray_intersects_aabb(ray, box));
}

TEST(RaySphere, OriginInsideHitsAtTmin) {
  const Sphere s{{0.0f, 0.0f, 0.0f}, 1.0f};
  const Ray ray = Ray::point_query(Vec3{0.5f, 0.0f, 0.0f});
  float t = -1.0f;
  EXPECT_TRUE(ray_intersects_sphere(ray, s, &t));
  EXPECT_EQ(t, ray.tmin);
}

TEST(RaySphere, OriginOnBoundaryCountsAsInside) {
  const Sphere s{{0.0f, 0.0f, 0.0f}, 1.0f};
  const Ray ray = Ray::point_query(Vec3{1.0f, 0.0f, 0.0f});
  EXPECT_TRUE(ray_intersects_sphere(ray, s));
}

TEST(RaySphere, PointQueryOutsideMisses) {
  const Sphere s{{0.0f, 0.0f, 0.0f}, 1.0f};
  const Ray ray = Ray::point_query(Vec3{1.0001f, 0.0f, 0.0f});
  EXPECT_FALSE(ray_intersects_sphere(ray, s));
}

TEST(RaySphere, FiniteRayThroughSphereHits) {
  const Sphere s{{0.0f, 0.0f, 0.0f}, 1.0f};
  const Ray ray{{-3.0f, 0.0f, 0.0f}, {1.0f, 0.0f, 0.0f}, 0.0f, 10.0f};
  float t = -1.0f;
  EXPECT_TRUE(ray_intersects_sphere(ray, s, &t));
  EXPECT_FLOAT_EQ(t, 2.0f);  // entry point at x=-1
}

TEST(RaySphere, FiniteRayStoppingShortMisses) {
  const Sphere s{{0.0f, 0.0f, 0.0f}, 1.0f};
  const Ray ray{{-3.0f, 0.0f, 0.0f}, {1.0f, 0.0f, 0.0f}, 0.0f, 1.5f};
  EXPECT_FALSE(ray_intersects_sphere(ray, s));
}

TEST(RaySphere, GrazingRayMisses) {
  const Sphere s{{0.0f, 0.0f, 0.0f}, 1.0f};
  const Ray ray{{-3.0f, 1.5f, 0.0f}, {1.0f, 0.0f, 0.0f}, 0.0f, 10.0f};
  EXPECT_FALSE(ray_intersects_sphere(ray, s));
}

TEST(RaySphere, SphereContains) {
  const Sphere s{{1.0f, 1.0f, 1.0f}, 2.0f};
  EXPECT_TRUE(s.contains(Vec3{1.0f, 1.0f, 1.0f}));
  EXPECT_TRUE(s.contains(Vec3{3.0f, 1.0f, 1.0f}));  // boundary
  EXPECT_FALSE(s.contains(Vec3{3.1f, 1.0f, 1.0f}));
}

TEST(RaySphere, BoundsEncloseSphere) {
  const Sphere s{{1.0f, 2.0f, 3.0f}, 0.5f};
  const Aabb b = s.bounds();
  EXPECT_EQ(b.lo, (Vec3{0.5f, 1.5f, 2.5f}));
  EXPECT_EQ(b.hi, (Vec3{1.5f, 2.5f, 3.5f}));
}

TEST(RayTriangle, HitsFrontFace) {
  const Triangle tri{{0, 0, 1}, {1, 0, 1}, {0, 1, 1}};
  const Ray ray{{0.2f, 0.2f, 0.0f}, {0.0f, 0.0f, 1.0f}, 0.0f, 10.0f};
  float t = -1.0f;
  EXPECT_TRUE(ray_intersects_triangle(ray, tri, &t));
  EXPECT_FLOAT_EQ(t, 1.0f);
}

TEST(RayTriangle, MissesOutsideTriangle) {
  const Triangle tri{{0, 0, 1}, {1, 0, 1}, {0, 1, 1}};
  const Ray ray{{0.9f, 0.9f, 0.0f}, {0.0f, 0.0f, 1.0f}, 0.0f, 10.0f};
  EXPECT_FALSE(ray_intersects_triangle(ray, tri));
}

TEST(RayTriangle, RespectsTmax) {
  const Triangle tri{{0, 0, 1}, {1, 0, 1}, {0, 1, 1}};
  const Ray ray{{0.2f, 0.2f, 0.0f}, {0.0f, 0.0f, 1.0f}, 0.0f, 0.5f};
  EXPECT_FALSE(ray_intersects_triangle(ray, tri));
}

TEST(RayTriangle, ParallelRayMisses) {
  const Triangle tri{{0, 0, 1}, {1, 0, 1}, {0, 1, 1}};
  const Ray ray{{0.2f, 0.2f, 0.0f}, {1.0f, 0.0f, 0.0f}, 0.0f, 10.0f};
  EXPECT_FALSE(ray_intersects_triangle(ray, tri));
}

TEST(RayTriangle, BackfaceStillHits) {
  // No culling: hits from both sides.
  const Triangle tri{{0, 0, 1}, {1, 0, 1}, {0, 1, 1}};
  const Ray ray{{0.2f, 0.2f, 2.0f}, {0.0f, 0.0f, -1.0f}, 0.0f, 10.0f};
  float t = -1.0f;
  EXPECT_TRUE(ray_intersects_triangle(ray, tri, &t));
  EXPECT_FLOAT_EQ(t, 1.0f);
}

TEST(RayTriangle, SharedEdgeAndVertexAreWatertight) {
  // A quad split along its diagonal, and a fan of triangles around one
  // vertex: a ray through the shared edge or the shared vertex must hit at
  // least one triangle of the pair / fan, however the crossing rounds.
  const Vec3 p0{0.1f, 0.3f, 1.0f};
  const Vec3 p1{1.7f, 0.2f, 1.3f};
  const Vec3 p2{1.9f, 1.6f, 0.7f};
  const Vec3 p3{0.3f, 1.9f, 1.1f};
  const Triangle lower{p0, p1, p2};
  const Triangle upper{p0, p2, p3};
  for (int k = 0; k < 1000; ++k) {  // p0 + (p2 - p0) rounds off the quad
    const float s = static_cast<float>(k) / 1000.0f;
    const Vec3 on_edge = p0 + (p2 - p0) * s;
    const Ray ray{{on_edge.x, on_edge.y, -1.0f}, {0, 0, 1}, 0.0f, 10.0f};
    EXPECT_TRUE(ray_intersects_triangle(ray, lower) ||
                ray_intersects_triangle(ray, upper))
        << "diagonal crossing " << k;
  }
  const Vec3 hub{0.5f, 0.5f, 0.0f};
  const Vec3 rim[] = {{1.5f, 0.5f, 0.2f}, {0.5f, 1.5f, -0.1f},
                      {-0.5f, 0.5f, 0.3f}, {0.5f, -0.5f, 0.1f}};
  bool hit = false;
  for (int f = 0; f < 4; ++f) {
    hit = hit || ray_intersects_triangle(
                     Ray{{hub.x, hub.y, -1.0f}, {0, 0, 1}, 0.0f, 10.0f},
                     Triangle{hub, rim[f], rim[(f + 1) % 4]});
  }
  EXPECT_TRUE(hit);
}

TEST(RayProperty, SphereHitConsistentWithContainmentForPointQueries) {
  // Property: for point-query rays, ray_intersects_sphere must agree exactly
  // with solid-sphere containment of the origin.
  Rng rng(42);
  for (int trial = 0; trial < 2000; ++trial) {
    const Sphere s{{rng.uniformf(-5, 5), rng.uniformf(-5, 5),
                    rng.uniformf(-5, 5)},
                   rng.uniformf(0.1f, 3.0f)};
    const Vec3 q{rng.uniformf(-5, 5), rng.uniformf(-5, 5),
                 rng.uniformf(-5, 5)};
    EXPECT_EQ(ray_intersects_sphere(Ray::point_query(q), s), s.contains(q))
        << "trial " << trial;
  }
}

TEST(RayProperty, AabbHitForPointQueriesEqualsContainment) {
  Rng rng(43);
  for (int trial = 0; trial < 2000; ++trial) {
    Aabb box;
    box.grow(Vec3{rng.uniformf(-5, 5), rng.uniformf(-5, 5),
                  rng.uniformf(-5, 5)});
    box.grow(Vec3{rng.uniformf(-5, 5), rng.uniformf(-5, 5),
                  rng.uniformf(-5, 5)});
    const Vec3 q{rng.uniformf(-6, 6), rng.uniformf(-6, 6),
                 rng.uniformf(-6, 6)};
    EXPECT_EQ(ray_intersects_aabb(Ray::point_query(q), box),
              box.contains(q))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace rtd::geom
