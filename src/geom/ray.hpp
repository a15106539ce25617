// Rays, sphere primitives and ray-primitive intersection predicates.
//
// The paper's key query is degenerate on purpose: an "infinitesimally small
// ray" with t in [0, 1e-16] launched from the query point (§III-C).  Such a
// ray intersects exactly those solid spheres that contain its origin, so the
// hardware sphere-intersection test reduces to a point-in-sphere test.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>

#include "geom/aabb.hpp"
#include "geom/vec3.hpp"

namespace rtd::geom {

struct Ray {
  Vec3 origin;
  Vec3 direction{0.0f, 0.0f, 1.0f};
  float tmin = 0.0f;
  float tmax = std::numeric_limits<float>::max();

  /// The paper's epsilon-length query ray (§III-C, Alg. 2 line 4): origin at
  /// the query point, direction z (the convention §IV uses for 2-D data),
  /// extent [0, 1e-16].
  static Ray point_query(const Vec3& q) {
    return Ray{q, {0.0f, 0.0f, 1.0f}, 0.0f, 1e-16f};
  }
};

/// Slab test: does the ray segment [tmin, tmax] hit the box?
/// Written branch-light so the traversal inner loop vectorizes well.
inline bool ray_intersects_aabb(const Ray& ray, const Aabb& box) {
  // For the degenerate point-query rays used throughout RT-DBSCAN the slab
  // test below reduces to a containment test, but we keep the general form so
  // the substrate supports ordinary finite rays too (tests exercise both).
  float t0 = ray.tmin;
  float t1 = ray.tmax;
  for (std::size_t axis = 0; axis < 3; ++axis) {
    const float o = ray.origin[axis];
    const float d = ray.direction[axis];
    const float lo = box.lo[axis];
    const float hi = box.hi[axis];
    if (d != 0.0f) {
      const float inv = 1.0f / d;
      float tn = (lo - o) * inv;
      float tf = (hi - o) * inv;
      if (tn > tf) std::swap(tn, tf);
      t0 = tn > t0 ? tn : t0;
      t1 = tf < t1 ? tf : t1;
      if (t0 > t1) return false;
    } else if (o < lo || o > hi) {
      // Ray parallel to the slab and outside it.
      return false;
    }
  }
  return true;
}

/// Solid sphere of radius r around a data point — the paper's transformed
/// input primitive (§III-B).
struct Sphere {
  Vec3 center;
  float radius = 0.0f;

  [[nodiscard]] Aabb bounds() const {
    return Aabb::of_sphere(center, radius);
  }

  [[nodiscard]] bool contains(const Vec3& p) const {
    return distance_squared(center, p) <= radius * radius;
  }
};

/// Full quadratic ray-sphere test, returning the nearest hit parameter if the
/// segment [tmin, tmax] intersects the solid sphere.  A ray starting inside
/// the sphere reports a hit at t = tmin (this is what makes the point-query
/// reduction work).
inline bool ray_intersects_sphere(const Ray& ray, const Sphere& s,
                                  float* t_hit = nullptr) {
  const Vec3 oc = ray.origin - s.center;
  const float r2 = s.radius * s.radius;
  // Origin inside the solid sphere: the degenerate point query case.
  if (length_squared(oc) <= r2) {
    if (t_hit != nullptr) *t_hit = ray.tmin;
    return true;
  }
  const float a = length_squared(ray.direction);
  if (a == 0.0f) return false;  // zero-length ray outside the sphere
  const float half_b = dot(oc, ray.direction);
  const float c = length_squared(oc) - r2;
  const float disc = half_b * half_b - a * c;
  if (disc < 0.0f) return false;
  const float sq = std::sqrt(disc);
  float t = (-half_b - sq) / a;
  if (t < ray.tmin) t = (-half_b + sq) / a;
  if (t < ray.tmin || t > ray.tmax) return false;
  if (t_hit != nullptr) *t_hit = t;
  return true;
}

/// Triangle primitive for the §VI-C tessellated-sphere experiment.
struct Triangle {
  Vec3 a, b, c;

  [[nodiscard]] Aabb bounds() const {
    Aabb box = Aabb::of_point(a);
    box.grow(b);
    box.grow(c);
    return box;
  }
};

/// Watertight ray-triangle intersection ("hardware" triangle test; Woop,
/// Benthin & Wald, JCGT 2013).  The ray's dominant axis becomes z and the
/// vertices are sheared into the ray's frame, so each edge test is a 2-D
/// edge function of vertex coordinates alone: two triangles sharing an
/// edge compute it exactly negated, and a ray through the edge (or a
/// shared vertex) hits at least one of them.  Möller–Trumbore computes
/// each triangle's barycentrics from its own edge vectors and can miss
/// both.  Edge functions that round to zero are redone in double.  No
/// culling: hits from either side.
inline bool ray_intersects_triangle(const Ray& ray, const Triangle& tri,
                                    float* t_hit = nullptr) {
  const Vec3& d = ray.direction;
  const float dx = std::fabs(d.x);
  const float dy = std::fabs(d.y);
  const float dz = std::fabs(d.z);
  const std::size_t kz = dx > dy ? (dx > dz ? 0 : 2) : (dy > dz ? 1 : 2);
  if (d[kz] == 0.0f) return false;  // zero direction
  std::size_t kx = (kz + 1) % 3;
  std::size_t ky = (kx + 1) % 3;
  if (d[kz] < 0.0f) std::swap(kx, ky);  // keep the winding
  const float sz = 1.0f / d[kz];
  const float sx = d[kx] * sz;
  const float sy = d[ky] * sz;

  const Vec3 a = tri.a - ray.origin;
  const Vec3 b = tri.b - ray.origin;
  const Vec3 c = tri.c - ray.origin;
  const float ax = a[kx] - sx * a[kz];
  const float ay = a[ky] - sy * a[kz];
  const float bx = b[kx] - sx * b[kz];
  const float by = b[ky] - sy * b[kz];
  const float cx = c[kx] - sx * c[kz];
  const float cy = c[ky] - sy * c[kz];
  float u = cx * by - cy * bx;
  float v = ax * cy - ay * cx;
  float w = bx * ay - by * ax;
  if (u == 0.0f || v == 0.0f || w == 0.0f) {
    const auto edge = [](float px, float py, float qx, float qy) {
      return static_cast<float>(
          static_cast<double>(px) * static_cast<double>(qy) -
          static_cast<double>(py) * static_cast<double>(qx));
    };
    u = edge(cx, cy, bx, by);
    v = edge(ax, ay, cx, cy);
    w = edge(bx, by, ax, ay);
  }
  if ((u < 0.0f || v < 0.0f || w < 0.0f) &&
      (u > 0.0f || v > 0.0f || w > 0.0f)) {
    return false;
  }
  const float det = u + v + w;
  if (det == 0.0f) return false;  // ray in the triangle's plane
  const float t =
      (u * (sz * a[kz]) + v * (sz * b[kz]) + w * (sz * c[kz])) / det;
  if (t < ray.tmin || t > ray.tmax) return false;
  if (t_hit != nullptr) *t_hit = t;
  return true;
}

}  // namespace rtd::geom
