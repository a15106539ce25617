// BVH refit + SphereAccel::set_radius + ε changes on an RT-scene session.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "core/clusterer.hpp"
#include "core/rt_dbscan.hpp"
#include "core/rt_find_neighbors.hpp"
#include "data/generators.hpp"
#include "dbscan/equivalence.hpp"
#include "rt/bvh.hpp"
#include "rt/context.hpp"

namespace rtd::rt {
namespace {

using geom::Aabb;
using geom::Vec3;

TEST(BvhRefit, RejectsChangedPrimitiveCount) {
  std::vector<Aabb> bounds{Aabb::of_sphere(Vec3{0, 0, 0}, 1.0f),
                           Aabb::of_sphere(Vec3{5, 0, 0}, 1.0f)};
  Bvh bvh = build_bvh(bounds);
  bounds.pop_back();
  EXPECT_THROW(bvh.refit(bounds), std::invalid_argument);
}

TEST(BvhRefit, RefitBoundsValidAfterRadiusChange) {
  Rng rng(401);
  std::vector<Vec3> centers;
  std::vector<Aabb> bounds;
  for (int i = 0; i < 5000; ++i) {
    centers.push_back(Vec3{rng.uniformf(0, 50), rng.uniformf(0, 50),
                           rng.uniformf(0, 50)});
    bounds.push_back(Aabb::of_sphere(centers.back(), 0.5f));
  }
  Bvh bvh = build_bvh(bounds);
  ASSERT_TRUE(bvh.validate(bounds).empty());

  // Grow and shrink the radius; structure must stay valid both ways.
  for (const float radius : {2.0f, 0.1f, 1.0f}) {
    for (std::size_t i = 0; i < centers.size(); ++i) {
      bounds[i] = Aabb::of_sphere(centers[i], radius);
    }
    bvh.refit(bounds);
    const std::string err = bvh.validate(bounds);
    EXPECT_TRUE(err.empty()) << "radius " << radius << ": " << err;
    EXPECT_TRUE(bvh.scene_bounds.contains(bounds[0]));
  }
}

TEST(BvhRefit, EmptyBvhIsNoOp) {
  Bvh bvh;
  EXPECT_NO_THROW(bvh.refit({}));
}

TEST(SphereAccelRefit, QueriesMatchFreshBuildAfterSetRadius) {
  const auto dataset = data::taxi_gps(3000, 402);
  Context ctx;
  SphereAccel refitted = ctx.build_spheres(dataset.points, 0.2f);
  refitted.set_radius(0.5f);
  const SphereAccel fresh = ctx.build_spheres(dataset.points, 0.5f);

  TraversalStats stats;
  for (std::uint32_t i = 0; i < dataset.size(); i += 37) {
    EXPECT_EQ(core::rt_count_neighbors(refitted, dataset.points[i], i, stats),
              core::rt_count_neighbors(fresh, dataset.points[i], i, stats))
        << "point " << i;
  }
  EXPECT_EQ(refitted.radius(), 0.5f);
}

TEST(SphereAccelRefit, RejectsNonPositiveRadius) {
  Context ctx;
  SphereAccel accel = ctx.build_spheres({{0, 0, 0}}, 1.0f);
  EXPECT_THROW(accel.set_radius(0.0f), std::invalid_argument);
  EXPECT_THROW(accel.set_radius(-2.0f), std::invalid_argument);
}

// An ε change on a Clusterer that holds the RT sphere scene
// (IndexKind::kBvhRt) rescales the spheres and refits in place, then
// recounts once; minPts reruns at that ε reuse the counts.  run() builds
// no index, so the first ε's writer query builds the scene.
rtd::Options rt_session_options() {
  return rtd::Options().with_backend(index::IndexKind::kBvhRt);
}

TEST(RunnerSetEps, RerunsMatchOneShotAcrossEpsChanges) {
  const auto dataset = data::taxi_gps(3000, 403);
  Clusterer session(dataset.points, rt_session_options());
  bool first = true;
  for (const float eps : {0.2f, 0.5f, 0.1f}) {
    const auto& cached = session.run(eps, 10);
    EXPECT_FALSE(cached.stats.counts_reused) << "eps=" << eps;
    EXPECT_FALSE(cached.stats.index_rebuilt) << "eps=" << eps;
    EXPECT_EQ(cached.stats.index_refitted, !first) << "eps=" << eps;
    if (first) (void)session.query_neighbors(0u, eps);
    const auto oneshot = core::rt_dbscan(dataset.points, {eps, 10});
    const auto eq = dbscan::check_equivalent(
        dataset.points, {eps, 10}, oneshot.clustering, cached.to_clustering());
    EXPECT_TRUE(eq.equivalent) << "eps=" << eps << ": " << eq.reason;
    EXPECT_EQ(cached.neighbor_counts, oneshot.neighbor_counts)
        << "eps=" << eps;
    // minPts re-run on the refit scene still uses the cache.
    EXPECT_TRUE(session.counts_cached());
    const auto& rerun = session.run(eps, 25);
    EXPECT_TRUE(rerun.stats.counts_reused) << "eps=" << eps;
    const auto oneshot25 = core::rt_dbscan(dataset.points, {eps, 25});
    const auto eq25 = dbscan::check_equivalent(
        dataset.points, {eps, 25}, oneshot25.clustering, rerun.to_clustering());
    EXPECT_TRUE(eq25.equivalent) << "eps=" << eps << ": " << eq25.reason;
    first = false;
  }
}

TEST(RunnerSetEps, SameEpsKeepsCache) {
  const auto dataset = data::taxi_gps(1000, 404);
  Clusterer session(dataset.points, rt_session_options());
  (void)session.run(0.3f, 10);
  ASSERT_TRUE(session.counts_cached());
  (void)session.query_neighbors(0u, 0.3f);  // same ε: no rescale
  EXPECT_TRUE(session.counts_cached());
  const auto& rerun = session.run(0.3f, 10);
  EXPECT_TRUE(rerun.stats.counts_reused);
  EXPECT_FALSE(rerun.stats.index_refitted);
}

TEST(RunnerSetEps, RejectsNonPositive) {
  Clusterer session(std::vector<Vec3>{{0, 0, 0}}, rt_session_options());
  EXPECT_THROW((void)session.run(0.0f, 1), std::invalid_argument);
  EXPECT_THROW((void)session.run(-1.0f, 1), std::invalid_argument);
  (void)session.run(1.0f, 1);
  EXPECT_THROW((void)session.run(0.0f, 1), std::invalid_argument);
  EXPECT_TRUE(session.counts_cached());
}

}  // namespace
}  // namespace rtd::rt
