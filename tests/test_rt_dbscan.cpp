#include "core/rt_dbscan.hpp"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "data/generators.hpp"
#include "dbscan_test_util.hpp"

namespace rtd::core {
namespace {

using dbscan::kNoiseLabel;
using dbscan::Params;
using testutil::expect_matches_reference;

TEST(RtDbscan, RejectsBadParams) {
  const std::vector<geom::Vec3> pts{{0, 0, 0}};
  EXPECT_THROW(rt_dbscan(pts, {0.0f, 3}), std::invalid_argument);
  EXPECT_THROW(rt_dbscan(pts, {1.0f, 0}), std::invalid_argument);
}

TEST(RtDbscan, EmptyInput) {
  const std::vector<geom::Vec3> pts;
  const auto r = rt_dbscan(pts, {1.0f, 3});
  EXPECT_EQ(r.clustering.size(), 0u);
  EXPECT_EQ(r.clustering.cluster_count, 0u);
}

TEST(RtDbscan, MatchesReferenceOnHandCheckedData) {
  const auto pts = testutil::two_squares_and_outlier();
  const Params params{1.5f, 3};
  const auto r = rt_dbscan(pts, params);
  expect_matches_reference(pts, params, r.clustering, "rt-dbscan");
  EXPECT_EQ(r.clustering.cluster_count, 2u);
  EXPECT_EQ(r.clustering.labels[8], kNoiseLabel);
}

TEST(RtDbscan, MatchesReferenceOnAmbiguousBorder) {
  const auto pts = testutil::ambiguous_border();
  const Params params{2.05f, 6};
  const auto r = rt_dbscan(pts, params);
  expect_matches_reference(pts, params, r.clustering, "rt-dbscan");
}

class RtDbscanDatasetTest
    : public ::testing::TestWithParam<std::tuple<data::PaperDataset, float,
                                                 std::uint32_t>> {};

TEST_P(RtDbscanDatasetTest, MatchesReference) {
  const auto [which, eps, min_pts] = GetParam();
  const auto dataset = data::make_paper_dataset(which, 4000, 80);
  const Params params{eps, min_pts};
  const auto r = rt_dbscan(dataset.points, params);
  expect_matches_reference(dataset.points, params, r.clustering,
                           "rt-dbscan");
}

INSTANTIATE_TEST_SUITE_P(
    PaperDatasets, RtDbscanDatasetTest,
    ::testing::Values(
        std::make_tuple(data::PaperDataset::k3DRoad, 0.5f, 10u),
        std::make_tuple(data::PaperDataset::k3DRoad, 1.0f, 30u),
        std::make_tuple(data::PaperDataset::kPorto, 0.3f, 10u),
        std::make_tuple(data::PaperDataset::kPorto, 0.8f, 50u),
        std::make_tuple(data::PaperDataset::kNgsim, 0.05f, 10u),
        std::make_tuple(data::PaperDataset::kNgsim, 0.5f, 100u),
        std::make_tuple(data::PaperDataset::k3DIono, 2.0f, 10u),
        std::make_tuple(data::PaperDataset::k3DIono, 4.0f, 40u)));

TEST(RtDbscan, TriangleModeMatchesSphereMode) {
  const auto dataset = data::taxi_gps(1500, 81);
  const Params params{0.3f, 10};
  const auto spheres = rt_dbscan(dataset.points, params);

  RtDbscanOptions tri_opts;
  tri_opts.geometry = GeometryMode::kTriangles;
  tri_opts.triangle_subdivisions = 1;
  const auto triangles = rt_dbscan(dataset.points, params, tri_opts);

  const auto eq = dbscan::check_equivalent(
      dataset.points, params, spheres.clustering, triangles.clustering);
  EXPECT_TRUE(eq.equivalent) << eq.reason;
}

TEST(RtDbscan, TriangleModeMatchesReferenceAtZeroSubdivisions) {
  // Even the coarse 20-face icosahedron is exact thanks to circumscription
  // + the exact AnyHit distance filter.
  const auto dataset = data::road_network(1000, 82);
  const Params params{0.5f, 5};
  RtDbscanOptions opts;
  opts.geometry = GeometryMode::kTriangles;
  opts.triangle_subdivisions = 0;
  const auto r = rt_dbscan(dataset.points, params, opts);
  expect_matches_reference(dataset.points, params, r.clustering,
                           "rt-dbscan-triangles");
}

TEST(RtDbscan, TriangleModeDoesMoreWork) {
  // §VI-C: the AnyHit path costs more.  The work counters must show many
  // more primitive tests and non-zero AnyHit calls.
  const auto dataset = data::taxi_gps(1500, 83);
  const Params params{0.3f, 10};
  const auto spheres = rt_dbscan(dataset.points, params);
  RtDbscanOptions opts;
  opts.geometry = GeometryMode::kTriangles;
  const auto triangles = rt_dbscan(dataset.points, params, opts);

  EXPECT_EQ(spheres.phase1.work.anyhit_calls, 0u);
  EXPECT_GT(triangles.phase1.work.anyhit_calls, 0u);
  EXPECT_GT(triangles.phase1.work.isect_calls,
            spheres.phase1.work.isect_calls);
}

TEST(RtDbscan, ReorderedQueriesGiveEquivalentResults) {
  // The RTNN-style Morton launch order changes scheduling only, in both
  // geometry modes.
  const auto dataset = data::taxi_gps(3000, 78);
  const Params params{0.3f, 10};
  for (const GeometryMode geometry :
       {GeometryMode::kSpheres, GeometryMode::kTriangles}) {
    RtDbscanOptions plain;
    plain.geometry = geometry;
    RtDbscanOptions reordered = plain;
    reordered.reorder_queries = true;
    const auto a = rt_dbscan(dataset.points, params, plain);
    const auto b = rt_dbscan(dataset.points, params, reordered);
    const auto eq = dbscan::check_equivalent(dataset.points, params,
                                             a.clustering, b.clustering);
    EXPECT_TRUE(eq.equivalent) << to_string(geometry) << ": " << eq.reason;
    // Work counters are identical: the same rays trace, in another order.
    EXPECT_EQ(a.phase1.work.nodes_visited, b.phase1.work.nodes_visited)
        << to_string(geometry);
    EXPECT_EQ(a.phase1.work.isect_calls, b.phase1.work.isect_calls)
        << to_string(geometry);
    EXPECT_EQ(a.neighbor_counts, b.neighbor_counts) << to_string(geometry);
  }
}

TEST(RtDbscan, BothBuildersEquivalent) {
  const auto dataset = data::ionosphere3d(3000, 84);
  const Params params{2.0f, 10};
  RtDbscanOptions sah;
  sah.device.build.algorithm = rt::BuildAlgorithm::kBinnedSah;
  const auto a = rt_dbscan(dataset.points, params);
  const auto b = rt_dbscan(dataset.points, params, sah);
  const auto eq = dbscan::check_equivalent(dataset.points, params,
                                           a.clustering, b.clustering);
  EXPECT_TRUE(eq.equivalent) << eq.reason;
}

TEST(RtDbscan, SingleThreadMatchesParallel) {
  const auto dataset = data::two_rings(2000, 85);
  const Params params{0.8f, 5};
  RtDbscanOptions serial;
  serial.device.threads = 1;
  const auto a = rt_dbscan(dataset.points, params, serial);
  const auto b = rt_dbscan(dataset.points, params);
  const auto eq = dbscan::check_equivalent(dataset.points, params,
                                           a.clustering, b.clustering);
  EXPECT_TRUE(eq.equivalent) << eq.reason;
}

TEST(RtDbscan, NeighborCountsAreExact) {
  const auto dataset = data::taxi_gps(2000, 86);
  const Params params{0.3f, 10};
  const auto r = rt_dbscan(dataset.points, params);
  ASSERT_EQ(r.neighbor_counts.size(), dataset.size());
  const float e2 = params.eps_squared();
  for (std::uint32_t i = 0; i < dataset.size(); i += 37) {
    std::uint32_t expected = 0;
    for (std::uint32_t j = 0; j < dataset.size(); ++j) {
      if (j != i && geom::distance_squared(dataset.points[i],
                                           dataset.points[j]) <= e2) {
        ++expected;
      }
    }
    EXPECT_EQ(r.neighbor_counts[i], expected) << "point " << i;
  }
}

TEST(RtDbscan, PhaseStatsPopulated) {
  const auto dataset = data::taxi_gps(3000, 87);
  const auto r = rt_dbscan(dataset.points, {0.3f, 10});
  EXPECT_EQ(r.phase1.work.rays, dataset.size());
  EXPECT_EQ(r.phase2.work.rays, r.clustering.core_count());
  EXPECT_GT(r.accel_build.node_count, 0u);
  EXPECT_GT(r.clustering.timings.index_build_seconds, 0.0);
  EXPECT_GT(r.clustering.timings.core_phase_seconds, 0.0);
}

TEST(RtDbscan, MemoryFootprintHasNoNeighborLists) {
  // O(n) memory contract: the result's only per-point payloads are labels,
  // core flags and counts.  (Compile-time shape check, documented here.)
  const auto dataset = data::taxi_gps(1000, 88);
  const auto r = rt_dbscan(dataset.points, {0.3f, 10});
  EXPECT_EQ(r.clustering.labels.size(), dataset.size());
  EXPECT_EQ(r.clustering.is_core.size(), dataset.size());
  EXPECT_EQ(r.neighbor_counts.size(), dataset.size());
}

// ---------------------------------------------------------------------------
// Sessions over the RT scene (the former RtDbscanRunner contract): a
// Clusterer on IndexKind::kBvhRt, or on triangle geometry, caches exact
// neighbor counts across minPts reruns and refits across ε changes. Each run
// must match the rt_dbscan one-shot of its geometry: equivalent clustering,
// identical core flags and exact neighbor counts.
// ---------------------------------------------------------------------------

Options rt_session_options() {
  return Options().with_backend(index::IndexKind::kBvhRt);
}

Options triangle_session_options(int subdivisions) {
  return Options()
      .with_geometry(GeometryMode::kTriangles)
      .with_triangle_subdivisions(subdivisions);
}

void expect_session_matches_oneshot(std::span<const geom::Vec3> points,
                                    const Params& params,
                                    const ClusterResult& r,
                                    const RtDbscanOptions& options,
                                    const std::string& what) {
  const auto oneshot = rt_dbscan(points, params, options);
  const auto eq = dbscan::check_equivalent(points, params, oneshot.clustering,
                                           r.to_clustering());
  EXPECT_TRUE(eq.equivalent) << what << ": " << eq.reason;
  EXPECT_EQ(r.is_core, oneshot.clustering.is_core) << what;
  EXPECT_EQ(r.neighbor_counts, oneshot.neighbor_counts) << what;
}

TEST(RtDbscanRunner, FirstRunMatchesOneShot) {
  const auto dataset = data::taxi_gps(3000, 89);
  const Params params{0.3f, 10};
  Clusterer session(dataset.points, rt_session_options());
  EXPECT_FALSE(session.counts_cached());
  const ClusterResult& cached = session.run(params.eps, params.min_pts);
  EXPECT_TRUE(session.counts_cached());
  EXPECT_EQ(cached.stats.backend, index::IndexKind::kBvhRt);
  expect_session_matches_oneshot(dataset.points, params, cached, {},
                                 "first run");
}

TEST(RtDbscanRunner, RerunsWithDifferentMinPtsMatchOneShots) {
  const auto dataset = data::taxi_gps(3000, 90);
  const float eps = 0.3f;
  Clusterer session(dataset.points, rt_session_options());
  bool first = true;
  for (const std::uint32_t min_pts : {5u, 10u, 40u, 2u}) {
    const ClusterResult& cached = session.run(eps, min_pts);
    EXPECT_EQ(cached.stats.counts_reused, !first) << "minPts=" << min_pts;
    expect_session_matches_oneshot(dataset.points, {eps, min_pts}, cached, {},
                                   "minPts=" + std::to_string(min_pts));
    first = false;
  }
}

TEST(RtDbscanRunner, CachedRunsSkipPhase1) {
  const auto dataset = data::taxi_gps(3000, 91);
  Clusterer session(dataset.points, rt_session_options());
  const ClusterResult& first = session.run(0.3f, 10);
  EXPECT_GT(first.stats.phase1.work.rays, 0u);
  const ClusterResult& second = session.run(0.3f, 20);
  EXPECT_TRUE(second.stats.counts_reused);
  EXPECT_EQ(second.stats.phase1.work.rays, 0u);  // no rays for phase 1
  EXPECT_EQ(second.stats.phase1.seconds, 0.0);
}

TEST(RtDbscanRunner, ReorderedRunnerMatches) {
  const auto dataset = data::taxi_gps(2000, 79);
  Clusterer session(dataset.points,
                    rt_session_options().with_reorder_queries(true));
  const ClusterResult& cached = session.run(0.3f, 10);
  expect_session_matches_oneshot(dataset.points, {0.3f, 10}, cached, {},
                                 "reordered");
}

TEST(RtDbscanRunner, TriangleModeFirstRunMatchesOneShot) {
  // A triangle session tessellates once and replays the phases over the
  // cached counts.
  const auto dataset = data::taxi_gps(800, 93);
  const Params params{0.3f, 8};
  RtDbscanOptions opts;
  opts.geometry = GeometryMode::kTriangles;
  opts.triangle_subdivisions = 1;
  Clusterer session(dataset.points, triangle_session_options(1));
  EXPECT_FALSE(session.counts_cached());
  const ClusterResult& cached = session.run(params.eps, params.min_pts);
  EXPECT_TRUE(session.counts_cached());
  EXPECT_EQ(cached.stats.geometry, GeometryMode::kTriangles);
  // The session's phase 2 walks the ε-cells and traces nothing; the
  // one-shot traces its phase-2 rays through the tessellated mesh.
  EXPECT_EQ(cached.stats.phase2.work.nodes_visited, 0u);
  EXPECT_EQ(cached.stats.phase2.work.anyhit_calls, 0u);
  EXPECT_GT(rt_dbscan(dataset.points, params, opts).phase2.work.anyhit_calls,
            0u);
  expect_session_matches_oneshot(dataset.points, params, cached, opts,
                                 "triangle first run");
  // A minPts rerun skips phase 1 entirely.
  const ClusterResult& second = session.run(params.eps, 2 * params.min_pts);
  EXPECT_TRUE(second.stats.counts_reused);
  EXPECT_EQ(second.stats.phase1.work.rays, 0u);
  expect_matches_reference(dataset.points, {params.eps, 2 * params.min_pts},
                           second.to_clustering(), "triangle-runner-rerun");
}

TEST(RtDbscanRunner, TriangleModeEpsSweepRefitsInPlace) {
  // An ε change on a triangle session that holds its mesh (a writer query
  // built it) rescales the tessellation and REFITS; results must match a
  // from-scratch run at every ε, across widths.
  const auto dataset = data::taxi_gps(600, 94);
  for (const rt::TraversalWidth width :
       {rt::TraversalWidth::kBinary, rt::TraversalWidth::kWide}) {
    RtDbscanOptions opts;
    opts.geometry = GeometryMode::kTriangles;
    opts.triangle_subdivisions = 0;
    opts.device.build.width = width;
    Clusterer session(dataset.points,
                      triangle_session_options(0).with_width(width));
    (void)session.run(0.2f, 5);
    (void)session.query_neighbors(0u, 0.2f);
    for (const float eps : {0.45f, 0.15f, 0.3f}) {
      const std::string what =
          std::string(rt::to_string(width)) + " eps=" + std::to_string(eps);
      const Params params{eps, 5};
      const ClusterResult& swept = session.run(params.eps, params.min_pts);
      EXPECT_FALSE(swept.stats.counts_reused) << what;
      EXPECT_TRUE(swept.stats.index_refitted) << what;
      EXPECT_FALSE(swept.stats.index_rebuilt) << what;
      EXPECT_EQ(swept.stats.width, width) << what;
      expect_matches_reference(dataset.points, params, swept.to_clustering(),
                               "triangle-runner-eps-sweep");
      expect_session_matches_oneshot(dataset.points, params, swept, opts,
                                     what);
    }
  }
}

TEST(RtDbscanRunner, TriangleModeEmptyInputSweeps) {
  // Regression: an empty triangle session must allow an ε change
  // (rescaling nothing is a valid ε sweep), exactly like a sphere session.
  Clusterer session(std::vector<geom::Vec3>{}, triangle_session_options(0));
  EXPECT_EQ(session.run(0.3f, 3).cluster_count, 0u);
  const ClusterResult& r = session.run(0.5f, 3);
  EXPECT_TRUE(r.labels.empty());
  EXPECT_EQ(r.cluster_count, 0u);
}

TEST(RtDbscan, TriangleModeWideWidthsMatchSphereMode) {
  // The §VI-C acceptance path: triangle geometry over the wide kernel
  // clusters identically to sphere mode.
  const auto dataset = data::taxi_gps(1200, 95);
  const Params params{0.3f, 10};
  const auto spheres = rt_dbscan(dataset.points, params);
  RtDbscanOptions opts;
  opts.geometry = GeometryMode::kTriangles;
  opts.device.build.width = rt::TraversalWidth::kWide;
  const auto triangles = rt_dbscan(dataset.points, params, opts);
  const auto eq = dbscan::check_equivalent(
      dataset.points, params, spheres.clustering, triangles.clustering);
  EXPECT_TRUE(eq.equivalent) << eq.reason;
}

TEST(PublicApi, ClusterConvenienceWrapper) {
  const auto pts = testutil::two_squares_and_outlier();
  const auto r = rtd::cluster(pts, 1.5f, 3);
  EXPECT_EQ(r.cluster_count, 2u);
  EXPECT_EQ(r.labels.size(), pts.size());
  EXPECT_EQ(r.labels[8], rtd::kNoise);
  EXPECT_GE(r.seconds, 0.0);
}

TEST(GeometryModeNames, ToString) {
  EXPECT_STREQ(to_string(GeometryMode::kSpheres), "spheres");
  EXPECT_STREQ(to_string(GeometryMode::kTriangles), "triangles");
}

}  // namespace
}  // namespace rtd::core
