// Tests for the public umbrella API (core/api.hpp): rtd::cluster() is the
// one call most users make, so its contract — label range, noise handling,
// cluster_count consistency — gets its own suite.
#include "core/api.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "data/generators.hpp"
#include "dbscan_test_util.hpp"

namespace rtd {
namespace {

using testutil::two_squares_and_outlier;

TEST(Api, NoiseConstantMatchesDbscanCore) {
  EXPECT_EQ(kNoise, dbscan::kNoiseLabel);
}

TEST(Api, EmptyInput) {
  const std::vector<geom::Vec3> pts;
  const ClusterResult r = cluster(pts, 1.0f, 3);
  EXPECT_TRUE(r.labels.empty());
  EXPECT_TRUE(r.is_core.empty());
  EXPECT_EQ(r.cluster_count, 0u);
}

TEST(Api, TwoSquaresAndOutlier) {
  const auto pts = two_squares_and_outlier();
  const ClusterResult r = cluster(pts, 1.5f, 3);

  ASSERT_EQ(r.labels.size(), pts.size());
  ASSERT_EQ(r.is_core.size(), pts.size());
  EXPECT_EQ(r.cluster_count, 2u);

  // The two squares land in two distinct clusters; the outlier is noise.
  for (std::size_t i = 1; i < 4; ++i) EXPECT_EQ(r.labels[i], r.labels[0]);
  for (std::size_t i = 5; i < 8; ++i) EXPECT_EQ(r.labels[i], r.labels[4]);
  EXPECT_NE(r.labels[0], r.labels[4]);
  EXPECT_EQ(r.labels[8], kNoise);
  EXPECT_FALSE(r.is_core[8]);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_TRUE(r.is_core[i]) << i;
}

TEST(Api, LabelsInRangeAndCountConsistent) {
  const auto dataset = data::taxi_gps(2000, 7);
  const ClusterResult r = cluster(dataset.points, 0.3f, 10);

  ASSERT_EQ(r.labels.size(), dataset.size());
  std::set<std::int32_t> distinct;
  for (std::size_t i = 0; i < r.labels.size(); ++i) {
    const std::int32_t label = r.labels[i];
    if (label == kNoise) {
      // A core point is always a cluster member, never noise.
      EXPECT_FALSE(r.is_core[i]) << "core point " << i << " labeled noise";
      continue;
    }
    EXPECT_GE(label, 0);
    EXPECT_LT(label, static_cast<std::int32_t>(r.cluster_count));
    distinct.insert(label);
  }
  // cluster_count is exact, not an upper bound: every label is used.
  EXPECT_EQ(distinct.size(), r.cluster_count);
  EXPECT_GT(r.cluster_count, 0u);
}

TEST(Api, AllNoiseWhenEpsTiny) {
  const auto dataset = data::uniform_cube(500, 1000.0f, 2, 11);
  const ClusterResult r = cluster(dataset.points, 1e-3f, 3);
  EXPECT_EQ(r.cluster_count, 0u);
  EXPECT_TRUE(std::all_of(r.labels.begin(), r.labels.end(),
                          [](std::int32_t label) { return label == kNoise; }));
  EXPECT_TRUE(std::all_of(r.is_core.begin(), r.is_core.end(),
                          [](std::uint8_t c) { return c == 0; }));
}

TEST(Api, ReportsElapsedTime) {
  const auto pts = two_squares_and_outlier();
  const ClusterResult r = cluster(pts, 1.5f, 3);
  EXPECT_GT(r.seconds, 0.0);
}

TEST(Api, WrapperCarriesSessionEraFields) {
  // rtd::cluster() is a thin wrapper over a throwaway rtd::Clusterer; the
  // richer result fields (stats, membership views, neighbor counts) come
  // through it too.
  const auto pts = two_squares_and_outlier();
  const ClusterResult r = cluster(pts, 1.5f, 3);
  EXPECT_EQ(r.eps, 1.5f);
  EXPECT_EQ(r.min_pts, 3u);
  EXPECT_NE(r.stats.backend, index::IndexKind::kAuto);
  EXPECT_FALSE(r.stats.index_rebuilt);  // both phases walk the ε-cells
  EXPECT_FALSE(r.stats.index_refitted);
  ASSERT_EQ(r.cluster_count, 2u);
  EXPECT_EQ(r.members_of(r.labels[0]).size(), 4u);
  EXPECT_EQ(r.members_of(r.labels[4]).size(), 4u);
  ASSERT_EQ(r.noise().size(), 1u);
  EXPECT_EQ(r.noise()[0], 8u);
  ASSERT_EQ(r.neighbor_counts.size(), pts.size());
  EXPECT_EQ(r.neighbor_counts[8], 0u);  // the outlier has no neighbors
}

}  // namespace
}  // namespace rtd
