// Input-validation / failure-injection tests: non-finite coordinates must
// be rejected up front by every clustering entry point (a single NaN makes
// every distance comparison false and silently produces all-noise output).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/clusterer.hpp"
#include "core/rt_dbscan.hpp"
#include "core/rt_knn.hpp"
#include "dbscan/dclustplus.hpp"
#include "dbscan/fdbscan.hpp"
#include "dbscan/gdbscan.hpp"
#include "dbscan/sequential.hpp"
#include "data/generators.hpp"

namespace rtd {
namespace {

using dbscan::Params;
using geom::Vec3;

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

std::vector<Vec3> poisoned(float bad, std::size_t at = 7) {
  auto dataset = data::taxi_gps(20, 501);
  dataset.points[at].y = bad;
  return dataset.points;
}

TEST(Validation, IsFinitePredicate) {
  EXPECT_TRUE(geom::is_finite(Vec3{1, 2, 3}));
  EXPECT_FALSE(geom::is_finite(Vec3{kNan, 0, 0}));
  EXPECT_FALSE(geom::is_finite(Vec3{0, kInf, 0}));
  EXPECT_FALSE(geom::is_finite(Vec3{0, 0, -kInf}));
}

TEST(Validation, RequireFiniteNamesTheOffendingIndex) {
  const auto pts = poisoned(kNan, 7);
  try {
    dbscan::require_finite(pts);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("7"), std::string::npos);
  }
}

TEST(Validation, AllEntryPointsRejectNan) {
  const auto pts = poisoned(kNan);
  const Params params{1.0f, 3};
  EXPECT_THROW(dbscan::sequential_dbscan(pts, params),
               std::invalid_argument);
  EXPECT_THROW(dbscan::fdbscan(pts, params), std::invalid_argument);
  EXPECT_THROW(dbscan::gdbscan(pts, params), std::invalid_argument);
  EXPECT_THROW(dbscan::dclust_plus(pts, params), std::invalid_argument);
  EXPECT_THROW(core::rt_dbscan(pts, params), std::invalid_argument);
  EXPECT_THROW(core::rt_knn(pts, 3), std::invalid_argument);
  // Sessions reject at construction, in either geometry.
  EXPECT_THROW(Clusterer{pts}, std::invalid_argument);
  EXPECT_THROW(Clusterer(pts, Options().with_geometry(
                                  core::GeometryMode::kTriangles)),
               std::invalid_argument);
}

TEST(Validation, AllEntryPointsRejectInfinity) {
  const auto pts = poisoned(kInf);
  const Params params{1.0f, 3};
  EXPECT_THROW(dbscan::sequential_dbscan(pts, params),
               std::invalid_argument);
  EXPECT_THROW(dbscan::fdbscan(pts, params), std::invalid_argument);
  EXPECT_THROW(core::rt_dbscan(pts, params), std::invalid_argument);
}

TEST(Validation, FiniteDataPasses) {
  const auto dataset = data::taxi_gps(50, 502);
  EXPECT_NO_THROW(dbscan::require_finite(dataset.points));
  EXPECT_NO_THROW(core::rt_dbscan(dataset.points, {0.5f, 3}));
}

TEST(Validation, ExtremeButFiniteCoordinatesWork) {
  // Very large magnitudes are legal as long as they are finite.
  std::vector<Vec3> pts{{1e18f, 0, 0}, {1e18f, 1, 0}, {1e18f, 2, 0},
                        {-1e18f, 0, 0}};
  const auto r = core::rt_dbscan(pts, {2.0f, 2});
  EXPECT_EQ(r.clustering.size(), pts.size());
  const auto ref = dbscan::sequential_dbscan(pts, {2.0f, 2});
  EXPECT_EQ(r.clustering.cluster_count, ref.cluster_count);
}

}  // namespace
}  // namespace rtd
