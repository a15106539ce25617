#include "core/rt_dbscan.hpp"

#include <memory>
#include <stdexcept>
#include <string>

#include "common/timer.hpp"
#include "dbscan/engine.hpp"
#include "index/bvh_rt_index.hpp"
#include "index/triangle_index.hpp"

namespace rtd::core {

const char* to_string(GeometryMode mode) {
  switch (mode) {
    case GeometryMode::kSpheres: return "spheres";
    case GeometryMode::kTriangles: return "triangles";
  }
  return "?";
}

namespace {

using dbscan::kNoiseLabel;
using dbscan::Params;
using geom::Vec3;

void validate_params(const Params& params) {
  if (params.eps <= 0.0f) {
    throw std::invalid_argument("rt_dbscan: eps must be positive");
  }
  if (params.min_pts == 0) {
    throw std::invalid_argument("rt_dbscan: min_pts must be >= 1");
  }
  // rt_dbscan IS the kBvhRt backend; asking it for another one is a caller
  // error (use rtd::cluster or the engine for backend-generic runs).
  if (params.index != index::IndexKind::kAuto &&
      params.index != index::IndexKind::kBvhRt) {
    throw std::invalid_argument(
        std::string("rt_dbscan: Params::index requests '") +
        index::to_string(params.index) +
        "' but rt_dbscan always runs an RT scene (kBvhRt)");
  }
}

}  // namespace

RtDbscanResult rt_dbscan(std::span<const Vec3> points, const Params& params,
                         const RtDbscanOptions& options) {
  validate_params(params);
  dbscan::require_finite(points);
  const std::size_t n = points.size();

  RtDbscanResult result;
  result.clustering.labels.assign(n, kNoiseLabel);
  result.clustering.is_core.assign(n, 0);
  if (n == 0) return result;

  Timer total;
  // Input transformation + hardware BVH build (§III-B; §VI-C tessellates).
  Timer build_timer;
  std::unique_ptr<index::NeighborIndex> index;
  if (options.geometry == GeometryMode::kSpheres) {
    auto spheres =
        std::make_unique<index::BvhRtIndex>(points, params.eps, options.device);
    result.accel_build = spheres->accel().build_stats();
    index = std::move(spheres);
  } else {
    auto triangles = std::make_unique<index::TriangleIndex>(
        points, params.eps, options.triangle_subdivisions, options.device);
    result.accel_build = triangles->accel().build_stats();
    index = std::move(triangles);
  }
  const double build_seconds = build_timer.seconds();

  dbscan::IndexEngineOptions engine;
  engine.reorder_queries = options.reorder_queries;
  engine.threads = options.device.threads;
  dbscan::IndexEngineResult run =
      dbscan::cluster_with_index(*index, params, engine);
  result.clustering = std::move(run.clustering);
  result.phase1 = run.phase1;
  result.phase2 = run.phase2;
  result.neighbor_counts = std::move(run.neighbor_counts);
  result.clustering.timings.index_build_seconds = build_seconds;
  result.clustering.timings.total_seconds = total.seconds();
  return result;
}

}  // namespace rtd::core
