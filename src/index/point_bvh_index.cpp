#include "index/point_bvh_index.hpp"

#include <vector>

#include "common/parallel.hpp"
#include "rt/traversal.hpp"

namespace rtd::index {

PointBvhIndex::PointBvhIndex(std::span<const geom::Vec3> points, float eps,
                             const rt::BuildOptions& build)
    : points_(points), eps_(eps), built_count_(points.size()) {
  std::vector<geom::Aabb> bounds(points.size());
  parallel_for(points.size(), [&](std::size_t i) {
    bounds[i] = geom::Aabb::of_point(points_[i]);
  });
  bvh_ = rt::build_bvh(bounds, build);
  rt::derive_wide_layouts(bvh_, build, points.size(), wide_);
}

bool PointBvhIndex::do_try_remove(std::span<const std::uint32_t> ids) {
  removed_since_refit_ += ids.size();
  if (removed_since_refit_ >= refit_threshold() && !bvh_.empty()) {
    // Masked refit: tighten every node around the survivors (dead slots
    // keep their topology position but stop widening any bounds).  The
    // mask the base class set covers this batch already.
    std::vector<geom::Aabb> bounds(built_count_);
    parallel_for(built_count_, [&](std::size_t i) {
      bounds[i] = geom::Aabb::of_point(points_[i]);
    });
    bvh_.refit(bounds, dead_mask());
    if (!wide_.empty()) wide_.refit_from(bvh_);
    removed_since_refit_ = 0;
  }
  return true;
}

// Queries dispatch through rt::traverse_overlap(bvh, wide, ...): the wide
// SoA kernel when a collapse ran, the binary node walk otherwise.  The wide
// walk surfaces a conservative candidate superset; the exact distance
// filter in every caller makes results identical (test-enforced).

void PointBvhIndex::query_sphere(const geom::Vec3& center, float eps,
                                 std::uint32_t self, NeighborVisitor visit,
                                 rt::TraversalStats& stats) const {
  const geom::Aabb query = geom::Aabb::of_sphere(center, eps);
  const float eps2 = eps * eps;
  rt::traverse_overlap(
      bvh_, wide_, query,
      [&](std::uint32_t j) {
        ++stats.isect_calls;
        if (j != self && !is_dead(j) &&
            geom::distance_squared(center, points_[j]) <= eps2) {
          visit(j);
        }
        return rt::TraversalControl::kContinue;
      },
      stats);
  scan_delta([&](std::uint32_t j) {
    ++stats.isect_calls;
    if (j != self && !is_dead(j) &&
        geom::distance_squared(center, points_[j]) <= eps2) {
      visit(j);
    }
  });
}

std::uint32_t PointBvhIndex::query_count(const geom::Vec3& center, float eps,
                                         std::uint32_t self,
                                         rt::TraversalStats& stats,
                                         std::uint32_t stop_at) const {
  const geom::Aabb query = geom::Aabb::of_sphere(center, eps);
  const float eps2 = eps * eps;
  std::uint32_t count = 0;
  if (stop_at == 0) {
    ++stats.rays;  // the query "launches" even though it resolves instantly
    return 0;
  }
  rt::traverse_overlap(
      bvh_, wide_, query,
      [&](std::uint32_t j) {
        ++stats.isect_calls;
        if (j != self && !is_dead(j) &&
            geom::distance_squared(center, points_[j]) <= eps2) {
          if (++count >= stop_at) return rt::TraversalControl::kTerminate;
        }
        return rt::TraversalControl::kContinue;
      },
      stats);
  if (count >= stop_at) return count;
  scan_delta([&](std::uint32_t j) {
    if (count >= stop_at) return;
    ++stats.isect_calls;
    if (j != self && !is_dead(j) &&
        geom::distance_squared(center, points_[j]) <= eps2) {
      ++count;
    }
  });
  return count;
}

void PointBvhIndex::query_box(const geom::Aabb& box, NeighborVisitor visit,
                              rt::TraversalStats& stats) const {
  rt::traverse_overlap(
      bvh_, wide_, box,
      [&](std::uint32_t j) {
        ++stats.isect_calls;
        if (!is_dead(j) && box.contains(points_[j])) visit(j);
        return rt::TraversalControl::kContinue;
      },
      stats);
  scan_delta([&](std::uint32_t j) {
    ++stats.isect_calls;
    if (!is_dead(j) && box.contains(points_[j])) visit(j);
  });
}

}  // namespace rtd::index
