#include "dbscan/fdbscan_densebox.hpp"

#include <atomic>
#include <stdexcept>
#include <vector>

#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "dbscan/engine.hpp"
#include "dsu/atomic_disjoint_set.hpp"
#include "index/neighbor_index.hpp"

namespace rtd::dbscan {

DenseboxResult fdbscan_densebox(std::span<const geom::Vec3> points,
                                const Params& params,
                                const FdbscanOptions& options) {
  if (params.eps <= 0.0f) {
    throw std::invalid_argument("fdbscan_densebox: eps must be positive");
  }
  if (params.min_pts == 0) {
    throw std::invalid_argument("fdbscan_densebox: min_pts must be >= 1");
  }
  require_finite(points);

  const std::size_t n = points.size();
  DenseboxResult result;
  Clustering& out = result.clustering;
  out.labels.assign(n, kNoiseLabel);
  out.is_core.assign(n, 0);
  if (n == 0) return result;

  Timer total;
  Timer phase;

  // Index build: the ε-cell grouping (cell diagonal <= ε, the certificate
  // that any two cell-mates are ε-neighbors) plus the per-point query
  // backend — traditionally the point BVH, swappable via Params::index.
  const std::vector<std::uint32_t> all = query_launch_order(points, false);
  EpsCells cells;
  {
    std::vector<std::uint32_t> keys;
    std::vector<std::uint32_t> swap;
    group_eps_cells(points, params.eps, all, options.threads, cells, keys,
                    swap);
  }
  // A cell with >= minPts members (a "dense box") proves them all core with
  // zero distance computations; phase 1 queries only the rest.
  for (std::size_t c = 0; c < cells.count(); ++c) {
    const std::span<const std::uint32_t> members = cells.members(c);
    if (members.size() < params.min_pts) continue;
    for (const std::uint32_t m : members) out.is_core[m] = 1;
    ++result.dense_cells;
    result.dense_points += members.size();
  }
  std::vector<std::uint32_t> sparse;
  sparse.reserve(n - result.dense_points);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!out.is_core[i]) sparse.push_back(i);
  }
  const index::IndexKind kind =
      index::resolve_auto(params.index, index::IndexKind::kPointBvh);
  const auto idx = index::make_index(points, params.eps, kind,
                                     {options.build, options.threads});
  out.timings.index_build_seconds = phase.seconds();

  // Phase 1: the engine's counting launch over the points outside dense
  // boxes.
  std::vector<std::uint32_t> counts;
  const rt::LaunchStats phase1 = index_phase1(
      *idx, params, sparse, options.early_exit, options.threads, counts);
  for (const std::uint32_t i : sparse) {
    out.is_core[i] = counts[i] + 1 >= params.min_pts ? 1 : 0;
  }
  result.phase1_work = phase1.work;
  out.timings.core_phase_seconds = phase1.seconds;

  // Phase 2: the engine's cell-aware body — every dense box is an all-core
  // cell, pre-unioned and merged by one inflated-box query.
  dsu::AtomicDisjointSet dsu(n);
  std::vector<std::atomic<std::uint8_t>> claimed(n);
  parallel_for(n, [&](std::size_t i) {
    claimed[i].store(0, std::memory_order_relaxed);
  });
  const rt::LaunchStats phase2 =
      cell_phase2(*idx, params.eps, all, cells, out.is_core, dsu, claimed,
                  options.threads);
  result.phase2_work = phase2.work;
  out.timings.cluster_phase_seconds = phase2.seconds;

  finalize_labels(
      n, [&](std::uint32_t x) { return dsu.find(x); }, out.is_core, out);
  out.timings.total_seconds = total.seconds();
  return result;
}

}  // namespace rtd::dbscan
