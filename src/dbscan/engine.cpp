#include "dbscan/engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "common/failpoint.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "geom/morton.hpp"
#include "index/eps_cell_grid.hpp"
#include "rt/parallel_launch.hpp"
#include "telemetry/telemetry.hpp"

namespace rtd::dbscan {

namespace {

/// `claimed` marker for members of a pre-unioned all-core cell (border
/// claims store 1).
constexpr std::uint8_t kCellMember = 2;

/// The body of group_eps_cells once `cells.ids` holds the slots to group:
/// a stable LSD radix sort of the ids by key_of(id) (ping-ponging through
/// `swap`), then one pass over the runs of equal keys that keeps the
/// certified multi-member cells, compacted in place.
template <typename KeyOf>
void collect_cells(std::span<const geom::Vec3> points, float eps,
                   int key_bits, std::vector<std::uint32_t>& swap,
                   EpsCells& cells, KeyOf&& key_of) {
  constexpr int kDigitBits = 11;
  constexpr std::uint64_t kDigitMask = (1u << kDigitBits) - 1;
  std::vector<std::uint32_t>& ids = cells.ids;
  swap.resize(ids.size());
  std::array<std::uint32_t, std::size_t{1} << kDigitBits> bucket{};
  bool sorted_in_swap = false;
  for (int shift = 0; shift < key_bits; shift += kDigitBits) {
    const std::vector<std::uint32_t>& from = sorted_in_swap ? swap : ids;
    std::vector<std::uint32_t>& to = sorted_in_swap ? ids : swap;
    bucket.fill(0);
    for (const std::uint32_t i : from) {
      ++bucket[(key_of(i) >> shift) & kDigitMask];
    }
    std::uint32_t sum = 0;
    for (std::uint32_t& b : bucket) sum += std::exchange(b, sum);
    for (const std::uint32_t i : from) {
      to[bucket[(key_of(i) >> shift) & kDigitMask]++] = i;
    }
    sorted_in_swap = !sorted_in_swap;
  }
  if (sorted_in_swap) std::copy(swap.begin(), swap.end(), ids.begin());

  // Runs of one key are cells.  The ids compact in place (the write cursor
  // never passes the read one) and the starts collect in the now idle
  // `swap`; both are then trimmed to what is kept, since callers keep the
  // CSR resident.
  const float eps2 = eps * eps;
  std::size_t kept = 0;
  std::size_t n_cells = 0;
  swap[0] = 0;
  for (std::size_t run = 0; run < ids.size();) {
    const std::uint64_t key = key_of(ids[run]);
    std::size_t end = run + 1;
    while (end < ids.size() && key_of(ids[end]) == key) ++end;
    if (end - run >= 2) {
      geom::Aabb tight;
      for (std::size_t r = run; r < end; ++r) tight.grow(points[ids[r]]);
      if (geom::distance_squared(tight.lo, tight.hi) <= eps2) {
        for (std::size_t r = run; r < end; ++r) ids[kept++] = ids[r];
        swap[++n_cells] = static_cast<std::uint32_t>(kept);
      }
    }
    run = end;
  }
  ids.resize(kept);
  ids.shrink_to_fit();
  if (n_cells > 0) {
    const auto last = static_cast<std::ptrdiff_t>(n_cells) + 1;
    cells.starts.assign(swap.begin(), swap.begin() + last);
  }
}

}  // namespace

std::vector<std::uint32_t> query_launch_order(
    std::span<const geom::Vec3> points, bool morton) {
  std::vector<std::uint32_t> order(points.size());
  std::iota(order.begin(), order.end(), 0u);
  if (!morton || points.empty()) return order;
  geom::Aabb bounds;
  for (const auto& p : points) bounds.grow(p);
  std::vector<std::uint32_t> codes(points.size());
  parallel_for(points.size(), [&](std::size_t i) {
    codes[i] = geom::morton3_in(bounds, points[i]);
  });
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return codes[a] < codes[b];
                   });
  return order;
}

rt::LaunchStats index_phase1(const index::NeighborIndex& index,
                             const Params& params,
                             std::span<const std::uint32_t> order,
                             bool early_exit, int threads,
                             std::vector<std::uint32_t>& counts) {
  const std::size_t n = index.size();
  counts.assign(n, 0);
  // Counting to minPts-1 (excluding self) is enough to decide the core
  // test `count + 1 >= minPts`; backends that cannot terminate traversal
  // (the RT pipeline) ignore the cap and return exact counts.
  const std::uint32_t cap =
      early_exit ? params.min_pts - 1 : index::kNoCap;
  const std::span<const geom::Vec3> points = index.points();
  // Before the launch: a throw from inside the parallel region would
  // terminate, so faults inject at the serial boundary only.  The span
  // wraps the launch from outside for the same reason.
  RTD_TRACE_SPAN("engine.phase1");
  telemetry::count(telemetry::Counter::kEnginePhase1Launches);
  RTD_FAILPOINT("engine.phase1");

  // One query per ORDER entry, not per slot: a live session passes an order
  // that skips tombstoned slots, whose counts stay 0 from the assign above.
  return rt::parallel_launch(
      order.size(), threads, [&](rt::TraversalStats& stats, std::size_t k) {
        const std::uint32_t i = order[k];
        counts[i] = index.query_count(points[i], params.eps, i, stats, cap);
      });
}

rt::LaunchStats index_phase1_remove(const index::NeighborIndex& index,
                                    float eps,
                                    std::span<const std::uint32_t> removed,
                                    std::vector<std::uint32_t>& counts,
                                    std::vector<std::uint32_t>& nbr_ids,
                                    std::vector<std::uint32_t>& nbr_starts) {
  RTD_TRACE_SPAN("engine.phase1_remove");
  telemetry::count(telemetry::Counter::kEnginePhase1RemoveLaunches);
  const std::span<const geom::Vec3> points = index.points();
  nbr_ids.clear();
  nbr_starts.resize(removed.size() + 1);
  nbr_starts[0] = 0;
  // Capture: queries and CSR appends only — counts untouched, so a throw
  // (allocation failure growing nbr_ids, backend fault) is side-effect free.
  // Serial launch (threads = 1): the CSR appends are plain stores and the
  // LaunchStats stay honest about the per-mutation cost.
  const rt::LaunchStats launch = rt::parallel_launch(
      removed.size(), 1, [&](rt::TraversalStats& stats, std::size_t k) {
        const std::uint32_t r = removed[k];
        index.query_sphere(points[r], eps, r,
                           [&](std::uint32_t j) { nbr_ids.push_back(j); },
                           stats);
        nbr_starts[k + 1] = static_cast<std::uint32_t>(nbr_ids.size());
      });
  RTD_FAILPOINT("engine.phase1_remove");
  // Apply: noexcept decrements over the captured neighborhoods.
  for (const std::uint32_t j : nbr_ids) --counts[j];
  return launch;
}

rt::LaunchStats index_phase1_insert(const index::NeighborIndex& index,
                                    float eps, std::size_t first_new,
                                    std::vector<std::uint32_t>& counts,
                                    std::vector<std::uint32_t>& nbr_ids,
                                    std::vector<std::uint32_t>& nbr_starts) {
  RTD_TRACE_SPAN("engine.phase1_insert");
  telemetry::count(telemetry::Counter::kEnginePhase1InsertLaunches);
  const std::size_t n = index.size();
  const std::span<const geom::Vec3> points = index.points();
  nbr_ids.clear();
  nbr_starts.resize(n - first_new + 1);
  nbr_starts[0] = 0;
  // Capture, like index_phase1_remove: queries only, counts untouched.
  const rt::LaunchStats launch = rt::parallel_launch(
      n - first_new, 1, [&](rt::TraversalStats& stats, std::size_t k) {
        const auto i = static_cast<std::uint32_t>(first_new + k);
        index.query_sphere(points[i], eps, i,
                           [&](std::uint32_t j) { nbr_ids.push_back(j); },
                           stats);
        nbr_starts[k + 1] = static_cast<std::uint32_t>(nbr_ids.size());
      });
  // Growth before the failpoint: a throw here (or injected after) leaves the
  // pre-existing entries untouched; the caller shrinks on rollback.
  counts.resize(n, 0);
  RTD_FAILPOINT("engine.phase1_insert");
  // Apply: noexcept.  A new point's count is its CSR row size (new-new pairs
  // resolve through each side's own query); pre-existing neighbors gain one.
  for (std::size_t k = 0; first_new + k < n; ++k) {
    counts[first_new + k] = nbr_starts[k + 1] - nbr_starts[k];
    for (std::uint32_t c = nbr_starts[k]; c < nbr_starts[k + 1]; ++c) {
      const std::uint32_t j = nbr_ids[c];
      if (j < first_new) ++counts[j];
    }
  }
  return launch;
}

void group_eps_cells(std::span<const geom::Vec3> points, float eps,
                     std::span<const std::uint32_t> order, int threads,
                     EpsCells& cells, std::vector<std::uint32_t>& keys,
                     std::vector<std::uint32_t>& swap) {
  // Serial boundary before any buffer is touched: an injected fault leaves
  // the caller's cells as they were.
  RTD_FAILPOINT("engine.cells");
  cells.eps = eps;
  cells.ids.clear();
  cells.starts.clear();
  if (order.size() < 2) return;

  geom::Aabb bounds;
  for (const std::uint32_t i : order) bounds.grow(points[i]);
  const index::EpsCellGrid grid(bounds, eps);
  if (!grid.fits_key_range(bounds)) return;  // per-point phase 2 instead

  // Key: the three cell coordinates packed into the fewest bits their
  // ranges need, so the radix sort runs as few passes as possible.  Every
  // coordinate lies in [0, coord(bounds.hi)] because coord is monotone.
  const geom::Vec3& o = grid.origin;
  const auto axis_bits = [&](float hi, float lo) {
    return static_cast<int>(
        std::bit_width(static_cast<std::uint64_t>(grid.coord(hi, lo))));
  };
  const int bx = axis_bits(bounds.hi.x, o.x);
  const int by = axis_bits(bounds.hi.y, o.y);
  const int key_bits = bx + by + axis_bits(bounds.hi.z, o.z);
  const auto key_of_point = [&grid, &o, bx, by](const geom::Vec3& p) {
    return static_cast<std::uint64_t>(grid.coord(p.x, o.x)) |
           static_cast<std::uint64_t>(grid.coord(p.y, o.y)) << bx |
           static_cast<std::uint64_t>(grid.coord(p.z, o.z)) << (bx + by);
  };

  cells.ids.assign(order.begin(), order.end());
  if (key_bits <= 32) {
    // The common case: one parallel key pass, then the sort reads a 4-byte
    // key per slot.
    keys.resize(points.size());
    {
      const ThreadCountGuard guard(threads > 0 ? threads
                                               : hardware_threads());
      parallel_for(order.size(), [&](std::size_t k) {
        const std::uint32_t i = order[k];
        keys[i] = static_cast<std::uint32_t>(key_of_point(points[i]));
      });
    }
    collect_cells(points, eps, key_bits, swap, cells,
                  [&](std::uint32_t i) -> std::uint64_t { return keys[i]; });
  } else {
    // Wider keys are recomputed from the point on every read instead of
    // doubling the key scratch.
    collect_cells(points, eps, key_bits, swap, cells,
                  [&](std::uint32_t i) { return key_of_point(points[i]); });
  }
}

rt::LaunchStats index_phase2(const index::NeighborIndex& index, float eps,
                             std::span<const std::uint32_t> order,
                             std::span<const std::uint8_t> is_core,
                             dsu::AtomicDisjointSet& dsu,
                             std::span<std::atomic<std::uint8_t>> claimed,
                             int threads) {
  static const EpsCells kNoCells;
  return cell_phase2(index, eps, order, kNoCells, is_core, dsu, claimed,
                     threads);
}

rt::LaunchStats cell_phase2(const index::NeighborIndex& index, float eps,
                            std::span<const std::uint32_t> order,
                            const EpsCells& cells,
                            std::span<const std::uint8_t> is_core,
                            dsu::AtomicDisjointSet& dsu,
                            std::span<std::atomic<std::uint8_t>> claimed,
                            int threads) {
  const std::size_t n_cells = cells.count();
  if (n_cells > 0 && cells.eps > eps) {
    throw std::invalid_argument(
        "cell_phase2: cells grouped at a radius above the query eps");
  }
  const std::span<const geom::Vec3> points = index.points();
  const float eps2 = eps * eps;
  RTD_TRACE_SPAN("engine.phase2");
  telemetry::count(telemetry::Counter::kEnginePhase2Launches);
  RTD_FAILPOINT("engine.phase2");

  // (a) Pre-union every all-core cell: its members are pairwise neighbors,
  // so it is one component.  The mark tells (b) and (c) apart from the
  // cores that query for themselves; border claims only ever touch
  // non-core slots, so the two uses of `claimed` never meet.
  rt::LaunchStats pre;
  if (n_cells > 0) {
    pre = rt::parallel_launch(
        n_cells, threads, [&](rt::TraversalStats&, std::size_t c) {
          const std::span<const std::uint32_t> members = cells.members(c);
          std::uint32_t rep = members[0];
          for (const std::uint32_t m : members) {
            if (!is_core[m]) return;
            rep = std::min(rep, m);
          }
          for (const std::uint32_t m : members) {
            claimed[m].store(kCellMember, std::memory_order_relaxed);
            dsu.unite(rep, m);
          }
        });
  }
  const auto in_cell = [&](std::uint32_t j) {
    return claimed[j].load(std::memory_order_relaxed) == kCellMember;
  };
  // Border point: Alg. 3's critical section (lines 12-15) — an atomic claim
  // guarantees the point joins exactly one cluster.
  const auto claim_border = [&](std::uint32_t from, std::uint32_t j) {
    std::uint8_t expected = 0;
    if (claimed[j].compare_exchange_strong(expected, 1,
                                           std::memory_order_acq_rel)) {
      dsu.unite(from, j);
    }
  };

  // (c) One inflated-box query per all-core cell, scheduled first: cells
  // are the heavy items.
  const auto cell_query = [&](rt::TraversalStats& stats, std::size_t c) {
    const std::span<const std::uint32_t> members = cells.members(c);
    if (!in_cell(members[0])) return;  // not all-core: members query in (b)
    geom::Aabb tight;
    std::uint32_t rep = members[0];
    for (const std::uint32_t m : members) {
      tight.grow(points[m]);
      rep = std::min(rep, m);
    }
    // j is connected to the cell iff some member is within eps.  The tight
    // bounds decide most candidates without touching a member.
    const auto in_range = [&](std::uint32_t j) {
      const geom::Vec3& p = points[j];
      if (geom::min_distance_squared(p, tight) > eps2) return false;
      if (geom::max_distance_squared(p, tight) <= eps2) return true;
      for (const std::uint32_t m : members) {
        if (geom::distance_squared(points[m], p) <= eps2) return true;
      }
      return false;
    };
    // Padded a hair beyond eps so float rounding at the boundary can never
    // exclude a true neighbor; in_range is authoritative.
    const float pad = 1.0001f * eps;
    const geom::Aabb query(tight.lo - geom::Vec3{pad, pad, pad},
                           tight.hi + geom::Vec3{pad, pad, pad});
    index.query_box(
        query,
        [&](std::uint32_t j) {
          if (!is_core[j]) {
            if (claimed[j].load(std::memory_order_relaxed) == 0 &&
                in_range(j)) {
              claim_border(rep, j);
            }
            return;
          }
          // A core outside all-core cells united itself in (b).  Between
          // two cells, the one whose smallest member is below the
          // candidate acts (some connecting pair always qualifies); own
          // members and already-merged cells cost two finds.
          if (!in_cell(j) || j <= rep) return;
          if (dsu.find(j) == dsu.find(rep)) return;
          if (in_range(j)) dsu.unite(rep, j);
        },
        stats);
  };

  rt::LaunchStats launch = rt::parallel_launch(
      n_cells + order.size(), threads,
      [&](rt::TraversalStats& stats, std::size_t k) {
        if (k < n_cells) {
          cell_query(stats, k);
          return;
        }
        // (b) Per-point queries.  Like phase 1, the order defines which
        // points query (live sessions pass a live-only order; dead slots
        // are never core, so skipping is free).
        const std::uint32_t i = order[k - n_cells];
        if (!is_core[i] || (n_cells > 0 && in_cell(i))) return;
        index.query_sphere(
            points[i], eps, i,
            [&](std::uint32_t j) {
              if (!is_core[j]) {
                claim_border(i, j);
              } else if (j > i || (n_cells > 0 && in_cell(j))) {
                // Core-core merge (Alg. 3 line 10).  Pairs of querying
                // cores are seen from both ends, so each merges once; a
                // cell member never queries, so it merges from here.
                dsu.unite(i, j);
              }
            },
            stats);
      });
  launch.seconds += pre.seconds;
  return launch;
}

IndexEngineResult cluster_with_index(const index::NeighborIndex& index,
                                     const Params& params,
                                     const IndexEngineOptions& options) {
  if (params.eps <= 0.0f) {
    throw std::invalid_argument("cluster_with_index: eps must be positive");
  }
  if (params.min_pts == 0) {
    throw std::invalid_argument("cluster_with_index: min_pts must be >= 1");
  }
  // The caller built the index, so Params::index must agree with it (kAuto
  // always does) — a mismatch means the caller resolved the backend one way
  // and recorded another, which would make every downstream report lie.
  if (params.index != index::IndexKind::kAuto &&
      params.index != index.kind()) {
    throw std::invalid_argument(
        std::string("cluster_with_index: Params::index requests '") +
        index::to_string(params.index) + "' but the supplied index is '" +
        index.name() + "'");
  }

  Timer total;
  const std::size_t n = index.size();
  IndexEngineResult result;
  Clustering& out = result.clustering;
  out.labels.assign(n, kNoiseLabel);
  out.is_core.assign(n, 0);
  if (n == 0) return result;

  const std::vector<std::uint32_t> order =
      query_launch_order(index.points(), options.reorder_queries);

  result.phase1 = index_phase1(index, params, order, options.early_exit,
                               options.threads, result.neighbor_counts);
  out.timings.core_phase_seconds = result.phase1.seconds;

  // Core test: counts exclude self; the classic |N_eps(p)| >= minPts
  // includes it (see dbscan/core.hpp).
  for (std::size_t i = 0; i < n; ++i) {
    out.is_core[i] = result.neighbor_counts[i] + 1 >= params.min_pts ? 1 : 0;
  }

  dsu::AtomicDisjointSet dsu(n);
  std::vector<std::atomic<std::uint8_t>> claimed(n);
  parallel_for(n, [&](std::size_t i) {
    claimed[i].store(0, std::memory_order_relaxed);
  });

  result.phase2 = index_phase2(index, params.eps, order, out.is_core, dsu,
                               claimed, options.threads);
  out.timings.cluster_phase_seconds = result.phase2.seconds;

  finalize_labels(
      n, [&](std::uint32_t x) { return dsu.find(x); }, out.is_core, out);
  // Everything this function did (phases, ordering, finalization).  The
  // caller built the index, so it overwrites this with a build-inclusive
  // total where one is reported.
  out.timings.total_seconds = total.seconds();
  return result;
}

}  // namespace rtd::dbscan
