#include "dbscan/engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <functional>
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

/// The ε-cell grid over the points of a slot set, and its packed cell key:
/// the three cell coordinates in the fewest bits their ranges need, x
/// lowest, so keys order cells by z, then y, then x.  Every coordinate lies
/// in [0, max] because coord is monotone.
struct CellLayout {
  index::EpsCellGrid grid;
  bool fits = false;  ///< within the key range: cells can be formed
  std::int64_t max_x = 0, max_y = 0, max_z = 0;
  int bx = 0, by = 0, bz = 0;

  CellLayout(std::span<const geom::Vec3> points, float eps,
             std::span<const std::uint32_t> order)
      : CellLayout(bounds_of(points, order), eps) {}

  /// The layout over slots whose tight bounds are `bounds` — the union of
  /// their cells' tight boxes gives the same layout back.
  CellLayout(const geom::Aabb& bounds, float eps) {
    grid = index::EpsCellGrid(bounds, eps);
    fits = grid.fits_key_range(bounds);
    if (!fits || bounds.is_empty()) return;
    const geom::Vec3& o = grid.origin;
    max_x = grid.coord(bounds.hi.x, o.x);
    max_y = grid.coord(bounds.hi.y, o.y);
    max_z = grid.coord(bounds.hi.z, o.z);
    const auto bits = [](std::int64_t m) {
      return static_cast<int>(std::bit_width(static_cast<std::uint64_t>(m)));
    };
    bx = bits(max_x);
    by = bits(max_y);
    bz = bits(max_z);
  }

  static geom::Aabb bounds_of(std::span<const geom::Vec3> points,
                              std::span<const std::uint32_t> order) {
    geom::Aabb bounds;
    for (const std::uint32_t i : order) bounds.grow(points[i]);
    return bounds;
  }

  [[nodiscard]] int key_bits() const { return bx + by + bz; }
  [[nodiscard]] std::uint64_t key(std::int64_t x, std::int64_t y,
                                  std::int64_t z) const {
    return static_cast<std::uint64_t>(x) |
           static_cast<std::uint64_t>(y) << bx |
           static_cast<std::uint64_t>(z) << (bx + by);
  }
  [[nodiscard]] std::uint64_t key_of(const geom::Vec3& p) const {
    const geom::Vec3& o = grid.origin;
    return key(grid.coord(p.x, o.x), grid.coord(p.y, o.y),
               grid.coord(p.z, o.z));
  }
};

/// A cell whose TIGHT bounds have a diagonal within ε is a certified
/// clique: its members are pairwise ε-neighbors under distance_squared (a
/// float-rounding guard at cell faces — a cell's diagonal is ε exactly).
bool is_clique(const geom::Aabb& tight, float eps2) {
  return geom::distance_squared(tight.lo, tight.hi) <= eps2;
}

/// A run of sorted ids that group_eps_cells keeps: two or more members
/// forming a certified clique.
bool is_clique(std::span<const geom::Vec3> points, float eps2,
               std::span<const std::uint32_t> members) {
  if (members.size() < 2) return false;
  geom::Aabb tight;
  for (const std::uint32_t m : members) tight.grow(points[m]);
  return is_clique(tight, eps2);
}

/// Sort the slots of `order` into `ids` by cell key — a stable LSD radix
/// sort ping-ponging through `swap` — then pass every run of equal keys
/// (a cell) to `keep(run)`.  Kept runs are compacted in place (the write
/// cursor never passes the read one) and their ends collect in `swap`,
/// which holds the CSR starts [0, returned cell count] on return.  Keys of
/// at most 32 bits are computed once into `keys` (one 4-byte key per slot,
/// grown to points.size() if smaller); wider keys are recomputed from the
/// point on every read instead of doubling that scratch.
template <typename Keep>
std::size_t sort_cells(std::span<const geom::Vec3> points,
                       const CellLayout& layout,
                       std::span<const std::uint32_t> order, int threads,
                       std::vector<std::uint32_t>& ids,
                       std::vector<std::uint32_t>& keys,
                       std::vector<std::uint32_t>& swap, Keep&& keep) {
  const int key_bits = layout.key_bits();
  const auto run = [&](auto&& key_of) {
    constexpr int kDigitBits = 11;
    constexpr std::uint64_t kDigitMask = (1u << kDigitBits) - 1;
    ids.assign(order.begin(), order.end());
    swap.resize(ids.size() + 1);
    std::array<std::uint32_t, std::size_t{1} << kDigitBits> bucket{};
    bool sorted_in_swap = false;
    for (int shift = 0; shift < key_bits; shift += kDigitBits) {
      const std::uint32_t* from = sorted_in_swap ? swap.data() : ids.data();
      std::uint32_t* to = sorted_in_swap ? ids.data() : swap.data();
      bucket.fill(0);
      for (std::size_t r = 0; r < ids.size(); ++r) {
        ++bucket[(key_of(from[r]) >> shift) & kDigitMask];
      }
      std::uint32_t sum = 0;
      for (std::uint32_t& b : bucket) sum += std::exchange(b, sum);
      for (std::size_t r = 0; r < ids.size(); ++r) {
        to[bucket[(key_of(from[r]) >> shift) & kDigitMask]++] = from[r];
      }
      sorted_in_swap = !sorted_in_swap;
    }
    if (sorted_in_swap) {
      std::copy(swap.begin(), swap.end() - 1, ids.begin());
    }

    std::size_t kept = 0;
    std::size_t n_cells = 0;
    swap[0] = 0;
    for (std::size_t begin = 0; begin < ids.size();) {
      const std::uint64_t key = key_of(ids[begin]);
      std::size_t end = begin + 1;
      while (end < ids.size() && key_of(ids[end]) == key) ++end;
      if (keep(std::span<const std::uint32_t>(ids).subspan(begin,
                                                            end - begin))) {
        for (std::size_t r = begin; r < end; ++r) ids[kept++] = ids[r];
        swap[++n_cells] = static_cast<std::uint32_t>(kept);
      }
      begin = end;
    }
    ids.resize(kept);
    return n_cells;
  };

  if (key_bits > 32) {
    return run([&](std::uint32_t i) { return layout.key_of(points[i]); });
  }
  // The common case: one parallel key pass, then the sort reads a 4-byte
  // key per slot.
  if (keys.size() < points.size()) keys.resize(points.size());
  rt::parallel_launch(order.size(), threads,
                      [&](rt::TraversalStats&, std::size_t k) {
                        const std::uint32_t i = order[k];
                        keys[i] = static_cast<std::uint32_t>(
                            layout.key_of(points[i]));
                      });
  return run([&](std::uint32_t i) -> std::uint64_t { return keys[i]; });
}

/// Per-point counting over `order` into zeroed point-major `counts`: one
/// query_count per entry (capped at `cap`) for one column, otherwise one
/// query_sphere at the largest ε whose neighbors' d² are bucketed into
/// every column.
rt::LaunchStats point_counts(const index::NeighborIndex& index,
                             std::span<const float> eps_columns,
                             std::span<const std::uint32_t> order,
                             int threads, std::uint32_t cap,
                             std::vector<std::uint32_t>& counts) {
  const std::span<const geom::Vec3> points = index.points();
  const std::size_t k = eps_columns.size();
  if (k == 1) {
    return rt::parallel_launch(
        order.size(), threads, [&](rt::TraversalStats& stats, std::size_t q) {
          const std::uint32_t i = order[q];
          counts[i] =
              index.query_count(points[i], eps_columns[0], i, stats, cap);
        });
  }
  return rt::parallel_launch(
      order.size(), threads, [&](rt::TraversalStats& stats, std::size_t q) {
        const std::uint32_t i = order[q];
        std::uint32_t* const row = counts.data() + i * k;
        index.query_sphere(
            points[i], eps_columns[k - 1], i,
            [&](std::uint32_t j) {
              const float d2 = geom::distance_squared(points[i], points[j]);
              for (std::size_t u = 0; u < k; ++u) {
                if (d2 <= eps_columns[u] * eps_columns[u]) ++row[u];
              }
            },
            stats);
      });
}

/// First cell at or after `from` whose key (`key_at(b)`, ascending over
/// [0, size)) is >= `key`: a galloping search, since a stencil row's cursor
/// only moves forward.
template <typename KeyAt>
std::size_t seek(const KeyAt& key_at, std::size_t size, std::size_t from,
                 std::uint64_t key) {
  if (from >= size || key_at(from) >= key) return from;
  std::size_t lo = from;  // key_at(lo) < key
  std::size_t step = 1;
  while (lo + step < size && key_at(lo + step) < key) {
    lo += step;
    step *= 2;
  }
  std::size_t hi = std::min(size, lo + step);  // size, or key_at(hi) >= key
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (key_at(mid) < key) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

/// Members' coordinates in cell CSR order, one array per axis: the
/// candidate loops then vectorize without shuffles (about 3x faster per
/// distance test than reading Vec3s).
struct SortedCoords {
  std::vector<float> x, y, z;

  explicit SortedCoords(std::size_t n) : x(n), y(n), z(n) {}
  [[nodiscard]] geom::Vec3 operator[](std::size_t r) const {
    return {x[r], y[r], z[r]};
  }
};

/// Sorted positions per task of the cell walks (cell_phase1's count,
/// cell_graph_phase2's merge): a giant cell spreads over many tasks, and a
/// task's counters stay on a few cache lines.
constexpr std::size_t kCountBlock = 128;
/// Candidate cells at least this large get a member-to-box test before the
/// member × candidates loop.
constexpr std::uint32_t kRefineMembers = 16;
/// Candidates whose d² the multi-column loop holds at once.
constexpr std::uint32_t kDistanceChunk = 64;
/// Stencil reach in cells: ceil(ε / edge) for edge ε/√2 or ε/√3.
constexpr std::int64_t kReach = 2;
/// Stencil rows (dz, dy) per cell; each is a contiguous run of cells.
constexpr std::size_t kRows = (2 * kReach + 1) * (2 * kReach + 1);

/// The counting pass of cell_phase1 over a cell CSR: `sorted` holds the
/// members' coordinates, `box` and `key` one entry per cell.
/// kOne specializes the single-column case; with k columns each task keeps
/// k + 1 difference counters per position (column k absorbs range ends):
/// adding v to columns [s, e) adds v at s and subtracts it at e, and the
/// final counts are prefix sums over the columns.
template <bool kOne>
rt::LaunchStats count_cells(const CellLayout& layout,
                            std::span<const float> eps2,
                            const EpsCells& cells,
                            const SortedCoords& sorted,
                            std::span<const geom::Aabb> box,
                            std::span<const std::uint64_t> key, int threads,
                            std::vector<std::uint32_t>& counts) {
  const std::size_t k = eps2.size();
  const std::size_t width = k + 1;
  const float e2_max = eps2[k - 1];
  const std::vector<std::uint32_t>& starts = cells.starts;
  const std::size_t n_cells = cells.count();
  const std::size_t m = cells.ids.size();
  const std::uint64_t mask_x = (std::uint64_t{1} << layout.bx) - 1;
  const std::uint64_t mask_y = (std::uint64_t{1} << layout.by) - 1;
  const std::size_t n_tasks = (m + kCountBlock - 1) / kCountBlock;

  return rt::parallel_launch(n_tasks, threads, [&](rt::TraversalStats& stats,
                                                   std::size_t task) {
    const std::size_t p0 = task * kCountBlock;
    const std::size_t p1 = std::min(m, p0 + kCountBlock);
    std::array<std::uint32_t, kCountBlock> one{};
    std::vector<std::uint32_t> many;
    if constexpr (!kOne) many.assign((p1 - p0) * width, 0);
    std::array<std::size_t, kRows> cursor{};

    // Cells of the block in key order; each stencil row's range only moves
    // forward, so its cursor gallops from where the last cell left it.
    std::size_t c = static_cast<std::size_t>(
        std::upper_bound(starts.begin(), starts.end(),
                         static_cast<std::uint32_t>(p0)) -
        starts.begin() - 1);
    for (; c < n_cells && starts[c] < p1; ++c) {
      const std::size_t f0 = std::max<std::size_t>(starts[c], p0);
      const std::size_t f1 = std::min<std::size_t>(starts[c + 1], p1);
      if (f0 == starts[c]) ++stats.rays;
      const std::uint64_t kc = key[c];
      const auto cx = static_cast<std::int64_t>(kc & mask_x);
      const auto cy = static_cast<std::int64_t>((kc >> layout.bx) & mask_y);
      const auto cz = static_cast<std::int64_t>(kc >> (layout.bx + layout.by));
      const std::int64_t x0 = std::max<std::int64_t>(cx - kReach, 0);
      const std::int64_t x1 = std::min(cx + kReach, layout.max_x);

      for (std::int64_t dz = -kReach; dz <= kReach; ++dz) {
        const std::int64_t z = cz + dz;
        if (z < 0 || z > layout.max_z) continue;
        for (std::int64_t dy = -kReach; dy <= kReach; ++dy) {
          const std::int64_t y = cy + dy;
          if (y < 0 || y > layout.max_y) continue;
          std::size_t& cur =
              cursor[static_cast<std::size_t>((dz + kReach) *
                                                  (2 * kReach + 1) +
                                              dy + kReach)];
          cur = seek([&](std::size_t b) { return key[b]; }, n_cells, cur,
                     layout.key(x0, y, z));
          const std::uint64_t last = layout.key(x1, y, z);
          for (std::size_t b = cur; b < n_cells && key[b] <= last; ++b) {
            ++stats.aabb_tests;
            const float lo2 = geom::min_distance_squared(box[c], box[b]);
            if (lo2 > e2_max) continue;
            const float hi2 = geom::max_distance_squared(box[c], box[b]);
            const std::uint32_t self = b == c ? 1 : 0;
            const std::uint32_t size_b = starts[b + 1] - starts[b];
            const std::uint32_t credit = size_b - self;
            const float* const cand_x = sorted.x.data() + starts[b];
            const float* const cand_y = sorted.y.data() + starts[b];
            const float* const cand_z = sorted.z.data() + starts[b];

            if constexpr (kOne) {
              if (hi2 <= e2_max) {
                for (std::size_t a = f0; a < f1; ++a) one[a - p0] += credit;
                continue;
              }
              for (std::size_t a = f0; a < f1; ++a) {
                const geom::Vec3 pa = sorted[a];
                if (size_b >= kRefineMembers) {
                  ++stats.aabb_tests;
                  if (geom::min_distance_squared(pa, box[b]) > e2_max) {
                    continue;
                  }
                  if (geom::max_distance_squared(pa, box[b]) <= e2_max) {
                    one[a - p0] += credit;
                    continue;
                  }
                }
                std::uint32_t within = 0;
                for (std::uint32_t q = 0; q < size_b; ++q) {
                  within += geom::distance_squared(
                                pa, geom::Vec3{cand_x[q], cand_y[q], cand_z[q]}) <=
                            e2_max;
                }
                stats.isect_calls += size_b;
                // The self pair (d² = 0) always counted once.
                one[a - p0] += within - self;
              }
            } else {
              // Columns below lo are out for every pair, columns from hi
              // on are in for every pair; [lo, hi) is decided per pair.
              std::size_t lo = 0;
              while (eps2[lo] < lo2) ++lo;
              std::size_t hi = lo;
              while (hi < k && eps2[hi] < hi2) ++hi;
              for (std::size_t a = f0; a < f1; ++a) {
                many[(a - p0) * width + hi] += credit;
              }
              if (lo == hi) continue;
              for (std::size_t a = f0; a < f1; ++a) {
                std::uint32_t* const acc = many.data() + (a - p0) * width;
                const geom::Vec3 pa = sorted[a];
                std::size_t lo_a = lo;
                std::size_t hi_a = hi;
                if (size_b >= kRefineMembers) {
                  ++stats.aabb_tests;
                  const float d_lo = geom::min_distance_squared(pa, box[b]);
                  while (lo_a < hi && eps2[lo_a] < d_lo) ++lo_a;
                  const float d_hi = geom::max_distance_squared(pa, box[b]);
                  hi_a = lo_a;
                  while (hi_a < hi && eps2[hi_a] < d_hi) ++hi_a;
                  // [hi_a, hi) is in for every candidate of this member.
                  acc[hi_a] += credit;
                  acc[hi] -= credit;
                  if (lo_a == hi_a) continue;
                }
                // d² once per pair, then one count per undecided column.
                std::array<float, kDistanceChunk> d2;
                for (std::uint32_t q0 = 0; q0 < size_b; q0 += kDistanceChunk) {
                  const std::uint32_t len = std::min<std::uint32_t>(
                      kDistanceChunk, size_b - q0);
                  for (std::uint32_t q = 0; q < len; ++q) {
                    const std::uint32_t j = q0 + q;
                    d2[q] = geom::distance_squared(
                        pa, geom::Vec3{cand_x[j], cand_y[j], cand_z[j]});
                  }
                  for (std::size_t u = lo_a; u < hi_a; ++u) {
                    std::uint32_t within = 0;
                    for (std::uint32_t q = 0; q < len; ++q) {
                      within += d2[q] <= eps2[u];
                    }
                    acc[u] += within;
                    acc[u + 1] -= within;
                  }
                }
                stats.isect_calls += size_b;
                // The self pair (d² = 0) counted once in every column.
                acc[lo_a] -= self;
                acc[hi_a] += self;
              }
            }
          }
        }
      }
    }

    // Each task owns its positions' slots: plain stores.
    const std::span<const std::uint32_t> ids = cells.ids;
    for (std::size_t a = p0; a < p1; ++a) {
      if constexpr (kOne) {
        counts[ids[a]] = one[a - p0];
      } else {
        std::uint32_t run = 0;
        for (std::size_t u = 0; u < k; ++u) {
          run += many[(a - p0) * width + u];
          counts[ids[a] * k + u] = run;
        }
      }
    }
  });
}

/// cell_graph_phase2's per-cell first-core position for a cell with no
/// core member.
constexpr std::uint32_t kNoCore = ~std::uint32_t{0};

/// The merge walk of cell_graph_phase2 over a cell CSR whose keys
/// `key_at(c)` returns (ascending).  `first_core[c]` is the sorted position
/// of cell c's first core member, kNoCore when it has none.  Tasks are
/// blocks of sorted positions, as in count_cells: the task holding a
/// cell's first position merges its cores, and every task attaches the
/// non-core members at its own positions.
template <typename KeyAt>
rt::LaunchStats walk_cells(const CellLayout& layout, float eps2,
                           std::span<const geom::Vec3> points,
                           const EpsCells& cells,
                           std::span<const std::uint32_t> first_core,
                           std::span<const std::uint8_t> is_core,
                           dsu::AtomicDisjointSet& dsu, const KeyAt& key_at,
                           int threads) {
  const std::span<const std::uint32_t> ids = cells.ids;
  const std::span<const std::uint32_t> starts = cells.starts;
  const std::span<const geom::Aabb> box = cells.box;
  const std::size_t n_cells = cells.count();
  const std::size_t m = ids.size();
  const std::uint64_t mask_x = (std::uint64_t{1} << layout.bx) - 1;
  const std::uint64_t mask_y = (std::uint64_t{1} << layout.by) - 1;
  const std::size_t n_tasks = (m + kCountBlock - 1) / kCountBlock;

  return rt::parallel_launch(n_tasks, threads, [&](rt::TraversalStats& stats,
                                                   std::size_t task) {
    const std::size_t p0 = task * kCountBlock;
    const std::size_t p1 = std::min(m, p0 + kCountBlock);
    std::array<std::size_t, kRows> cursor{};
    // The current cell's stencil: cells [lo[r], hi[r]) of each non-empty
    // row, in stencil order.
    std::array<std::size_t, kRows> lo{};
    std::array<std::size_t, kRows> hi{};
    std::size_t rows = 0;
    const auto load_stencil = [&](std::size_t c) {
      const std::uint64_t kc = key_at(c);
      const auto cx = static_cast<std::int64_t>(kc & mask_x);
      const auto cy = static_cast<std::int64_t>((kc >> layout.bx) & mask_y);
      const auto cz = static_cast<std::int64_t>(kc >> (layout.bx + layout.by));
      const std::int64_t x0 = std::max<std::int64_t>(cx - kReach, 0);
      const std::int64_t x1 = std::min(cx + kReach, layout.max_x);
      rows = 0;
      for (std::int64_t dz = -kReach; dz <= kReach; ++dz) {
        const std::int64_t z = cz + dz;
        if (z < 0 || z > layout.max_z) continue;
        for (std::int64_t dy = -kReach; dy <= kReach; ++dy) {
          const std::int64_t y = cy + dy;
          if (y < 0 || y > layout.max_y) continue;
          std::size_t& cur =
              cursor[static_cast<std::size_t>((dz + kReach) *
                                                  (2 * kReach + 1) +
                                              dy + kReach)];
          cur = seek(key_at, n_cells, cur, layout.key(x0, y, z));
          const std::uint64_t last = layout.key(x1, y, z);
          std::size_t end = cur;
          while (end < n_cells && key_at(end) <= last) ++end;
          if (end == cur) continue;
          lo[rows] = cur;
          hi[rows] = end;
          ++rows;
        }
      }
    };
    // f(core slot) over cell b's cores in member order, until f is true.
    const auto any_core = [&](std::size_t b, auto&& f) {
      for (std::uint32_t q = first_core[b]; q < starts[b + 1]; ++q) {
        if (is_core[ids[q]] && f(ids[q])) return true;
      }
      return false;
    };
    const auto close = [&](const geom::Vec3& p, std::uint32_t q) {
      ++stats.isect_calls;
      return geom::distance_squared(p, points[q]) <= eps2;
    };

    // Cell c's cores: one component when c is a clique, else pairwise.
    const auto merge_own = [&](std::size_t c, bool clique) {
      const std::uint32_t rep = ids[first_core[c]];
      (void)any_core(c, [&](std::uint32_t a) {
        if (clique) {
          dsu.unite(rep, a);
          return false;
        }
        (void)any_core(c, [&](std::uint32_t q) {
          if (q != a && close(points[a], q)) dsu.unite(a, q);
          return false;
        });
        return false;
      });
    };
    // Cells c and b, both holding cores: unite every ε-close core pair —
    // through the first one found when both are cliques (each side's cores
    // are then one component already).
    const auto merge_pair = [&](std::size_t c, bool clique_c,
                                std::size_t b) {
      ++stats.aabb_tests;
      if (geom::min_distance_squared(box[c], box[b]) > eps2) return;
      const bool first_hit = clique_c && is_clique(box[b], eps2);
      const std::uint32_t rep_b = ids[first_core[b]];
      if (first_hit) {
        const std::uint32_t rep_c = ids[first_core[c]];
        if (geom::max_distance_squared(box[c], box[b]) <= eps2) {
          dsu.unite(rep_c, rep_b);
          return;
        }
        if (dsu.find(rep_c) == dsu.find(rep_b)) return;
      }
      const bool refine = starts[b + 1] - starts[b] >= kRefineMembers;
      (void)any_core(c, [&](std::uint32_t a) {
        const geom::Vec3& pa = points[a];
        if (refine) {
          ++stats.aabb_tests;
          if (geom::min_distance_squared(pa, box[b]) > eps2) return false;
          if (first_hit && geom::max_distance_squared(pa, box[b]) <= eps2) {
            dsu.unite(a, rep_b);
            return true;
          }
        }
        return any_core(b, [&](std::uint32_t q) {
          if (!close(pa, q)) return false;
          dsu.unite(a, q);
          return first_hit;
        });
      });
    };
    // Non-core p of cell c joins the first core within ε: c's own cores
    // first, then the stencil's cells in order.  Only this task ever
    // attaches p, so no claim is needed.
    const auto attach = [&](std::uint32_t p, std::size_t c, bool clique) {
      const geom::Vec3& pp = points[p];
      const auto join = [&](std::uint32_t q) {
        if (!close(pp, q)) return false;
        dsu.unite(q, p);
        return true;
      };
      if (first_core[c] != kNoCore) {
        if (clique) {
          dsu.unite(ids[first_core[c]], p);
          return;
        }
        if (any_core(c, join)) return;
      }
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t b = lo[r]; b < hi[r]; ++b) {
          if (b == c || first_core[b] == kNoCore) continue;
          ++stats.aabb_tests;
          if (geom::min_distance_squared(pp, box[b]) > eps2) continue;
          if (geom::max_distance_squared(pp, box[b]) <= eps2) {
            dsu.unite(ids[first_core[b]], p);
            return;
          }
          if (any_core(b, join)) return;
        }
      }
    };

    std::size_t c = static_cast<std::size_t>(
        std::upper_bound(starts.begin(), starts.end(),
                         static_cast<std::uint32_t>(p0)) -
        starts.begin() - 1);
    for (; c < n_cells && starts[c] < p1; ++c) {
      const std::size_t f0 = std::max<std::size_t>(starts[c], p0);
      const std::size_t f1 = std::min<std::size_t>(starts[c + 1], p1);
      const bool owner = f0 == starts[c];
      const bool has_core = first_core[c] != kNoCore;
      const bool clique = is_clique(box[c], eps2);
      bool borders = false;
      for (std::size_t a = f0; a < f1 && !borders; ++a) {
        borders = is_core[ids[a]] == 0;
      }
      if (owner) ++stats.rays;
      const bool merges = owner && has_core;
      // Borders of a clique holding a core join that core: no stencil.
      if (merges || (borders && !(has_core && clique))) load_stencil(c);
      if (merges) {
        merge_own(c, clique);
        for (std::size_t r = 0; r < rows; ++r) {
          for (std::size_t b = std::max(lo[r], c + 1); b < hi[r]; ++b) {
            if (first_core[b] != kNoCore) merge_pair(c, clique, b);
          }
        }
      }
      for (std::size_t a = f0; a < f1 && borders; ++a) {
        if (!is_core[ids[a]]) attach(ids[a], c, clique);
      }
    }
  });
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
  // One query per ORDER entry, not per slot: a live session passes an order
  // that skips tombstoned slots, whose counts stay 0 from this assign.
  counts.assign(index.size(), 0);
  // Counting to minPts-1 (excluding self) is enough to decide the core
  // test `count + 1 >= minPts`; backends that cannot terminate traversal
  // (the RT pipeline) ignore the cap and return exact counts.
  const std::uint32_t cap =
      early_exit ? params.min_pts - 1 : index::kNoCap;
  // Before the launch: a throw from inside the parallel region would
  // terminate, so faults inject at the serial boundary only.  The span
  // wraps the launch from outside for the same reason.
  RTD_TRACE_SPAN("engine.phase1");
  telemetry::count(telemetry::Counter::kEnginePhase1Launches);
  RTD_FAILPOINT("engine.phase1");
  const float eps[] = {params.eps};
  return point_counts(index, eps, order, threads, cap, counts);
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
  const CellLayout layout(points, eps, order);
  if (!layout.fits) return;  // per-point phase 2 instead

  const float eps2 = eps * eps;
  const std::size_t n_cells = sort_cells(
      points, layout, order, threads, cells.ids, keys, swap,
      [&](std::span<const std::uint32_t> run) {
        return is_clique(points, eps2, run);
      });
  // Callers keep the CSR resident: trim it to what is kept.
  cells.ids.shrink_to_fit();
  if (n_cells > 0) {
    cells.starts.assign(
        swap.begin(),
        swap.begin() + static_cast<std::ptrdiff_t>(n_cells) + 1);
  }
}

void sort_eps_cells(std::span<const geom::Vec3> points, float eps,
                    std::span<const std::uint32_t> order, int threads,
                    EpsCells& cells, std::vector<std::uint32_t>& keys,
                    std::vector<std::uint32_t>& swap) {
  RTD_FAILPOINT("engine.cells");
  cells.eps = eps;
  cells.ids.clear();
  cells.starts.clear();
  cells.box.clear();
  if (order.empty()) return;
  const CellLayout layout(points, eps, order);
  if (!layout.fits) return;  // per-point phase 2 instead

  const std::size_t n_cells =
      sort_cells(points, layout, order, threads, cells.ids, keys, swap,
                 [](std::span<const std::uint32_t>) { return true; });
  cells.starts.assign(
      swap.begin(), swap.begin() + static_cast<std::ptrdiff_t>(n_cells) + 1);
  cells.box.resize(n_cells);
  rt::parallel_launch(n_cells, threads,
                      [&](rt::TraversalStats&, std::size_t c) {
                        geom::Aabb tight;
                        for (const std::uint32_t m : cells.members(c)) {
                          tight.grow(points[m]);
                        }
                        cells.box[c] = tight;
                      });
}

rt::LaunchStats cell_phase1(std::span<const geom::Vec3> points,
                            std::span<const float> eps_columns,
                            std::span<const std::uint32_t> order, int threads,
                            FallbackIndex fallback,
                            std::vector<std::uint32_t>& counts,
                            EpsCells* sorted) {
  const std::size_t k = eps_columns.size();
  if (k == 0 || std::adjacent_find(eps_columns.begin(), eps_columns.end(),
                                   std::greater_equal<>()) !=
                    eps_columns.end()) {
    throw std::invalid_argument(
        "cell_phase1: eps columns must be non-empty and strictly ascending");
  }
  const std::size_t n = points.size();
  // Serial boundary, as in index_phase1: nothing is touched before it.
  RTD_TRACE_SPAN("engine.phase1");
  telemetry::count(telemetry::Counter::kEnginePhase1Launches);
  RTD_FAILPOINT("engine.phase1");
  // Handing the cells over fills the caller's grouping cache.
  if (sorted != nullptr && k == 1) RTD_FAILPOINT("engine.cells");

  const Timer timer;
  EpsCells local;
  EpsCells& cells = sorted != nullptr && k == 1 ? *sorted : local;
  cells.eps = eps_columns[k - 1];
  cells.ids.clear();
  cells.starts.clear();
  cells.box.clear();
  counts.resize(n * k);
  const CellLayout layout(points, cells.eps, order);
  if (!layout.fits) {
    std::fill(counts.begin(), counts.end(), 0u);
    return point_counts(fallback(), eps_columns, order, threads,
                        index::kNoCap, counts);
  }

  // Every occupied cell, sorted; the counts buffer lends the sort its key
  // scratch and the starts grow in place of the sort's ping-pong buffer.
  std::vector<std::uint32_t> starts;
  const std::size_t n_cells =
      sort_cells(points, layout, order, threads, cells.ids, counts, starts,
                 [](std::span<const std::uint32_t>) { return true; });
  starts.resize(n_cells + 1);
  starts.shrink_to_fit();  // before the per-cell arrays: a lower peak
  cells.starts = std::move(starts);

  // Per cell: its key and tight bounds, and the members' coordinates in
  // CSR order, so candidate loops read contiguous memory.
  std::vector<std::uint64_t> key(n_cells);
  std::vector<geom::Aabb>& box = cells.box;
  box.resize(n_cells);
  SortedCoords coords(cells.ids.size());
  rt::parallel_launch(n_cells, threads,
                      [&](rt::TraversalStats&, std::size_t c) {
                        geom::Aabb tight;
                        for (std::uint32_t r = cells.starts[c];
                             r < cells.starts[c + 1]; ++r) {
                          const geom::Vec3& p = points[cells.ids[r]];
                          coords.x[r] = p.x;
                          coords.y[r] = p.y;
                          coords.z[r] = p.z;
                          tight.grow(p);
                        }
                        box[c] = tight;
                        key[c] = layout.key_of(coords[cells.starts[c]]);
                      });

  std::fill(counts.begin(), counts.end(), 0u);
  std::vector<float> eps2(k);
  for (std::size_t u = 0; u < k; ++u) {
    eps2[u] = eps_columns[u] * eps_columns[u];
  }
  rt::LaunchStats launch =
      k == 1 ? count_cells<true>(layout, eps2, cells, coords, box, key,
                                 threads, counts)
             : count_cells<false>(layout, eps2, cells, coords, box, key,
                                  threads, counts);
  launch.seconds = timer.seconds();
  return launch;
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

rt::LaunchStats cell_graph_phase2(std::span<const geom::Vec3> points,
                                  const EpsCells& cells,
                                  std::span<const std::uint8_t> is_core,
                                  dsu::AtomicDisjointSet& dsu, int threads,
                                  std::vector<std::uint32_t>& keys,
                                  std::vector<std::uint32_t>& cores) {
  const std::size_t n_cells = cells.count();
  if (cells.box.size() != n_cells) {
    throw std::invalid_argument(
        "cell_graph_phase2: cells carry no tight bounds (sort_eps_cells)");
  }
  // Serial boundary, as in cell_phase2: nothing is touched before it.
  RTD_TRACE_SPAN("engine.phase2");
  telemetry::count(telemetry::Counter::kEnginePhase2Launches);
  RTD_FAILPOINT("engine.phase2");

  const Timer timer;
  rt::LaunchStats launch;
  if (n_cells > 0) {
    // The cells were sorted over these bounds, so this is their layout.
    geom::Aabb bounds;
    for (const geom::Aabb& b : cells.box) bounds.grow(b);
    const CellLayout layout(bounds, cells.eps);
    // A cell's key is its low corner's: every member shares its coords.
    const bool narrow = layout.key_bits() <= 32;
    if (cores.size() < n_cells) cores.resize(n_cells);
    if (narrow && keys.size() < n_cells) keys.resize(n_cells);
    rt::parallel_launch(
        n_cells, threads, [&](rt::TraversalStats&, std::size_t c) {
          std::uint32_t a = cells.starts[c];
          while (a < cells.starts[c + 1] && !is_core[cells.ids[a]]) ++a;
          cores[c] = a < cells.starts[c + 1] ? a : kNoCore;
          if (narrow) {
            keys[c] =
                static_cast<std::uint32_t>(layout.key_of(cells.box[c].lo));
          }
        });
    const float eps2 = cells.eps * cells.eps;
    launch = narrow
                 ? walk_cells(
                       layout, eps2, points, cells, cores, is_core, dsu,
                       [&](std::size_t c) -> std::uint64_t { return keys[c]; },
                       threads)
                 : walk_cells(
                       layout, eps2, points, cells, cores, is_core, dsu,
                       [&](std::size_t c) {
                         return layout.key_of(cells.box[c].lo);
                       },
                       threads);
  }
  launch.seconds = timer.seconds();
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
