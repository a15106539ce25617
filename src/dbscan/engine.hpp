// The unified DBSCAN engine: two-phase union-find clustering over ANY
// NeighborIndex backend.
//
// This is the paper's Algorithm 3 with the neighbor queries abstracted out:
//   Phase 1 (core identification): one index query per point counts its
//     ε-neighbors; points with >= minPts neighbors (self included) are core.
//   Phase 2 (cluster formation): one query per core point re-discovers its
//     neighbors (no neighbor lists stored — O(n) memory, §III-D) and merges
//     clusters in a concurrent DisjointSet; border points are claimed
//     atomically so each joins exactly one cluster.
//
// RT-DBSCAN (core/rt_dbscan.cpp) is this engine over BvhRtIndex, or over
// TriangleIndex in the §VI-C triangle geometry; FDBSCAN
// (dbscan/fdbscan.cpp) is this engine over PointBvhIndex.  Swapping the
// index swaps the query substrate without touching the clustering logic,
// which is what makes backend comparisons honest.
//
// Cell-aware phase 2 (FDBSCAN-DenseBox's trick, Prokopenko et al.): the
// points are grouped by an ε-cell grid (index::EpsCellGrid — cell diagonal
// ε, so cell-mates are pairwise neighbors).  A cell whose members are all
// core is one component: it is pre-unioned and merged with its surroundings
// by ONE inflated-box query instead of |cell| per-point queries.  With no
// cells, cell_phase2 is exactly the per-point phase 2 above.
// fdbscan_densebox runs phase 2 this way; cluster_with_index, rt_dbscan()
// and fdbscan() keep the paper's per-point Algorithm 3 (one ray per core
// point).
//
// Cell-batched phases (grid-cell counting and cell-graph connectivity, Gan
// & Tao SIGMOD'15; Wang, Gu & Shun SIGMOD'20): cell_phase1 sorts the points
// into the same ε-cells once and counts each cell against its neighbor
// cells, crediting whole cells that box distances prove in range — exact
// counts, identical to index_phase1's.  cell_graph_phase2 walks the same
// sorted cells: it unites each pair of neighboring cells through their
// first ε-close core pair and attaches every border point to its first
// core within ε, with no index query, no atomic claim, and a result that
// does not depend on the thread count.  Every full recount of a session
// (run, the heal re-cluster, the shared counting pass of sweep) uses
// cell_phase1, and every session phase 2 uses cell_graph_phase2 — run()
// hands phase 1's sorted cells over; reruns reuse them; after mutations
// and per sweep entry sort_eps_cells sorts anew.  Neither takes an index:
// the session's batch calls build none.  The one-shots (early-exit
// counting included), fdbscan_densebox, the insert/remove count
// maintenance and a grid beyond the cell-key range keep per-point queries.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "common/function_ref.hpp"
#include "dbscan/core.hpp"
#include "dsu/atomic_disjoint_set.hpp"
#include "geom/aabb.hpp"
#include "index/neighbor_index.hpp"

namespace rtd::dbscan {

/// Engine knobs shared by every backend.
struct IndexEngineOptions {
  /// Stop phase-1 counting at minPts (FDBSCAN §VI-B).  Honored by backends
  /// whose traversal can terminate; the RT backend ignores it (OptiX).
  bool early_exit = false;
  /// Launch queries in Morton (Z-curve) order of the points instead of
  /// input order (the RTNN ray-coherence optimization).  Results are
  /// unaffected; only scheduling changes.
  bool reorder_queries = false;
  /// Thread count; 0 = all hardware threads.
  int threads = 0;
};

/// Result of one engine run over an index.
struct IndexEngineResult {
  Clustering clustering;
  rt::LaunchStats phase1;  ///< core-identification launch
  rt::LaunchStats phase2;  ///< cluster-formation launch
  /// Neighbor counts per point, excluding self.  Exact without early_exit;
  /// capped at minPts-1 with it.
  std::vector<std::uint32_t> neighbor_counts;
};

/// Query launch order: identity, or Morton order of the points.
[[nodiscard]] std::vector<std::uint32_t> query_launch_order(
    std::span<const geom::Vec3> points, bool morton);

/// Phase 1 over any index: per-point ε-neighbor counts (excluding self)
/// into `counts`, queried in `order`.
rt::LaunchStats index_phase1(const index::NeighborIndex& index,
                             const Params& params,
                             std::span<const std::uint32_t> order,
                             bool early_exit, int threads,
                             std::vector<std::uint32_t>& counts);

/// Incremental phase-1 maintenance for a REMOVAL batch: for every id in
/// `removed`, one ε-query discovers its neighbors and decrements their
/// counts.  Must run while the removed ids are still LIVE in the index
/// (before try_remove) so the queries still resolve; decrements landing on
/// other members of the same batch are moot — the caller zeroes the counts
/// of every removed id afterwards.  Runs serially: batches are small by
/// design (the session's rebuild threshold bounds them) and the decrements
/// would otherwise race.
///
/// The discovered neighborhoods are also captured into the CSR pair
/// (`nbr_ids`, `nbr_starts`) — `nbr_starts[k]..nbr_starts[k+1]` spans
/// `removed[k]`'s neighbors — because the label-repair stage needs exactly
/// these lists (cut-adjacent cores and orphaned borders) and capturing
/// them here costs no extra queries.  Lists may contain other members of
/// the same batch; consumers filter by liveness.
///
/// Exception safety: the queries all run (and may throw) BEFORE any count
/// is touched; the decrements are a noexcept epilogue over the captured
/// CSR.  A throw leaves `counts` exactly as it was.
rt::LaunchStats index_phase1_remove(const index::NeighborIndex& index,
                                    float eps,
                                    std::span<const std::uint32_t> removed,
                                    std::vector<std::uint32_t>& counts,
                                    std::vector<std::uint32_t>& nbr_ids,
                                    std::vector<std::uint32_t>& nbr_starts);

/// Incremental phase-1 maintenance for an INSERT batch: for every new id in
/// [first_new, index.size()), one ε-query sets its own count and increments
/// each PRE-EXISTING neighbor's count (new-new pairs are covered by each
/// new point's own query).  Must run after the index absorbed the batch.
/// `counts` is grown to index.size().  Serial, like index_phase1_remove.
///
/// Like the removal twin, neighborhoods are captured first into the caller's
/// CSR scratch (`nbr_ids`, `nbr_starts` — row k spans the neighbors of id
/// first_new + k) and applied in a noexcept epilogue, so a throw during the
/// queries (or the `counts` growth, which happens pre-apply) leaves the
/// pre-existing entries of `counts` untouched.
rt::LaunchStats index_phase1_insert(const index::NeighborIndex& index,
                                    float eps, std::size_t first_new,
                                    std::vector<std::uint32_t>& counts,
                                    std::vector<std::uint32_t>& nbr_ids,
                                    std::vector<std::uint32_t>& nbr_starts);

/// ε-cell grouping: the slots of a launch order binned by the
/// index::EpsCellGrid of ε over those slots' bounds, as a CSR in cell-key
/// order.  group_eps_cells keeps only the cells that can be pre-unioned:
/// two or more members whose TIGHT bounds have a diagonal within ε (a
/// float-rounding guard at cell faces — every kept cell is a certified
/// clique of ε-neighbors).  sort_eps_cells (and cell_phase1's handover)
/// keep every occupied cell, with its tight bounds in `box`.  Either is a
/// function of (points, ε, the slots grouped) only, so callers may cache it
/// across min_pts values.
struct EpsCells {
  float eps = 0.0f;                   ///< the grid's ε (0: never grouped)
  std::vector<std::uint32_t> ids;     ///< member slot ids, cell by cell
  std::vector<std::uint32_t> starts;  ///< cell c: ids[starts[c], starts[c+1])
  std::vector<geom::Aabb> box;        ///< tight bounds per cell (all-cell CSR)

  [[nodiscard]] std::size_t count() const {
    return starts.empty() ? 0 : starts.size() - 1;
  }
  [[nodiscard]] std::span<const std::uint32_t> members(std::size_t c) const {
    return std::span<const std::uint32_t>(ids).subspan(
        starts[c], starts[c + 1] - starts[c]);
  }
};

/// Group the slots of `order` (typically live-only) into `cells` at `eps`:
/// a parallel key pass, then a stable LSD radix sort of the slot ids by
/// cell key.  `keys` (one 4-byte key per slot) and `swap` (the sort's
/// ping-pong buffer) are caller-owned scratch, resized here, so a caller
/// can lend buffers that are idle at that point.  When the grid exceeds
/// the key range (EpsCellGrid::fits_key_range) `cells` comes back empty —
/// callers then run per-point phase 2 — and nothing throws for it.
/// `threads` = 0 uses all hardware threads.
void group_eps_cells(std::span<const geom::Vec3> points, float eps,
                     std::span<const std::uint32_t> order, int threads,
                     EpsCells& cells, std::vector<std::uint32_t>& keys,
                     std::vector<std::uint32_t>& swap);

/// Every occupied ε-cell of the slots of `order` into `cells` at `eps`,
/// each with its tight bounds: the CSR cell_graph_phase2 walks.  The same
/// sort as group_eps_cells, with the same borrowed `keys` / `swap` scratch,
/// and the same empty result beyond the key range (callers then run
/// per-point phase 2).  Fires the engine.cells failpoint before touching
/// `cells`.  `threads` = 0 uses all hardware threads.
void sort_eps_cells(std::span<const geom::Vec3> points, float eps,
                    std::span<const std::uint32_t> order, int threads,
                    EpsCells& cells, std::vector<std::uint32_t>& keys,
                    std::vector<std::uint32_t>& swap);

/// The index a per-point fallback queries, produced on demand.
using FallbackIndex = FunctionRef<const index::NeighborIndex&()>;

/// Exact cell-batched phase 1: per-slot ε-neighbor counts (excluding
/// self) for every column of `eps_columns` (strictly ascending; else
/// std::invalid_argument), point-major — counts[i * k + u] is slot i's
/// count at eps_columns[u] — and 0 for slots not in `order`.  Each column
/// equals index_phase1 at that ε without early exit, bit for bit.
///
/// The slots of `order` are sorted into the EpsCellGrid of the largest ε
/// (group_eps_cells' radix sort, keeping every occupied cell), and each
/// cell counts against the cells of its ±2 stencil: a cell pair whose box
/// distance is beyond ε² is skipped, one within ε² credits every member
/// with no tests, and the rest run a members × candidates loop of
/// geom::distance_squared(a, b) <= ε * ε — the backends' own predicate.
/// The box distances are bounds of that same float expression, so a box
/// decision never disagrees with it.  Work is split into blocks of sorted
/// positions (a giant cell spreads over many tasks) and every task writes
/// only its own positions' counts: no atomics, and the counts do not
/// depend on `threads`.
///
/// When the grid exceeds the key range (EpsCellGrid::fits_key_range) the
/// counts come from per-point queries instead, through the index
/// `fallback` returns — it must answer queries at the largest ε over
/// `points` — and nothing throws for it.  `fallback` is called only then,
/// so a caller with no index in hand builds one only for that case.  The
/// returned
/// stats count one ray per occupied cell, one aabb_test per box test and
/// one isect_call per distance predicate evaluated; the fallback's are
/// the per-point launch's (one ray per order entry).  Fires the
/// engine.phase1 failpoint, span and launch counter before any output is
/// touched.
///
/// With `sorted` non-null and a single column, the cells are left there
/// as sort_eps_cells would leave them (every occupied cell at ε, tight
/// bounds included), ready for cell_graph_phase2; empty after a fallback.
rt::LaunchStats cell_phase1(std::span<const geom::Vec3> points,
                            std::span<const float> eps_columns,
                            std::span<const std::uint32_t> order, int threads,
                            FallbackIndex fallback,
                            std::vector<std::uint32_t>& counts,
                            EpsCells* sorted = nullptr);

/// Cell-graph phase 2 over sort_eps_cells' CSR (std::invalid_argument when
/// `cells` has no tight bounds): unions in `dsu` connect every ε-close pair
/// of cores and attach every border point to one core within ε.  Per
/// occupied cell, walking the ±2 stencil with cell_phase1's cursors:
///   - the cell's cores are united, all at once when its tight-box diagonal
///     is within ε² (a certified clique), pairwise otherwise;
///   - each later stencil cell holding cores is skipped when the nearest
///     box distance is beyond ε², united when the farthest is within ε²,
///     skipped when both cells are cliques already in one set, and
///     otherwise united at the first ε-close core pair (every pair when
///     either cell is not a clique);
///   - each non-core member attaches to the first core within ε, its own
///     cell first, then the stencil in order.
/// Every decision uses geom::distance_squared(a, b) <= ε * ε or a box bound
/// of it, so the clustering is exact; each border point is attached by its
/// own cell's task only, so there is no claim race and the partition does
/// not depend on `threads`.  `keys` and `cores` are per-cell scratch,
/// grown to the cell count if smaller (callers lend idle buffers).  The
/// returned stats count one ray per occupied cell, one aabb_test per box
/// test and one isect_call per distance predicate; no tree is walked.
/// Fires the engine.phase2 failpoint, span and launch counter before any
/// output is touched.
rt::LaunchStats cell_graph_phase2(std::span<const geom::Vec3> points,
                                  const EpsCells& cells,
                                  std::span<const std::uint8_t> is_core,
                                  dsu::AtomicDisjointSet& dsu, int threads,
                                  std::vector<std::uint32_t>& keys,
                                  std::vector<std::uint32_t>& cores);

/// Phase 2 over any index: concurrent union-find merges initiated by core
/// points (Alg. 3 lines 7-18); border points claimed atomically through
/// `claimed`.  The paper's per-point form: cell_phase2 with no cells.
rt::LaunchStats index_phase2(const index::NeighborIndex& index, float eps,
                             std::span<const std::uint32_t> order,
                             std::span<const std::uint8_t> is_core,
                             dsu::AtomicDisjointSet& dsu,
                             std::span<std::atomic<std::uint8_t>> claimed,
                             int threads);

/// Cell-aware phase 2.  `cells` must come from group_eps_cells at a radius
/// no larger than `eps` (std::invalid_argument otherwise), over slots that
/// all appear in `order`.  Three steps:
///   (a) every cell whose members are all core is pre-unioned (it is one
///       component) and its members marked in `claimed`;
///   (b) one ε-query per core point OUTSIDE those cells, as in
///       index_phase2 — a core neighbor inside such a cell is always
///       united, because cell members never query;
///   (c) one query_box per all-core cell, its tight bounds padded by ε.  A
///       candidate is in range when its farthest distance to the bounds is
///       within ε, out of range when its nearest is beyond ε, and otherwise
///       by the first member within ε.  Border candidates are claimed by
///       CAS; core candidates in other all-core cells are united (per-point
///       cores already united themselves in (b)).
/// `claimed` must be zero on entry; on return a nonzero entry marks a
/// claimed border point or a member of a pre-unioned cell.  The returned
/// stats count one ray per per-point query plus one per box query.
rt::LaunchStats cell_phase2(const index::NeighborIndex& index, float eps,
                            std::span<const std::uint32_t> order,
                            const EpsCells& cells,
                            std::span<const std::uint8_t> is_core,
                            dsu::AtomicDisjointSet& dsu,
                            std::span<std::atomic<std::uint8_t>> claimed,
                            int threads);

/// Full run: phase 1, core flags, phase 2, label finalization.  Sets the
/// core/cluster phase timings and a total covering this call; the caller
/// owns index-build timing (it built the index) and overwrites the total
/// with a build-inclusive one where it reports timings.
IndexEngineResult cluster_with_index(const index::NeighborIndex& index,
                                     const Params& params,
                                     const IndexEngineOptions& options = {});

}  // namespace rtd::dbscan
