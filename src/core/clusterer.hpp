// rtd::Clusterer — the session-based public API.
//
// The paper's headline observation is that the neighbor-query substrate
// dominates DBSCAN's runtime, and its §VI-B workflow ("the user is expected
// to run DBSCAN multiple times with different parameter values") is exactly
// where that work can be amortized.  A Clusterer owns one dataset, its
// cached neighbor counts and ε-cells, and — once something queries it —
// one NeighborIndex, and reuses them across runs:
//
//   rtd::Clusterer session(points);              // or points + rtd::Options
//   rtd::ClusterResult a = session.run(/*eps=*/0.5f, /*min_pts=*/10);
//   rtd::ClusterResult b = session.run(0.5f, 20);  // phase 1 skipped
//   auto curve = session.sweep(eps_values, 10);  // per-eps results
//   auto snap = session.snapshot();  // first read: builds the index
//
//   (a and b are COPIES: run() returns a reference into session-owned
//   storage that the next run()/sweep() overwrites — copy results you
//   want to keep side by side, or bind a reference only to the latest.)
//
// Lifecycle per run(eps, min_pts):
//   * no index is built: phase 1 counts by ε-cell and phase 2 walks the
//     same cells (the first run resolves kAuto from the data and pins it
//     for the session's lifetime);
//   * a min_pts-only change reuses the cached neighbor counts and cells and
//     pays just the cluster-formation phase (§VI-B);
//   * the index is built by its first user: the first snapshot() or const
//     query (at the last clustering's ε), the eps-taking query_neighbors,
//     or the first mutation — and a grid beyond the cell-key range, whose
//     phases fall back to per-point queries;
//   * once it exists, an eps change REFITS it in place where the backend
//     supports it (NeighborIndex::try_set_eps: kBvhRt refits the sphere
//     scene — or, in triangle geometry, index::TriangleIndex rescales its
//     mesh — kPointBvh and kBruteForce are radius-agnostic) and rebuilds
//     only where it cannot (kGrid / kDenseBox re-bin their cells).
// Which of those paths a run took is recorded in ClusterResult::stats.
//
// run() returns a reference to session-owned storage: the result is valid
// until the next run()/sweep() or the session's destruction — copy it
// (ClusterResult is a regular value type) to keep it.  Warm run() calls
// reuse every internal buffer and perform no heap allocations, on every
// IndexKind and in triangle geometry (tests/test_query_alloc.cpp enforces
// this): a triangle session is the same session over index::TriangleIndex.
//
// Live sessions (streaming / incremental maintenance):
//   * insert(points) appends new points, remove(ids) tombstones existing
//     ones, advance(points, expire) does both in sliding-window form.  Each
//     mutation keeps the session's LAST clustering current incrementally:
//     the spatial index absorbs the batch where its contract allows
//     (delta-tail inserts and masked removals on the tree backends, with
//     amortized refits; grid/dense-box rebuild — they cannot absorb
//     inserts), neighbor counts are maintained with one ε-query per mutated
//     point, and labels are repaired by re-unioning only the affected
//     ε-neighborhoods through a miniature phase 2.  The repair is driven by
//     the touched set (mutated points and their ε-neighbors, the only slots
//     whose core flag can change) and patches labels and the membership
//     table by delta, so a step costs about the size of the mutation, not
//     of the session.  result() is the maintained clustering, identical (up
//     to border ambiguity) to a from-scratch run at the same parameters —
//     tests/test_incremental.cpp enforces parity after every mutation.
//   * Cluster ids: only the partition is contractual, but ids are kept
//     stable where the cluster set allows.  An old cluster keeps its id
//     (a split's residual component too) and new clusters take the next
//     free ids, except that: an emptied cluster's id passes to the
//     highest-numbered cluster, to keep ids dense; a cut of at least an
//     eighth of a cluster's members as lost cores re-mints that whole
//     cluster under new ids; and a mutation that merges two old clusters
//     renumbers every cluster (first seen in slot order) and is counted
//     by the session.repair_full_relabels telemetry counter.
//   * Ids are SLOT ids and stay stable across mutations: removed points
//     keep their slot, labeled kNoise with is_core 0 and neighbor count 0
//     (they also remain in the result's noise bucket — filter with
//     is_live()).  size() counts all slots; live_count() the survivors.
//   * Mutations are WRITER operations (same column as run() in the
//     thread-safety table).  Concurrent readers are never torn: a mutation
//     unpublishes the current snapshot and either mutates a structure no
//     snapshot aliases or swaps in a replacement; readers holding the old
//     snapshot keep the pre-mutation index AND the pre-mutation storage
//     alive (appends copy-on-write when a snapshot co-owns the buffer).
//
// The one-shot rtd::cluster() free function (core/api.hpp) is a thin
// wrapper over a throwaway session; existing callers are unaffected.
//
// Thread-safety contract (docs/ARCHITECTURE.md has the full table):
//   * run()/sweep()/take_result() and the eps-taking query_neighbors
//     overloads are WRITER operations — one thread at a time.
//   * snapshot(), the const query_neighbors overloads and query_batch are
//     READER operations: safe from any number of threads, concurrently
//     with each other AND with a writer retargeting ε.  They serve an
//     immutable IndexSnapshot published behind an atomic shared_ptr — the
//     steady-state read path is one atomic load, no locks.  The first
//     snapshot after a run builds the index under the publish lock, when
//     no writer call has; concurrent first readers wait for that one
//     build.
//   * The writer never mutates an index a snapshot aliases: retargeting ε
//     while snapshots exist builds a REPLACEMENT structure and drops the
//     session's reference; readers holding the old snapshot finish at the
//     old ε and the structure is reclaimed when the last one releases it
//     (shared_ptr-epoch reclamation).  Results are never torn.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/index_snapshot.hpp"
#include "core/kdist.hpp"
#include "core/rt_dbscan.hpp"
#include "core/rt_knn.hpp"
#include "dbscan/core.hpp"
#include "dsu/atomic_disjoint_set.hpp"
#include "index/neighbor_index.hpp"
#include "telemetry/telemetry.hpp"

namespace rtd {

/// Noise label in ClusterResult::labels.
inline constexpr std::int32_t kNoise = dbscan::kNoiseLabel;

/// Session configuration: a fluent builder consumed by rtd::Clusterer.
///
///   rtd::Options().with_backend(rtd::index::IndexKind::kBvhRt)
///                 .with_width(rtd::rt::TraversalWidth::kWide)
///                 .with_threads(4)
struct Options {
  /// Neighbor-index backend answering the ε-queries.  kAuto resolves from
  /// the data (index::choose_index_kind) at the first run and stays pinned
  /// for the session so sweep results are comparable across eps.
  index::IndexKind backend = index::IndexKind::kAuto;
  /// BVH traversal layout for the tree-backed backends (kBvhRt, kPointBvh,
  /// triangle geometry); kAuto applies the rt::kWideBvhMinPrims threshold.
  rt::TraversalWidth width = rt::TraversalWidth::kAuto;
  /// kSpheres is the paper's default pipeline; kTriangles (§VI-C) runs the
  /// tessellated configuration and requires backend kAuto or kBvhRt.
  core::GeometryMode geometry = core::GeometryMode::kSpheres;
  /// Icosphere subdivision level for kTriangles (20 * 4^s triangles/point).
  int triangle_subdivisions = 1;
  /// Thread count for the cell phases, index builds and query launches;
  /// 0 = all hardware threads.
  int threads = 0;
  /// Launch queries in Morton order of the points (RTNN ray coherence).
  bool reorder_queries = false;

  Options& with_backend(index::IndexKind k) { backend = k; return *this; }
  Options& with_width(rt::TraversalWidth w) { width = w; return *this; }
  Options& with_geometry(core::GeometryMode g) { geometry = g; return *this; }
  Options& with_triangle_subdivisions(int s) {
    triangle_subdivisions = s;
    return *this;
  }
  Options& with_threads(int t) { threads = t; return *this; }
  Options& with_reorder_queries(bool r) { reorder_queries = r; return *this; }
};

/// What one run() actually did and what it cost, per phase.
struct RunStats {
  /// The session's backend — the heuristic's concrete choice, not kAuto —
  /// whether or not this run queried an index.  Exception: an
  /// empty-dataset run reports kAuto, since nothing was resolved.
  index::IndexKind backend = index::IndexKind::kAuto;
  /// The traversal layout the serving index walks (kAuto resolved against
  /// the primitive count), read from the index when it exists and
  /// otherwise the layout its build will resolve to.  kBinary for the
  /// non-tree backends — grid, dense-box and brute force have no BVH walk.
  rt::TraversalWidth width = rt::TraversalWidth::kBinary;
  core::GeometryMode geometry = core::GeometryMode::kSpheres;
  /// This call built an index from scratch: the mutation that first
  /// builds it, an eps change that cannot refit the existing one (the
  /// backend's try_set_eps declines, or a snapshot aliases it), or a
  /// batch call's per-point fallback beyond the cell-key range.  A batch
  /// call otherwise builds none — both phases walk the ε-cells.
  bool index_rebuilt = false;
  /// This call refit an existing index in place (eps change on a
  /// refit-capable backend) — the cheap §VI-B path.  Not mutually
  /// exclusive with index_rebuilt: a sweep entry can both build a
  /// replacement at the ladder's ε_max and refit it to its own ε; treat
  /// index_rebuilt as the dominant label when both are set.
  bool index_refitted = false;
  /// Phase 1 was skipped: neighbor counts cached by an earlier run at this
  /// eps were reused (min_pts-only rerun).
  bool counts_reused = false;
  /// The result was updated IN PLACE by insert()/remove()/advance() instead
  /// of a full run: phase1/phase2 and the timings cover only the LAST
  /// mutation's maintenance work (per-mutated-point count queries and the
  /// localized label repair).  index_rebuilt reports whether that mutation
  /// crossed the rebuild threshold (or hit a backend that cannot absorb the
  /// batch) and rebuilt the index over the live set.
  bool incremental = false;
  /// Per-phase wall clock.  index_build_seconds is the build OR refit cost
  /// this call paid (0 when no index was touched).
  dbscan::PhaseTimings timings;
  /// Work counters of the two query launches (rays, node visits,
  /// Intersection calls) — zeroed for a phase that did not run.
  rt::LaunchStats phase1;
  rt::LaunchStats phase2;
};

/// Result of one clustering run.
///
/// A regular owning value type.  Clusterer::run() returns a const reference
/// to session-owned storage (copy to keep); sweep() and rtd::cluster()
/// return independent copies.
struct ClusterResult {
  /// Cluster id per point in [0, cluster_count), or kNoise.
  std::vector<std::int32_t> labels;
  /// Core flag per point (deterministic given eps/min_pts).
  std::vector<std::uint8_t> is_core;
  /// Number of clusters found; every id below it is used.
  std::uint32_t cluster_count = 0;
  /// Wall-clock seconds of the call that produced this result (index
  /// build/refit included when this call paid it).
  double seconds = 0.0;

  /// The parameters this result was computed for.
  float eps = 0.0f;
  std::uint32_t min_pts = 0;
  /// What the run did (refit vs rebuild, counts reuse, resolved backend and
  /// width) and what each phase cost.
  RunStats stats;
  /// ε-neighbor count per point, excluding self (exact).
  std::vector<std::uint32_t> neighbor_counts;

  /// Membership table: dataset indices grouped by cluster id (ascending
  /// index within each group), with the noise points as the final group.
  /// members_of()/noise() are views into it.
  std::vector<std::uint32_t> members;
  /// Group boundaries into `members`: cluster id c spans
  /// [member_starts[c], member_starts[c+1]); the noise group is bucket
  /// cluster_count.  Size cluster_count + 2 (empty result: {0, 0}).
  std::vector<std::uint32_t> member_starts;

  [[nodiscard]] std::size_t size() const { return labels.size(); }

  /// Dataset indices of cluster `id`, ascending; empty for out-of-range ids.
  [[nodiscard]] std::span<const std::uint32_t> members_of(
      std::int32_t id) const {
    if (id < 0 || static_cast<std::uint32_t>(id) >= cluster_count) return {};
    const auto c = static_cast<std::size_t>(id);
    return std::span<const std::uint32_t>(members)
        .subspan(member_starts[c], member_starts[c + 1] - member_starts[c]);
  }

  /// Dataset indices of the noise points, ascending.
  [[nodiscard]] std::span<const std::uint32_t> noise() const {
    if (member_starts.size() < 2) return {};
    const std::size_t c = cluster_count;
    return std::span<const std::uint32_t>(members)
        .subspan(member_starts[c], member_starts[c + 1] - member_starts[c]);
  }

  [[nodiscard]] std::size_t noise_count() const { return noise().size(); }

  [[nodiscard]] std::size_t core_count() const {
    std::size_t c = 0;
    for (const auto f : is_core) c += f;
    return c;
  }

  [[nodiscard]] std::size_t border_count() const {
    return size() - core_count() - noise_count();
  }

  /// Copy into the dbscan::Clustering shape the equivalence tooling and the
  /// baseline implementations speak.
  [[nodiscard]] dbscan::Clustering to_clustering() const {
    dbscan::Clustering c;
    c.labels = labels;
    c.is_core = is_core;
    c.cluster_count = cluster_count;
    c.timings = stats.timings;
    return c;
  }
};

/// Writer-side health of a session (docs/ARCHITECTURE.md, "Failure model").
///
/// Every writer operation is transactional: a throw either restores the
/// pre-call observable state (STRONG — validation failures, index build /
/// refit / absorption faults, count-maintenance faults) or, where the
/// result buffers were already partially overwritten (label repair, phase-2
/// finalization, per-entry sweep work), leaves the session kDegraded: the
/// points, liveness mask and neighbor counts are committed and coherent,
/// but the labels are torn and result() is unavailable.  The NEXT writer
/// call heals a degraded session by a full re-cluster at the last requested
/// parameters (run()/sweep() do so by their nature; mutations re-cluster
/// first, then apply).  Readers are unaffected throughout: snapshots
/// published before the fault stay valid and consistent.
enum class SessionHealth : std::uint8_t {
  kHealthy,   ///< result() (if current) is coherent with the session state
  kDegraded,  ///< a fault tore the result buffers; next writer call heals
};

/// How deep validate() audits the session (cost grows with the level).
enum class ValidationLevel : std::uint8_t {
  /// O(n) structural invariants: mask/result/count buffer agreement, label
  /// ranges, membership-CSR well-formedness (a permutation, ascending in
  /// every bucket, no empty cluster), dead-slot hygiene, core-flag
  /// consistency with the cached counts, clean label-repair scratch.
  kQuick,
  /// kQuick + an exact neighbor recount of every live point against the raw
  /// coordinates (O(n_live²) — no index involved, so it also cross-checks
  /// the index-maintained counts).
  kCounts,
  /// kCounts + full oracle parity: the live sub-dataset must form a valid
  /// DBSCAN clustering at (eps, min_pts) per dbscan::check_valid.
  kDeep,
};

/// validate()'s findings.  Converts to true when no issue was found.
struct ValidationReport {
  bool ok = true;
  SessionHealth health = SessionHealth::kHealthy;
  ValidationLevel level = ValidationLevel::kQuick;
  /// One human-readable line per violated invariant, empty when ok.
  std::vector<std::string> issues;

  explicit operator bool() const { return ok; }
};

/// Multi-run DBSCAN session over one dataset: owns the points, the cached
/// neighbor counts and ε-cells (reused on min_pts-only changes) and a
/// NeighborIndex built when a read, a writer query or a mutation first
/// needs it (refit on eps changes from then on).  Move-only.  See the
/// file comment for the lifecycle.
class Clusterer {
 public:
  /// Take ownership of `points` (no copy).  Throws std::invalid_argument on
  /// non-finite coordinates or an Options combination the session cannot
  /// honor (kTriangles with a non-RT backend).  No index is built here —
  /// kAuto needs an ε to resolve against, and the batch calls need none.
  explicit Clusterer(std::vector<geom::Vec3> points, Options options = {});
  /// Copying constructor for callers that keep their own storage.
  explicit Clusterer(std::span<const geom::Vec3> points,
                     Options options = {});

  /// Non-owning session: BORROWS `points` instead of copying them — the
  /// caller keeps the storage alive and unchanged for the session's
  /// lifetime.  This is what the one-shot rtd::cluster() wrapper uses (a
  /// throwaway session never outlives the caller's buffer); same
  /// validation and behavior as the owning constructors otherwise.
  [[nodiscard]] static Clusterer borrowing(std::span<const geom::Vec3> points,
                                           Options options = {});

  ~Clusterer();
  Clusterer(Clusterer&&) noexcept;
  Clusterer& operator=(Clusterer&&) noexcept;
  Clusterer(const Clusterer&) = delete;
  Clusterer& operator=(const Clusterer&) = delete;

  /// Cluster with DBSCAN(eps, min_pts) over the ε-cells, reusing the
  /// cached neighbor counts and cells on min_pts-only changes.  Builds no
  /// index; an existing one is retargeted to eps (refit — not rebuild —
  /// where the backend supports it), so the next snapshot serves eps.  The
  /// returned reference is valid until the next run()/sweep() or
  /// destruction; warm calls perform no heap allocations.
  const ClusterResult& run(float eps, std::uint32_t min_pts);

  /// Move the most recent run's result out of the session (no copy).  For
  /// throwaway sessions — the one-shot rtd::cluster() wrapper — where the
  /// zero-copy view run() returns would dangle.  The session stays usable,
  /// but the moved-out buffers are gone: the next run() reallocates every
  /// result buffer from scratch, fully independent of the taken copy (the
  /// session-side result is reset to a fresh empty value, so nothing
  /// aliases and a stray second take_result() yields a well-formed empty
  /// result rather than moved-from remains).
  [[nodiscard]] ClusterResult take_result();

  // --- Live sessions: incremental mutation (sphere-geometry sessions) -----

  /// Append `new_points` to the session and update the last clustering
  /// incrementally (see the file comment).  Returns the slot id of the
  /// first inserted point; the batch occupies [returned, returned + count).
  /// WRITER operation.  Requires a current result — call after run() or
  /// sweep(), not before and not after take_result() (std::logic_error),
  /// and not on a triangle-geometry session.  Throws std::invalid_argument
  /// on non-finite coordinates (session unchanged).  The first mutation
  /// after a batch call builds the index if no snapshot did.  The index
  /// absorbs the batch in place while the accumulated mutation delta stays
  /// under the rebuild threshold (max(64, live/8) slots) and no snapshot
  /// aliases the structure; past either, this mutation rebuilds the index
  /// over the live set (stats.index_rebuilt reports a build either way).
  std::size_t insert(std::span<const geom::Vec3> new_points);

  /// Tombstone the given slot ids and update the last clustering
  /// incrementally.  Ids keep their slots (labels/is_core/neighbor_counts
  /// stay index-aligned; the dead slots read kNoise / 0 / 0).  WRITER
  /// operation; same session preconditions as insert().  Throws
  /// std::invalid_argument on an out-of-range id, an already-removed id, or
  /// a duplicate id within the batch — validated up front, so a throwing
  /// call leaves the session unchanged.
  void remove(std::span<const std::uint32_t> ids);

  /// Sliding-window step: expire the `expire_count` OLDEST live points
  /// (insertion order) and append `new_points`, maintaining the clustering
  /// through both.  Returns the first inserted slot id.  WRITER operation;
  /// preconditions of insert()/remove() apply, plus expire_count must not
  /// exceed live_count().  This is the streaming loop of the trajectory /
  /// geospatial examples: one advance() per window step instead of a
  /// rebuild + recluster of the whole window.
  std::size_t advance(std::span<const geom::Vec3> new_points,
                      std::size_t expire_count);

  /// The maintained clustering: the last run()/sweep() result, updated in
  /// place by every mutation since.  Same storage run() returns a reference
  /// to; valid until the next writer call.  Throws std::logic_error when no
  /// current result exists (before the first run, or after take_result()).
  [[nodiscard]] const ClusterResult& result() const;

  /// Live (non-tombstoned) points.  size() counts all slots, dead included.
  [[nodiscard]] std::size_t live_count() const;
  /// Whether slot `id` is live.  Throws std::invalid_argument out of range.
  [[nodiscard]] bool is_live(std::uint32_t id) const;

  /// Cluster once per eps value (returned in input order) — the
  /// k-dist-style parameter exploration loop of §VI-B, executed as a
  /// session-optimized plan instead of k independent runs:
  ///   * ONE counting pass over the ε-cells of max(eps_values) buckets
  ///     every neighbor's exact d² against all ladder values at once (an
  ///     ε_max cell neighborhood covers every smaller ε-ball, and d² <= ε²
  ///     is exactly the filter each backend applies), so every entry's
  ///     phase 1 is served by the shared pass;
  ///   * per entry only cluster formation runs, over that entry's ε-cells;
  ///   * no index is built; an existing one is retargeted to ε_max, then
  ///     refit per entry on the refit-capable backends and left at the
  ///     ε_max build on grid/dense-box (it legally answers any query
  ///     radius below it).  Without one, the first snapshot afterwards
  ///     serves the last entry's ε.
  /// Every entry is an identical clustering to a fresh run at its eps (the
  /// parity suite enforces it); entry stats record the shared work on
  /// entry 0 and counts_reused on the rest.  Each element is an independent
  /// owning copy.
  ///
  /// Every ladder value must be positive and finite (std::invalid_argument
  /// otherwise — validated up front, before any scratch is sized, so a NaN
  /// can never drive max(eps_values) or the bucketing pass).  Duplicate
  /// values are legal: duplicates share ONE bucketing column (their counts
  /// are identical by definition) and each occurrence still yields its own
  /// result entry, in input order.  Scratch is therefore O(k_unique·n) —
  /// the one deliberate deviation from the engine's O(n) memory.
  std::vector<ClusterResult> sweep(std::span<const float> eps_values,
                                   std::uint32_t min_pts);

  /// Enumerate the dataset indices within `eps` of `center` (ascending),
  /// through the session index — retargeting it (refit or rebuild) when
  /// `eps` differs from the current index ε.  WRITER operation (it may
  /// retarget the session); the const overloads below are the concurrent
  /// path.  Throws std::invalid_argument on a non-finite `center` or a
  /// non-positive/non-finite `eps` — validated BEFORE the index is touched,
  /// so a garbage request can never drive a degenerate retarget.  `center`
  /// is treated as off-dataset: no self exclusion.
  std::vector<std::uint32_t> query_neighbors(const geom::Vec3& center,
                                             float eps);
  /// Same, for dataset point `i` (excluded from its own neighborhood).
  /// Throws std::invalid_argument for an out-of-range or removed slot.
  std::vector<std::uint32_t> query_neighbors(std::uint32_t i, float eps);

  // --- Concurrent serving layer (sphere-geometry sessions) ----------------

  /// Publish (or fetch) the session's immutable index snapshot: the current
  /// index at its current ε behind shared ownership.  O(1) steady state
  /// (one atomic load); the first call after a retarget creates the
  /// snapshot under a short writer-synchronized critical section, and the
  /// first call after a batch run()/sweep() that built no index builds it
  /// there too, at current_eps().  Readers may hold the snapshot for any
  /// length of time — a writer retargeting ε switches to a replacement
  /// structure instead of mutating this one.  Throws std::logic_error
  /// while current_eps() is nullopt (kAuto needs an ε to resolve against)
  /// and on triangle-geometry sessions (the serving layer is
  /// sphere-geometry only).
  [[nodiscard]] std::shared_ptr<const IndexSnapshot> snapshot() const;

  /// Genuinely const read: the ε-neighbors of `center` at the SNAPSHOT's
  /// built ε, without retargeting the session.  Safe from any number of
  /// threads, concurrently with writer refits (see the class comment).
  /// Same preconditions as snapshot().
  [[nodiscard]] std::vector<std::uint32_t> query_neighbors(
      const geom::Vec3& center) const;
  /// Same, for dataset point `i` (excluded from its own neighborhood).
  [[nodiscard]] std::vector<std::uint32_t> query_neighbors(
      std::uint32_t i) const;

  /// Const batched read: ONE parallel launch answers every center at `eps`
  /// through the snapshot (amortizing launch overhead across thousands of
  /// requests).  `eps` must satisfy the snapshot's radius rules
  /// (IndexSnapshot file comment): any eps <= the snapshot ε on every
  /// backend, larger only on the radius-agnostic ones.
  [[nodiscard]] BatchQueryResult query_batch(
      std::span<const geom::Vec3> centers, float eps,
      int threads = 0) const;

  /// k-distance graph of the dataset (ε-selection, Ester et al.'s recipe),
  /// computed with the RT-kNN extension.  Standalone passthrough: does not
  /// touch the session index.  k = 0 applies the classic 2 * dims default.
  /// In a live session only the LIVE points participate.
  [[nodiscard]] core::KdistResult kdist(std::uint32_t k = 0) const;

  /// Suggested ε: the knee of the k-distance graph.
  [[nodiscard]] float suggest_eps(std::uint32_t k = 0) const {
    return kdist(k).suggested_eps;
  }

  /// All-points k-nearest-neighbors on the RT device (rounds of
  /// fixed-radius queries).  Standalone passthrough: builds its own scenes.
  [[nodiscard]] core::RtKnnResult knn(std::uint32_t k) const;

  /// The session's dataset, in query order.
  [[nodiscard]] std::span<const geom::Vec3> points() const;
  [[nodiscard]] std::size_t size() const { return points().size(); }
  [[nodiscard]] const Options& options() const;

  /// The concrete backend the session resolved to, or kAuto before the
  /// first run (kAuto needs an ε to resolve against).
  [[nodiscard]] index::IndexKind backend() const;
  /// The ε the next snapshot serves: the ε the session index is built/refit
  /// for, or — with no index yet — the last clustering's, which the first
  /// snapshot builds it at.  nullopt before the first run (and after runs
  /// on an empty session).
  [[nodiscard]] std::optional<float> current_eps() const;
  /// True once neighbor counts are cached.  The cache is keyed on the ε
  /// they were computed for: a run() at that ε skips phase 1 for any
  /// min_pts.
  [[nodiscard]] bool counts_cached() const;

  // --- Failure model (docs/ARCHITECTURE.md has the per-operation table) ----

  /// Current writer-side health.  kDegraded after a fault tore the result
  /// buffers mid-repair; the next run()/sweep()/mutation heals it by a full
  /// re-cluster (see SessionHealth).  Readers and snapshots are unaffected
  /// by a degraded writer.
  [[nodiscard]] SessionHealth health() const noexcept;

  /// One coherent read of the telemetry registry (counters, gauges, latency
  /// histograms — src/telemetry/telemetry.hpp names them all).  The
  /// registry is PROCESS-wide, not per-session: a host serving several
  /// sessions reads their combined activity.  All zeros when the build is
  /// compiled without RTDBSCAN_TELEMETRY=ON or metrics were never armed
  /// (arm via rtd::telemetry::arm() or RTDBSCAN_TELEMETRY=metrics).
  [[nodiscard]] telemetry::MetricsSnapshot metrics() const;

  /// Self-audit of the session's invariants, from cheap structural checks
  /// (kQuick, O(n)) up to full oracle parity of the live clustering (kDeep).
  /// WRITER-synchronized read: call it from the writer thread (it inspects
  /// writer-side buffers that mutations rewrite).  Valid in every health
  /// state — a degraded session validates clean if its committed state
  /// (points, mask, counts) is coherent; result-dependent checks are
  /// skipped when no current result exists.  Never mutates the session.
  [[nodiscard]] ValidationReport validate(
      ValidationLevel level = ValidationLevel::kQuick) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rtd
