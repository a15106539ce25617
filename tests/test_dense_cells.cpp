// Cell-batched phases in the session engine: every full recount (run,
// heal, the shared pass of sweep) counts ε-neighbors cell by cell, and
// every Clusterer phase 2 walks the same sorted ε-cells, uniting
// neighboring cells through their first ε-close core pair.  The clustering
// must stay
// equivalent to the sequential reference, and the counts identical to the
// per-point phase 1, on every backend, at every thread count, through run,
// min_pts rerun and sweep — including the inputs that stress the cells:
// one giant cell, cells mixing core and border members, a lattice on the
// predicate's boundary, flat and 3-D data, extents beyond the cell-key
// range, and tombstoned slots.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "common/failpoint.hpp"
#include "core/clusterer.hpp"
#include "data/generators.hpp"
#include "dbscan/engine.hpp"
#include "dbscan/equivalence.hpp"
#include "dbscan/sequential.hpp"
#include "index/neighbor_index.hpp"

namespace rtd {
namespace {

using geom::Vec3;
using index::IndexKind;

constexpr int kThreadCounts[] = {1, 2, 4};

/// Oracle parity of a session result over the live slots: equivalent to
/// the sequential reference and, when `r` is the session's current result,
/// clean under the deep self-check.
void expect_oracle_parity(const Clusterer& session, const ClusterResult& r,
                          const std::string& what, bool current = true) {
  std::vector<Vec3> live_pts;
  dbscan::Clustering view;
  for (std::size_t i = 0; i < session.size(); ++i) {
    if (!session.is_live(static_cast<std::uint32_t>(i))) continue;
    live_pts.push_back(session.points()[i]);
    view.labels.push_back(r.labels[i]);
    view.is_core.push_back(r.is_core[i]);
  }
  view.cluster_count = r.cluster_count;
  const dbscan::Params params{r.eps, r.min_pts};
  const dbscan::Clustering reference =
      dbscan::sequential_dbscan(live_pts, params);
  const auto eq =
      dbscan::check_equivalent(live_pts, params, reference, view);
  EXPECT_TRUE(eq.equivalent) << what << ": " << eq.reason;
  if (!current) return;
  const ValidationReport rep = session.validate(ValidationLevel::kDeep);
  EXPECT_TRUE(rep.ok) << what << ": "
                      << (rep.issues.empty() ? "" : rep.issues.front());
}

std::size_t core_count(const ClusterResult& r) {
  std::size_t c = 0;
  for (const auto f : r.is_core) c += f;
  return c;
}

/// run, min_pts rerun and a three-step sweep on every backend and thread
/// count, each checked against the oracle.
void check_matrix(const std::vector<Vec3>& pts, float eps,
                  std::uint32_t min_pts, const std::string& name) {
  const std::vector<float> ladder{0.8f * eps, eps, 1.2f * eps};
  for (const IndexKind kind : index::kAllIndexKinds) {
    for (const int threads : kThreadCounts) {
      const std::string what = name + " / " + index::to_string(kind) +
                               " / threads " + std::to_string(threads);
      Clusterer session(pts,
                        Options().with_backend(kind).with_threads(threads));
      expect_oracle_parity(session, session.run(eps, min_pts),
                           what + " / run");
      const ClusterResult& rerun = session.run(eps, 2 * min_pts);
      EXPECT_TRUE(rerun.stats.counts_reused) << what;
      expect_oracle_parity(session, rerun, what + " / rerun");
      const std::vector<ClusterResult> swept =
          session.sweep(ladder, min_pts);
      ASSERT_EQ(swept.size(), ladder.size());
      for (std::size_t v = 0; v < swept.size(); ++v) {
        // The session's current result is the last entry's.
        expect_oracle_parity(session, swept[v],
                             what + " / sweep " + std::to_string(v),
                             v + 1 == swept.size());
      }
    }
  }
}

/// The per-point phase 1 of `kind` over the session's live points, mapped
/// back to slots (0 for tombstoned ones): what every session count must
/// equal exactly.
std::vector<std::uint32_t> per_point_counts(const Clusterer& session,
                                            float eps, IndexKind kind) {
  std::vector<Vec3> live_pts;
  std::vector<std::uint32_t> slot;
  for (std::uint32_t i = 0; i < session.size(); ++i) {
    if (!session.is_live(i)) continue;
    live_pts.push_back(session.points()[i]);
    slot.push_back(i);
  }
  const auto index = index::make_index(live_pts, eps, kind);
  std::vector<std::uint32_t> order(live_pts.size());
  std::iota(order.begin(), order.end(), 0u);
  std::vector<std::uint32_t> dense;
  (void)dbscan::index_phase1(*index, {eps, 1, kind}, order, false, 1, dense);
  std::vector<std::uint32_t> out(session.size(), 0);
  for (std::size_t k = 0; k < slot.size(); ++k) out[slot[k]] = dense[k];
  return out;
}

/// run and every sweep entry on every backend and thread count: the
/// result's neighbor_counts equal the per-point phase 1 bit for bit.
/// `removed` slots are tombstoned first, and the run then recounts at a
/// fresh ε (a run at the maintained ε would reuse the counts).
void check_counts(const std::vector<Vec3>& pts, float eps,
                  std::uint32_t min_pts, const std::string& name,
                  const std::vector<std::uint32_t>& removed = {}) {
  const std::vector<float> ladder{0.8f * eps, eps, 1.2f * eps};
  for (const IndexKind kind : index::kAllIndexKinds) {
    for (const int threads : kThreadCounts) {
      const std::string what = name + " / " + index::to_string(kind) +
                               " / threads " + std::to_string(threads);
      Clusterer session(pts,
                        Options().with_backend(kind).with_threads(threads));
      float run_eps = eps;
      if (!removed.empty()) {
        (void)session.run(eps, min_pts);
        session.remove(removed);
        run_eps = 0.9f * eps;
      }
      const ClusterResult& r = session.run(run_eps, min_pts);
      EXPECT_FALSE(r.stats.counts_reused) << what;
      EXPECT_EQ(r.neighbor_counts, per_point_counts(session, run_eps, kind))
          << what << " / run";
      const std::vector<ClusterResult> swept =
          session.sweep(ladder, min_pts);
      ASSERT_EQ(swept.size(), ladder.size());
      EXPECT_GT(swept[0].stats.phase1.work.rays, 0u) << what;
      for (std::size_t v = 0; v < swept.size(); ++v) {
        EXPECT_EQ(swept[v].neighbor_counts,
                  per_point_counts(session, ladder[v], kind))
            << what << " / sweep " << v;
      }
    }
  }
}

TEST(ClustererDenseCells, TaxiGpsParityAcrossBackendsAndThreads) {
  const auto dataset = data::taxi_gps(1200, 101);
  check_matrix(dataset.points, 0.3f, 8, "taxi_gps");
}

TEST(ClustererDenseCells, DuplicatePointsFormOneGiantCell) {
  std::vector<Vec3> pts(100, Vec3::xy(5.0f, 5.0f));
  for (int i = 0; i < 20; ++i) {
    pts.push_back(Vec3::xy(20.0f + 3.0f * static_cast<float>(i), 40.0f));
  }
  check_matrix(pts, 1.0f, 10, "duplicates");
}

TEST(ClustererDenseCells, CellMixingCoreAndBorderMembers) {
  // eps 1, flat: the cell edge is 1/√2.  Cell 0 holds three mutual
  // neighbors that are also within eps of A — all core, pre-unioned.  A and
  // B share cell 1; A is core (B plus the three), B is only A's neighbor,
  // so B is a border point and cell 1 must take the per-point path.
  std::vector<Vec3> pts = {Vec3::xy(-0.95f, 0.0f), Vec3::xy(-0.93f, 0.0f),
                           Vec3::xy(-0.91f, 0.0f), Vec3::xy(0.0f, 0.0f),
                           Vec3::xy(0.1f, 0.0f),   Vec3::xy(30.0f, 30.0f),
                           Vec3::xy(-30.0f, 5.0f)};
  check_matrix(pts, 1.0f, 4, "mixed cell");
  Clusterer session(pts, Options().with_threads(1));
  const ClusterResult& r = session.run(1.0f, 4);
  EXPECT_TRUE(r.is_core[3]);
  EXPECT_FALSE(r.is_core[4]);
  EXPECT_EQ(r.labels[4], r.labels[3]);
  EXPECT_EQ(r.labels[0], r.labels[3]);
}

TEST(ClustererDenseCells, FlatAndThreeDimensionalData) {
  const auto flat = data::uniform_cube(1200, 10.0f, 2, 102);
  check_matrix(flat.points, 0.6f, 6, "flat uniform");
  const auto blobs = data::gaussian_blobs(1200, 2, 0.2f, 10.0f, 3, 103);
  check_matrix(blobs.points, 0.5f, 10, "3-D blobs");
}

TEST(ClustererDenseCells, KeysWiderThan32BitsStillGroup) {
  // 3-D blobs plus two far corners: ~7000 cells per axis, a 39-bit packed
  // key, which the grouping recomputes from the points instead of caching
  // in its 4-byte key scratch.  Dense cells must still form.
  const auto blobs = data::gaussian_blobs(1000, 2, 0.2f, 10.0f, 3, 108);
  std::vector<Vec3> pts = blobs.points;
  pts.push_back(Vec3{-1000.0f, -1000.0f, -1000.0f});
  pts.push_back(Vec3{1000.0f, 1000.0f, 1000.0f});
  check_matrix(pts, 0.5f, 10, "wide keys");
  Clusterer session(pts, Options());
  const ClusterResult& r = session.run(0.5f, 10);
  // Phase 2 walks the cells phase 1 sorted: one ray per occupied cell,
  // fewer than the points.
  EXPECT_EQ(r.stats.phase2.work.rays, r.stats.phase1.work.rays);
  EXPECT_LT(r.stats.phase2.work.rays, pts.size());
  EXPECT_EQ(r.stats.phase2.work.nodes_visited, 0u);
}

TEST(ClustererDenseCells, CountsMatchPerPointPhase1) {
  check_counts(data::taxi_gps(1200, 101).points, 0.3f, 8, "taxi_gps");
  std::vector<Vec3> dups(100, Vec3::xy(5.0f, 5.0f));
  for (int i = 0; i < 20; ++i) {
    dups.push_back(Vec3::xy(20.0f + 3.0f * static_cast<float>(i), 40.0f));
  }
  check_counts(dups, 1.0f, 10, "duplicates");
  check_counts(data::uniform_cube(1200, 10.0f, 2, 102).points, 0.6f, 6,
               "flat uniform");
  check_counts(data::gaussian_blobs(1200, 2, 0.2f, 10.0f, 3, 103).points,
               0.5f, 10, "3-D blobs");
  check_counts(data::taxi_gps(1000, 105).points, 0.3f, 8, "after remove",
               [] {
                 std::vector<std::uint32_t> gone;
                 for (std::uint32_t i = 0; i < 1000; i += 7) gone.push_back(i);
                 return gone;
               }());
}

TEST(ClustererDenseCells, CountsMatchOnTheEpsBoundary) {
  // Lattices spaced exactly ε (0.5: every axis neighbor at d² == ε²
  // exactly) and ε in float arithmetic (0.3f: rounding puts some pairs a
  // hair inside, others a hair outside).  Every decision a box test takes
  // must agree with the per-pair predicate.
  for (const float eps : {0.5f, 0.3f}) {
    std::vector<Vec3> pts;
    for (int y = 0; y < 20; ++y) {
      for (int x = 0; x < 20; ++x) {
        pts.push_back(Vec3::xy(eps * static_cast<float>(x),
                               eps * static_cast<float>(y)));
      }
    }
    check_counts(pts, eps, 4, "lattice " + std::to_string(eps));
  }
}

TEST(ClustererDenseCells, CellCountWorkSemantics) {
  // The cell path reports one ray per occupied cell, one aabb_test per box
  // test and one isect_call per distance predicate; it walks no tree.
  // 100 duplicates share one cell whose diagonal is 0 and 20 points spaced
  // 3ε apart sit alone: 21 cells, and no pair needs a distance test.
  std::vector<Vec3> pts(100, Vec3::xy(5.0f, 5.0f));
  for (int i = 0; i < 20; ++i) {
    pts.push_back(Vec3::xy(20.0f + 3.0f * static_cast<float>(i), 40.0f));
  }
  for (const IndexKind kind : index::kAllIndexKinds) {
    Clusterer session(pts, Options().with_backend(kind));
    const ClusterResult& r = session.run(1.0f, 10);
    const rt::TraversalStats& w = r.stats.phase1.work;
    EXPECT_EQ(w.rays, 21u) << index::to_string(kind);
    EXPECT_GT(w.aabb_tests, 0u) << index::to_string(kind);
    EXPECT_EQ(w.isect_calls, 0u) << index::to_string(kind);
    EXPECT_EQ(w.nodes_visited, 0u) << index::to_string(kind);
    EXPECT_EQ(r.neighbor_counts[0], 99u);
    EXPECT_EQ(r.neighbor_counts[100], 0u);

    // The sweep's shared pass is charged to entry 0 (cells of ε_max);
    // later entries reuse it.
    const std::vector<ClusterResult> swept =
        session.sweep(std::vector<float>{0.8f, 1.0f, 1.2f}, 10);
    EXPECT_EQ(swept[0].stats.phase1.work.rays, 21u);
    EXPECT_EQ(swept[1].stats.phase1.work.rays, 0u);
  }
  // A taxi_gps blob: fewer cells (rays) than points.
  const auto blob = data::taxi_gps(3000, 106);
  Clusterer session(blob.points, Options());
  EXPECT_LT(session.run(0.3f, 8).stats.phase1.work.rays, blob.points.size());
}

TEST(ClustererDenseCells, ExtentBeyondTheCellKeyRangeFallsBack) {
  // One point 1e6 away: the cell grid would need ~5e6 cells on the x axis,
  // beyond the 2^20 a packed key addresses.  The session must not throw;
  // it falls back to per-point phases 1 and 2 (one ray per live point,
  // then one per core point).  The
  // dense-box backend's own grid has the same range and rejects the input
  // at index build, as it always has.
  const auto blob = data::taxi_gps(600, 104);
  std::vector<Vec3> pts = blob.points;
  pts.push_back(Vec3::xy(1.0e6f, 0.0f));
  for (const IndexKind kind : index::kAllIndexKinds) {
    for (const int threads : kThreadCounts) {
      Clusterer session(pts,
                        Options().with_backend(kind).with_threads(threads));
      if (kind == IndexKind::kDenseBox) {
        EXPECT_THROW((void)session.run(0.3f, 8), std::invalid_argument);
        continue;
      }
      const ClusterResult& r = session.run(0.3f, 8);
      EXPECT_EQ(r.stats.phase2.work.rays, core_count(r))
          << index::to_string(kind);
      // Phase 1 falls back to one per-point query per live point, with
      // the same counts.
      EXPECT_EQ(r.stats.phase1.work.rays, pts.size())
          << index::to_string(kind);
      EXPECT_EQ(r.neighbor_counts, per_point_counts(session, 0.3f, kind))
          << index::to_string(kind);
      const std::vector<ClusterResult> swept =
          session.sweep(std::vector<float>{0.25f, 0.3f}, 8);
      EXPECT_EQ(swept[0].neighbor_counts,
                per_point_counts(session, 0.25f, kind))
          << index::to_string(kind);
      expect_oracle_parity(session, r,
                           std::string("key range / ") +
                               index::to_string(kind));
    }
  }
}

TEST(ClustererDenseCells, RunAfterRemovalGroupsLiveSlotsOnly) {
  // A removal batch past the rebuild threshold (64) forces a fresh build
  // over the live set — the CompactedIndex path, whose box queries
  // translate dense ids back to slots.  The next run regroups over the
  // live slots only.
  const auto dataset = data::taxi_gps(1000, 105);
  for (const IndexKind kind : index::kAllIndexKinds) {
    for (const int threads : kThreadCounts) {
      const std::string what = std::string(index::to_string(kind)) +
                               " / threads " + std::to_string(threads);
      Clusterer session(dataset.points,
                        Options().with_backend(kind).with_threads(threads));
      (void)session.run(0.3f, 8);
      std::vector<std::uint32_t> gone;
      for (std::uint32_t i = 0; i < 1000; i += 7) gone.push_back(i);
      session.remove(gone);
      EXPECT_TRUE(session.result().stats.index_rebuilt) << what;
      expect_oracle_parity(session, session.run(0.3f, 8), what + " / run");
      expect_oracle_parity(session, session.run(0.3f, 16),
                           what + " / rerun");
    }
  }
}

TEST(ClustererDenseCells, DenseInputQueriesFewerThanOnePerCore) {
  const auto dataset = data::taxi_gps(3000, 106);
  for (const IndexKind kind : index::kAllIndexKinds) {
    Clusterer session(dataset.points, Options().with_backend(kind));
    // Phase 2 queries no index: it walks the occupied cells phase 1
    // sorted (one ray each, fewer than the points) and visits no tree
    // node; the rerun walks the same cached cells.
    const ClusterResult& r = session.run(0.3f, 8);
    const rt::TraversalStats run_work = r.stats.phase2.work;
    EXPECT_GT(core_count(r), 0u) << index::to_string(kind);
    EXPECT_EQ(run_work.rays, r.stats.phase1.work.rays)
        << index::to_string(kind);
    EXPECT_LT(run_work.rays, dataset.points.size()) << index::to_string(kind);
    EXPECT_EQ(run_work.nodes_visited, 0u) << index::to_string(kind);
    EXPECT_GT(run_work.aabb_tests, 0u) << index::to_string(kind);
    const ClusterResult& rerun = session.run(0.3f, 16);
    EXPECT_EQ(rerun.stats.phase2.work.rays, run_work.rays)
        << index::to_string(kind);
    EXPECT_EQ(rerun.stats.phase2.work.nodes_visited, 0u)
        << index::to_string(kind);
  }
}

TEST(ClustererDenseCells, NoSharedCellMeansOneRayPerPoint) {
  // A lattice at 0.9 eps spacing: every point has its four axis neighbors
  // within eps, but no two points share a cell (edge eps/√2 < 0.9 eps), so
  // phase 2 walks one cell per point.  A one-point cell's box is the point,
  // so the box tests decide every pair and no distance test is needed.
  std::vector<Vec3> pts;
  for (int y = 0; y < 20; ++y) {
    for (int x = 0; x < 20; ++x) {
      pts.push_back(Vec3::xy(0.9f * static_cast<float>(x),
                             0.9f * static_cast<float>(y)));
    }
  }
  for (const IndexKind kind : index::kAllIndexKinds) {
    Clusterer session(pts, Options().with_backend(kind));
    const ClusterResult& r = session.run(1.0f, 4);
    EXPECT_GT(core_count(r), 0u);
    EXPECT_LT(core_count(r), pts.size());
    const rt::TraversalStats& w = r.stats.phase2.work;
    EXPECT_EQ(w.rays, pts.size()) << index::to_string(kind);
    EXPECT_GT(w.aabb_tests, 0u) << index::to_string(kind);
    EXPECT_EQ(w.isect_calls, 0u) << index::to_string(kind);
    EXPECT_EQ(w.nodes_visited, 0u) << index::to_string(kind);
    expect_oracle_parity(session, r, index::to_string(kind));
  }
}

TEST(ClustererDenseCells, SessionResultsDoNotDependOnThreadCount) {
  // Each border point joins the first core within ε in a fixed order, from
  // its own cell's task, so the labels themselves (not only the partition
  // up to border ties) are identical at every thread count.  Point 298 of
  // taxi_gps(600, 94) at minPts 5 is a border within ε of cores in two
  // clusters.
  struct Case {
    std::string name;
    std::vector<Vec3> pts;
    float eps;
    std::uint32_t min_pts;
  };
  const Case cases[] = {
      {"taxi_gps 600", data::taxi_gps(600, 94).points, 0.3f, 5},
      {"taxi_gps 2000", data::taxi_gps(2000, 101).points, 0.3f, 8},
      {"3-D blobs", data::gaussian_blobs(1500, 3, 0.3f, 10.0f, 3, 103).points,
       0.5f, 10},
  };
  const auto results = [](const Case& c, const Options& options) {
    Clusterer session(c.pts, options);
    std::vector<ClusterResult> out;
    out.push_back(session.run(c.eps, c.min_pts));
    out.push_back(session.run(c.eps, 2 * c.min_pts));
    const std::vector<float> ladder{0.5f * c.eps, c.eps, 1.5f * c.eps};
    for (ClusterResult& r : session.sweep(ladder, c.min_pts)) {
      out.push_back(std::move(r));
    }
    return out;
  };
  for (const Case& c : cases) {
    for (const IndexKind kind : index::kAllIndexKinds) {
      const std::vector<ClusterResult> serial =
          results(c, Options().with_backend(kind).with_threads(1));
      for (const int threads : kThreadCounts) {
        if (threads == 1) continue;
        const std::vector<ClusterResult> parallel =
            results(c, Options().with_backend(kind).with_threads(threads));
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t k = 0; k < serial.size(); ++k) {
          const std::string what = c.name + " / " + index::to_string(kind) +
                                   " / threads " + std::to_string(threads) +
                                   " / result " + std::to_string(k);
          EXPECT_EQ(parallel[k].labels, serial[k].labels) << what;
          EXPECT_EQ(parallel[k].is_core, serial[k].is_core) << what;
          EXPECT_EQ(parallel[k].neighbor_counts, serial[k].neighbor_counts)
              << what;
        }
      }
    }
  }
}

TEST(ClustererDenseCells, GroupingFaultDegradesThenNextWriterCallHeals) {
  if (!fail::compiled_in()) {
    GTEST_SKIP() << "build compiled without RTDBSCAN_FAILPOINTS=ON";
  }
  fail::disarm_all();
  const auto base = data::taxi_gps(400, 107);
  Clusterer session(base.points, Options());
  (void)session.run(0.3f, 8);

  // A mutation drops the cached cells, and a run at the maintained eps
  // reuses the counts, so phase 2 sorts the cells anew: the fault fires
  // inside finish_run, after the result buffers were touched.
  (void)session.insert(std::vector<Vec3>{{1.0f, 1.0f, 0.0f}});
  fail::arm("engine.cells", {.action = fail::Action::kThrowBadAlloc});
  EXPECT_THROW((void)session.run(0.3f, 8), std::bad_alloc);
  fail::disarm_all();
  EXPECT_EQ(session.health(), SessionHealth::kDegraded);
  EXPECT_TRUE(session.validate(ValidationLevel::kQuick).ok);

  (void)session.insert(std::vector<Vec3>{{2.0f, 2.0f, 0.0f}});
  EXPECT_EQ(session.health(), SessionHealth::kHealthy);
  expect_oracle_parity(session, session.result(), "healed");
}

TEST(ClustererDenseCells, Phase1FaultDuringSweepKeepsThePreviousResult) {
  if (!fail::compiled_in()) {
    GTEST_SKIP() << "build compiled without RTDBSCAN_FAILPOINTS=ON";
  }
  fail::disarm_all();
  const auto base = data::taxi_gps(400, 109);
  Clusterer session(base.points, Options());
  const ClusterResult before = session.run(0.3f, 8);

  // The shared counting pass faults at its serial boundary, before any
  // entry touched the result: strong guarantee.
  const std::vector<float> ladder{0.25f, 0.3f, 0.35f};
  const std::uint64_t fired = fail::fire_count("engine.phase1");
  fail::arm("engine.phase1", {.action = fail::Action::kThrowBadAlloc});
  EXPECT_THROW((void)session.sweep(ladder, 8), std::bad_alloc);
  EXPECT_EQ(fail::fire_count("engine.phase1"), fired + 1);
  fail::disarm_all();
  EXPECT_EQ(session.health(), SessionHealth::kHealthy);
  EXPECT_EQ(session.result().eps, before.eps);
  EXPECT_EQ(session.result().labels, before.labels);
  EXPECT_EQ(session.result().neighbor_counts, before.neighbor_counts);
  expect_oracle_parity(session, session.result(), "after the fault");

  const std::vector<ClusterResult> swept = session.sweep(ladder, 8);
  ASSERT_EQ(swept.size(), ladder.size());
  expect_oracle_parity(session, swept.back(), "retried sweep");
}

}  // namespace
}  // namespace rtd
