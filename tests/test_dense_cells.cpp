// Cell-aware phase 2 in the session engine: every Clusterer phase 2 groups
// the live points by ε-cell, pre-unions the all-core cells and merges each
// with one box query.  The clustering must stay equivalent to the
// sequential reference on every backend, at every thread count, through
// run, min_pts rerun and sweep — including the inputs that stress the
// grouping: one giant cell, cells mixing core and border members, flat and
// 3-D data, extents beyond the cell-key range, and tombstoned slots.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/failpoint.hpp"
#include "core/clusterer.hpp"
#include "data/generators.hpp"
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
  EXPECT_LT(r.stats.phase2.work.rays, core_count(r));
}

TEST(ClustererDenseCells, ExtentBeyondTheCellKeyRangeFallsBack) {
  // One point 1e6 away: the cell grid would need ~5e6 cells on the x axis,
  // beyond the 2^20 a packed key addresses.  The session must not throw;
  // it falls back to per-point phase 2 (one ray per core point).  The
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
    const ClusterResult& r = session.run(0.3f, 8);
    EXPECT_LT(r.stats.phase2.work.rays, core_count(r))
        << index::to_string(kind);
    const ClusterResult& rerun = session.run(0.3f, 16);
    EXPECT_LT(rerun.stats.phase2.work.rays, core_count(rerun))
        << index::to_string(kind);
  }
}

TEST(ClustererDenseCells, NoQualifyingCellMeansOneRayPerCore) {
  // A lattice at 0.9 eps spacing: every point has its four axis neighbors
  // within eps, but no two points share a cell (edge eps/√2 < 0.9 eps), so
  // no cell qualifies and phase 2 is exactly per-point.
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
    EXPECT_EQ(r.stats.phase2.work.rays, core_count(r))
        << index::to_string(kind);
    expect_oracle_parity(session, r, index::to_string(kind));
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

  // A new eps misses the grouping cache: the fault fires inside
  // finish_run, after the result buffers were touched.
  fail::arm("engine.cells", {.action = fail::Action::kThrowBadAlloc});
  EXPECT_THROW((void)session.run(0.35f, 8), std::bad_alloc);
  fail::disarm_all();
  EXPECT_EQ(session.health(), SessionHealth::kDegraded);
  EXPECT_TRUE(session.validate(ValidationLevel::kQuick).ok);

  (void)session.insert(std::vector<Vec3>{{2.0f, 2.0f, 0.0f}});
  EXPECT_EQ(session.health(), SessionHealth::kHealthy);
  expect_oracle_parity(session, session.result(), "healed");
}

}  // namespace
}  // namespace rtd
