// Session API suite: rtd::Clusterer must produce clusterings identical to
// fresh one-shot rtd::cluster() runs at every eps (for every backend and
// traversal width) while building no index on its batch path and REUSING
// one it holds — refit, not rebuild, on the BVH-backed backends — and its
// structured results (membership views, RunStats, neighbor counts) must
// agree with the raw labels.
#include "core/clusterer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "core/rt_dbscan.hpp"
#include "data/generators.hpp"
#include "dbscan_test_util.hpp"

namespace rtd {
namespace {

using dbscan::Params;
using geom::Vec3;
using index::IndexKind;

/// "Identical clustering" in the DBSCAN sense (dbscan/equivalence.hpp):
/// exact core flags and cluster count, exact noise set (both are
/// deterministic given eps/minPts), and full equivalence — border points
/// may legally tie-break differently across runs on multi-core hosts.
void expect_identical_clustering(std::span<const Vec3> points,
                                 const Params& params,
                                 const dbscan::Clustering& actual,
                                 const dbscan::Clustering& expected,
                                 const std::string& what) {
  ASSERT_EQ(actual.labels.size(), expected.labels.size()) << what;
  EXPECT_EQ(actual.is_core, expected.is_core) << what;
  EXPECT_EQ(actual.cluster_count, expected.cluster_count) << what;
  for (std::size_t i = 0; i < actual.labels.size(); ++i) {
    EXPECT_EQ(actual.labels[i] == kNoise, expected.labels[i] == kNoise)
        << what << ": noise set differs at point " << i;
  }
  const auto eq = dbscan::check_equivalent(points, params, expected, actual);
  EXPECT_TRUE(eq.equivalent) << what << ": " << eq.reason;
}

void expect_identical_clustering(std::span<const Vec3> points,
                                 const Params& params,
                                 const ClusterResult& actual,
                                 const ClusterResult& expected,
                                 const std::string& what) {
  expect_identical_clustering(points, params, actual.to_clustering(),
                              expected.to_clustering(), what);
}

/// A session run against the rt_dbscan one-shot of the same geometry:
/// identical clustering plus exact neighbor counts.
void expect_matches_rt_oneshot(std::span<const Vec3> points,
                               const Params& params, const ClusterResult& r,
                               const core::RtDbscanOptions& options,
                               const std::string& what) {
  const core::RtDbscanResult oneshot =
      core::rt_dbscan(points, params, options);
  expect_identical_clustering(points, params, r.to_clustering(),
                              oneshot.clustering, what);
  EXPECT_EQ(r.neighbor_counts, oneshot.neighbor_counts) << what;
}

const std::vector<float> kSweepEps = {0.18f, 0.28f, 0.4f, 0.55f};

// ---------------------------------------------------------------------------
// Sweep parity: every backend, both sweep directions, the refit-vs-rebuild
// boundary asserted per backend.
// ---------------------------------------------------------------------------

TEST(ClustererSweep, MatchesOneShotClusterOnEveryBackend) {
  const auto dataset = data::taxi_gps(2500, 61);
  const std::uint32_t min_pts = 8;
  for (const IndexKind kind : index::kAllIndexKinds) {
    Clusterer session(dataset.points, Options().with_backend(kind));
    const auto curve = session.sweep(kSweepEps, min_pts);
    ASSERT_EQ(curve.size(), kSweepEps.size());
    const bool refittable = kind == IndexKind::kBvhRt ||
                            kind == IndexKind::kPointBvh ||
                            kind == IndexKind::kBruteForce;
    for (std::size_t s = 0; s < curve.size(); ++s) {
      const ClusterResult& r = curve[s];
      EXPECT_EQ(r.eps, kSweepEps[s]);
      EXPECT_EQ(r.min_pts, min_pts);
      EXPECT_EQ(r.stats.backend, kind);
      // A fresh session's sweep builds no index: entry 0 carries the
      // shared counting launch over the ε-cells, later entries reuse it.
      EXPECT_FALSE(r.stats.index_rebuilt)
          << index::to_string(kind) << " step " << s;
      EXPECT_FALSE(r.stats.index_refitted)
          << index::to_string(kind) << " step " << s;
      if (s == 0) {
        EXPECT_FALSE(r.stats.counts_reused) << index::to_string(kind);
        EXPECT_GT(r.stats.phase1.work.rays, 0u) << index::to_string(kind);
      } else {
        EXPECT_TRUE(r.stats.counts_reused)
            << index::to_string(kind) << " step " << s;
        EXPECT_EQ(r.stats.phase1.work.rays, 0u);  // shared pass, not rerun
      }
      const ClusterResult fresh =
          cluster(dataset.points, kSweepEps[s], min_pts, kind);
      expect_identical_clustering(dataset.points,
                                  Params{kSweepEps[s], min_pts, kind}, r,
                                  fresh, index::to_string(kind));
    }
    // A writer query builds the index at ε_max.  The descending re-sweep
    // retargets it per entry and never rebuilds: entries after the first
    // refit where the backend supports it (try_set_eps) and otherwise
    // reuse the ε_max build outright (grid/dense-box serve radii below
    // build ε).  Parity is order-independent.
    (void)session.query_neighbors(0u, kSweepEps.back());
    std::vector<float> descending(kSweepEps.rbegin(), kSweepEps.rend());
    const auto down = session.sweep(descending, min_pts);
    for (std::size_t s = 0; s < down.size(); ++s) {
      EXPECT_FALSE(down[s].stats.index_rebuilt)
          << index::to_string(kind) << " re-sweep step " << s;
      EXPECT_EQ(down[s].stats.index_refitted, refittable && s > 0)
          << index::to_string(kind) << " re-sweep step " << s;
      const ClusterResult fresh =
          cluster(dataset.points, descending[s], min_pts, kind);
      expect_identical_clustering(dataset.points,
                                  Params{descending[s], min_pts, kind},
                                  down[s], fresh, index::to_string(kind));
    }
  }
}

TEST(ClustererSweep, MatchesOneShotAcrossTraversalWidths) {
  // 6000 points: above rt::kWideBvhMinPrims, so kAuto also resolves wide;
  // explicit widths are honored at any size.
  const auto dataset = data::taxi_gps(6000, 62);
  const std::uint32_t min_pts = 10;
  for (const IndexKind kind : {IndexKind::kPointBvh, IndexKind::kBvhRt}) {
    for (const rt::TraversalWidth width :
         {rt::TraversalWidth::kBinary, rt::TraversalWidth::kWide,
          rt::TraversalWidth::kAuto}) {
      Clusterer session(dataset.points,
                        Options().with_backend(kind).with_width(width));
      const auto curve = session.sweep(kSweepEps, min_pts);
      for (std::size_t s = 0; s < curve.size(); ++s) {
        EXPECT_FALSE(curve[s].stats.index_rebuilt);  // no index built
        EXPECT_FALSE(curve[s].stats.index_refitted);
        const ClusterResult fresh =
            cluster(dataset.points, kSweepEps[s], min_pts, kind);
        expect_identical_clustering(
            dataset.points, Params{kSweepEps[s], min_pts, kind}, curve[s],
            fresh, rt::to_string(width));
      }
      // The resolved layout is reported: explicit requests are honored,
      // kAuto picks wide at this size.
      const rt::TraversalWidth reported = curve.back().stats.width;
      EXPECT_EQ(reported, width == rt::TraversalWidth::kBinary
                              ? rt::TraversalWidth::kBinary
                              : rt::TraversalWidth::kWide);
      // Once a writer query built the index at ε_max, a re-sweep refits it
      // to every entry, and the built index walks the layout reported
      // before it existed.
      (void)session.query_neighbors(0u, kSweepEps.back());
      const auto again = session.sweep(kSweepEps, min_pts);
      for (std::size_t s = 0; s < again.size(); ++s) {
        EXPECT_TRUE(again[s].stats.index_refitted) << s;
        EXPECT_FALSE(again[s].stats.index_rebuilt) << s;
        EXPECT_EQ(again[s].stats.width, reported) << s;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The lazy index: run, rerun and sweep walk the ε-cells and build nothing.
// ---------------------------------------------------------------------------

TEST(ClustererLazyIndex, RunRerunAndSweepBuildNoIndex) {
  const auto dataset = data::taxi_gps(1500, 73);
  const float eps = 0.3f;
  const std::vector<float> ladder = {0.4f, 0.2f, 0.3f};
  for (const IndexKind kind : index::kAllIndexKinds) {
    for (const int threads : {1, 4}) {
      const std::string what = std::string(index::to_string(kind)) +
                               " / threads " + std::to_string(threads);
      Clusterer session(dataset.points,
                        Options().with_backend(kind).with_threads(threads));
      std::vector<ClusterResult> results;
      results.push_back(session.run(eps, 8));
      results.push_back(session.run(eps, 16));
      const std::vector<ClusterResult> swept = session.sweep(ladder, 8);
      results.insert(results.end(), swept.begin(), swept.end());
      for (const ClusterResult& r : results) {
        const std::string step = what + " / eps " + std::to_string(r.eps) +
                                 " minPts " + std::to_string(r.min_pts);
        EXPECT_FALSE(r.stats.index_rebuilt) << step;
        EXPECT_FALSE(r.stats.index_refitted) << step;
        EXPECT_EQ(r.stats.timings.index_build_seconds, 0.0) << step;
        EXPECT_EQ(r.stats.backend, kind) << step;
        testutil::expect_matches_reference(
            dataset.points, Params{r.eps, r.min_pts}, r.to_clustering(),
            step.c_str());
      }
      // The ε the first snapshot will serve: the last clustering's.
      EXPECT_EQ(session.current_eps(), ladder.back()) << what;
    }
  }
}

// ---------------------------------------------------------------------------
// min_pts reruns and the neighbor-count cache.
// ---------------------------------------------------------------------------

TEST(Clusterer, MinPtsRerunReusesCountsAndMatchesOneShot) {
  const auto dataset = data::taxi_gps(3000, 63);
  const float eps = 0.3f;
  // The kAuto session against rtd::cluster, and the paper's RT sphere scene
  // with Morton-ordered launches against the rt_dbscan one-shot.
  const core::RtDbscanOptions rt_options;
  for (const bool rt : {false, true}) {
    const std::string what = rt ? "bvhrt+reorder" : "auto";
    Clusterer session(dataset.points,
                      rt ? Options()
                               .with_backend(IndexKind::kBvhRt)
                               .with_reorder_queries(true)
                         : Options());
    EXPECT_FALSE(session.counts_cached());
    const ClusterResult& first = session.run(eps, 5);
    EXPECT_GT(first.stats.phase1.work.rays, 0u) << what;
    if (rt) {
      expect_matches_rt_oneshot(dataset.points, Params{eps, 5}, first,
                                rt_options, what + " first run");
    }
    EXPECT_TRUE(session.counts_cached());
    for (const std::uint32_t min_pts : {20u, 3u, 50u, 2u}) {
      const ClusterResult& r = session.run(eps, min_pts);
      EXPECT_TRUE(r.stats.counts_reused) << what << " " << min_pts;
      EXPECT_FALSE(r.stats.index_rebuilt);
      EXPECT_FALSE(r.stats.index_refitted);
      EXPECT_EQ(r.stats.phase1.work.rays, 0u);  // phase 1 did not run
      EXPECT_EQ(r.stats.phase1.seconds, 0.0);
      if (rt) {
        expect_matches_rt_oneshot(dataset.points, Params{eps, min_pts}, r,
                                  rt_options, what + " minPts rerun");
      } else {
        const ClusterResult fresh = cluster(dataset.points, eps, min_pts);
        expect_identical_clustering(dataset.points, Params{eps, min_pts}, r,
                                    fresh, "minPts rerun");
      }
    }
    // A query at the same eps leaves the index and the cache alone.
    (void)session.query_neighbors(0u, eps);
    EXPECT_TRUE(session.counts_cached());
    EXPECT_TRUE(session.run(eps, 7).stats.counts_reused) << what;
    // An eps change invalidates the cache...
    const ClusterResult& moved = session.run(eps * 1.3f, 5);
    EXPECT_FALSE(moved.stats.counts_reused);
    // ...and exact counts are cached again for the new eps.
    EXPECT_TRUE(session.counts_cached());
    if (!rt) continue;
    // The RT scene refits across eps changes, and each new eps recounts
    // once, then serves min_pts reruns from the cache.
    for (const float step : {0.2f, 0.5f, 0.1f}) {
      const ClusterResult& r = session.run(step, 10);
      EXPECT_FALSE(r.stats.counts_reused) << step;
      EXPECT_TRUE(r.stats.index_refitted) << step;
      EXPECT_FALSE(r.stats.index_rebuilt) << step;
      expect_matches_rt_oneshot(dataset.points, Params{step, 10}, r,
                                rt_options, what + " eps step");
      const ClusterResult& rerun = session.run(step, 25);
      EXPECT_TRUE(rerun.stats.counts_reused) << step;
      expect_matches_rt_oneshot(dataset.points, Params{step, 25}, rerun,
                                rt_options, what + " eps step rerun");
    }
  }
}

// ---------------------------------------------------------------------------
// Structured results: membership views, counts, stats.
// ---------------------------------------------------------------------------

TEST(Clusterer, MembershipViewsAgreeWithLabels) {
  const auto dataset = data::gaussian_blobs(2200, 4, 0.6f, 25.0f, 2, 65);
  Clusterer session(dataset.points);
  const ClusterResult& r = session.run(0.5f, 8);
  ASSERT_GT(r.cluster_count, 0u);
  ASSERT_EQ(r.member_starts.size(), r.cluster_count + 2);
  ASSERT_EQ(r.members.size(), r.labels.size());

  std::vector<bool> seen(r.labels.size(), false);
  for (std::int32_t c = 0; c < static_cast<std::int32_t>(r.cluster_count);
       ++c) {
    const auto members = r.members_of(c);
    EXPECT_EQ(members.size(), static_cast<std::size_t>(std::count(
                                  r.labels.begin(), r.labels.end(), c)));
    EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
    for (const std::uint32_t i : members) {
      EXPECT_EQ(r.labels[i], c);
      seen[i] = true;
    }
  }
  const auto noise = r.noise();
  EXPECT_EQ(noise.size(), r.noise_count());
  EXPECT_TRUE(std::is_sorted(noise.begin(), noise.end()));
  for (const std::uint32_t i : noise) {
    EXPECT_EQ(r.labels[i], kNoise);
    seen[i] = true;
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));

  // Out-of-range ids yield empty views, not UB.
  EXPECT_TRUE(r.members_of(-1).empty());
  EXPECT_TRUE(
      r.members_of(static_cast<std::int32_t>(r.cluster_count)).empty());
  EXPECT_EQ(r.core_count() + r.border_count() + r.noise_count(), r.size());
}

TEST(Clusterer, NeighborCountsAreExactWithoutEarlyExit) {
  const auto dataset = data::taxi_gps(900, 66);
  const float eps = 0.35f;
  Clusterer session(dataset.points);
  const ClusterResult& r = session.run(eps, 6);
  ASSERT_EQ(r.neighbor_counts.size(), dataset.size());
  const float eps2 = eps * eps;
  for (std::uint32_t i = 0; i < dataset.size(); i += 37) {
    std::uint32_t expected = 0;
    for (std::uint32_t j = 0; j < dataset.size(); ++j) {
      if (j != i &&
          geom::distance_squared(dataset.points[i], dataset.points[j]) <=
              eps2) {
        ++expected;
      }
    }
    EXPECT_EQ(r.neighbor_counts[i], expected) << i;
  }
}

TEST(Clusterer, AutoBackendIsResolvedReportedAndPinned) {
  const auto dataset = data::taxi_gps(3000, 67);
  Clusterer session(dataset.points);
  EXPECT_EQ(session.backend(), IndexKind::kAuto);  // not resolved yet
  EXPECT_EQ(session.current_eps(), std::nullopt);
  const ClusterResult& r = session.run(0.3f, 10);
  EXPECT_NE(r.stats.backend, IndexKind::kAuto);
  EXPECT_EQ(r.stats.backend, session.backend());
  EXPECT_EQ(session.current_eps(), 0.3f);
  const IndexKind pinned = session.backend();
  // The choice stays pinned across the sweep (comparable results).
  for (const ClusterResult& s : session.sweep(kSweepEps, 10)) {
    EXPECT_EQ(s.stats.backend, pinned);
  }
}

TEST(Clusterer, ResultCopiesAreIndependentSnapshots) {
  const auto dataset = data::taxi_gps(1200, 68);
  Clusterer session(dataset.points);
  const ClusterResult snapshot = session.run(0.3f, 5);  // deep copy
  const ClusterResult& second = session.run(0.6f, 5);
  EXPECT_EQ(snapshot.eps, 0.3f);
  EXPECT_EQ(second.eps, 0.6f);
  // The snapshot kept the first run's data even though the session's
  // internal result buffer was overwritten.
  const ClusterResult fresh = cluster(dataset.points, 0.3f, 5);
  expect_identical_clustering(dataset.points, Params{0.3f, 5}, snapshot,
                              fresh, "snapshot");
}

TEST(Clusterer, TakeResultRunTakeResultCycleYieldsIndependentResults) {
  // Regression: take_result() used to leave the session holding moved-from
  // buffers, so the NEXT run() could resize storage the taken result still
  // aliased conceptually — the cycle must produce two complete, fully
  // independent results.
  const auto dataset = data::taxi_gps(1100, 90);
  Clusterer session(dataset.points);
  (void)session.run(0.25f, 6);
  const ClusterResult first = session.take_result();
  ASSERT_EQ(first.labels.size(), dataset.size());
  ASSERT_EQ(first.members.size(), dataset.size());
  ASSERT_EQ(first.member_starts.size(), first.cluster_count + 2);
  EXPECT_EQ(first.eps, 0.25f);

  (void)session.run(0.5f, 6);
  const ClusterResult second = session.take_result();
  ASSERT_EQ(second.labels.size(), dataset.size());
  ASSERT_EQ(second.members.size(), dataset.size());
  ASSERT_EQ(second.member_starts.size(), second.cluster_count + 2);
  EXPECT_EQ(second.eps, 0.5f);

  // Both match their own fresh oracle — the second run did not recycle the
  // first result's (taken) storage into a partial result.
  expect_identical_clustering(dataset.points, Params{0.25f, 6}, first,
                              cluster(dataset.points, 0.25f, 6),
                              "taken first");
  expect_identical_clustering(dataset.points, Params{0.5f, 6}, second,
                              cluster(dataset.points, 0.5f, 6),
                              "taken second");

  // A stray second take without an intervening run: well-formed empty, not
  // moved-from remains with stale scalars.
  const ClusterResult stray = session.take_result();
  EXPECT_TRUE(stray.labels.empty());
  EXPECT_TRUE(stray.members.empty());
  EXPECT_EQ(stray.cluster_count, 0u);
  EXPECT_EQ(stray.eps, 0.0f);

  // And the session is still fully usable afterwards.
  const ClusterResult& again = session.run(0.25f, 6);
  expect_identical_clustering(dataset.points, Params{0.25f, 6}, again,
                              cluster(dataset.points, 0.25f, 6),
                              "run after takes");
}

TEST(ClustererSweep, DuplicateLadderValuesShareColumnsAndMatch) {
  // Duplicates are legal: each occurrence yields its own entry, in input
  // order, identical to a fresh run (internally they share ONE bucketing
  // column — this asserts the column mapping, not just the dedup).
  const auto dataset = data::taxi_gps(1000, 91);
  const std::vector<float> ladder = {0.3f, 0.45f, 0.3f, 0.2f, 0.45f};
  const std::uint32_t min_pts = 6;
  Clusterer session(dataset.points);
  const auto curve = session.sweep(ladder, min_pts);
  ASSERT_EQ(curve.size(), ladder.size());
  for (std::size_t s = 0; s < curve.size(); ++s) {
    EXPECT_EQ(curve[s].eps, ladder[s]);
    const ClusterResult fresh = cluster(dataset.points, ladder[s], min_pts);
    expect_identical_clustering(dataset.points, Params{ladder[s], min_pts},
                                curve[s], fresh, "duplicate ladder entry");
  }
  // Duplicate entries are bit-identical to each other (same column).
  EXPECT_EQ(curve[0].neighbor_counts, curve[2].neighbor_counts);
  EXPECT_EQ(curve[1].neighbor_counts, curve[4].neighbor_counts);
}

TEST(ClustererSweep, RejectsNonFiniteAndNonPositiveLadderValues) {
  // A NaN in the ladder must fail up front — NEVER drive max(eps_values)
  // (NaN poisons max_element) or size the bucketing scratch.
  const auto pts = testutil::two_squares_and_outlier();
  Clusterer session(pts);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_THROW((void)session.sweep(std::vector<float>{0.3f, nan, 0.5f}, 3),
               std::invalid_argument);
  EXPECT_THROW((void)session.sweep(std::vector<float>{0.3f, inf}, 3),
               std::invalid_argument);
  EXPECT_THROW((void)session.sweep(std::vector<float>{0.3f, 0.0f}, 3),
               std::invalid_argument);
  EXPECT_THROW((void)session.sweep(std::vector<float>{-0.3f}, 3),
               std::invalid_argument);
  EXPECT_THROW((void)session.sweep(std::vector<float>{0.3f}, 0),
               std::invalid_argument);
  // Validation happened before any state was touched: no index was built.
  EXPECT_EQ(session.current_eps(), std::nullopt);
  // An empty ladder is a no-op, not an error.
  EXPECT_TRUE(session.sweep(std::vector<float>{}, 3).empty());
}

// ---------------------------------------------------------------------------
// Passthrough queries: neighbors, k-dist, kNN.
// ---------------------------------------------------------------------------

TEST(Clusterer, QueryNeighborsMatchesBruteOracle) {
  const auto dataset = data::taxi_gps(1500, 69);
  Clusterer session(dataset.points,
                    Options().with_backend(IndexKind::kBvhRt));
  for (const float eps : {0.2f, 0.45f}) {  // second value forces a refit
    for (const std::uint32_t q : {0u, 700u, 1499u}) {
      const float eps2 = eps * eps;
      std::vector<std::uint32_t> expected;
      for (std::uint32_t j = 0; j < dataset.size(); ++j) {
        if (j != q &&
            geom::distance_squared(dataset.points[q], dataset.points[j]) <=
                eps2) {
          expected.push_back(j);
        }
      }
      EXPECT_EQ(session.query_neighbors(q, eps), expected) << q;
      // Center-based form includes q itself (off-dataset semantics).
      auto with_self = expected;
      with_self.push_back(q);
      std::sort(with_self.begin(), with_self.end());
      EXPECT_EQ(session.query_neighbors(dataset.points[q], eps), with_self);
    }
  }
  // The passthrough retargeted the index; clustering still works after.
  const ClusterResult& r = session.run(0.3f, 10);
  const ClusterResult fresh =
      cluster(dataset.points, 0.3f, 10, IndexKind::kBvhRt);
  expect_identical_clustering(dataset.points,
                              Params{0.3f, 10, IndexKind::kBvhRt}, r, fresh,
                              "after query_neighbors");
}

TEST(Clusterer, KdistAndKnnPassthrough) {
  const auto dataset = data::taxi_gps(800, 70);
  Clusterer session(dataset.points);
  const auto kd = session.kdist(4);
  const auto direct = core::kdist_graph(dataset.points, 4);
  EXPECT_EQ(kd.k, direct.k);
  EXPECT_EQ(kd.sorted_kdist, direct.sorted_kdist);
  EXPECT_EQ(kd.suggested_eps, direct.suggested_eps);
  EXPECT_GT(session.suggest_eps(4), 0.0f);
  // k = 0: the classic 2 * dims default (taxi data is flat -> 4).
  EXPECT_EQ(session.kdist().k, 4u);

  const auto nn = session.knn(3);
  EXPECT_EQ(nn.k, 3u);
  EXPECT_EQ(nn.indices.size(), dataset.size() * 3);
}

// ---------------------------------------------------------------------------
// Triangle geometry (§VI-C) sessions.
// ---------------------------------------------------------------------------

TEST(ClustererTriangle, SweepMatchesOneShotAndRefits) {
  // A triangle session is the session over index::TriangleIndex: the same
  // cell phases and shared sweep as every sphere session, held to the same
  // contract against the §VI-C one-shot — identical clustering (a contested
  // border may join either cluster), exact counts and core flags.
  const auto pts = data::taxi_gps(600, 71).points;
  const std::uint32_t min_pts = 5;
  const std::vector<float> eps_values = {0.25f, 0.35f, 0.5f};
  struct Case {
    rt::TraversalWidth width;
    int subdivisions;
    bool reorder;
  };
  const Case cases[] = {{rt::TraversalWidth::kBinary, 0, false},
                        {rt::TraversalWidth::kBinary, 1, false},
                        {rt::TraversalWidth::kWide, 0, false},
                        {rt::TraversalWidth::kWide, 1, false},
                        {rt::TraversalWidth::kBinary, 1, true}};
  for (const Case& c : cases) {
    const std::string what = std::string(rt::to_string(c.width)) + " s=" +
                             std::to_string(c.subdivisions) +
                             (c.reorder ? " reordered" : "");
    core::RtDbscanOptions oneshot;
    oneshot.geometry = core::GeometryMode::kTriangles;
    oneshot.triangle_subdivisions = c.subdivisions;
    oneshot.device.build.width = c.width;
    Clusterer session(pts, Options()
                               .with_geometry(core::GeometryMode::kTriangles)
                               .with_triangle_subdivisions(c.subdivisions)
                               .with_width(c.width)
                               .with_reorder_queries(c.reorder));
    EXPECT_FALSE(session.counts_cached()) << what;
    const auto curve = session.sweep(eps_values, min_pts);
    ASSERT_EQ(curve.size(), eps_values.size());
    for (std::size_t s = 0; s < curve.size(); ++s) {
      const ClusterResult& r = curve[s];
      EXPECT_EQ(r.stats.geometry, core::GeometryMode::kTriangles);
      EXPECT_EQ(r.stats.backend, IndexKind::kBvhRt);
      EXPECT_EQ(r.stats.width, c.width) << what;
      // Entry 0 counts the whole ladder over the ε-cells; no entry builds
      // or refits the mesh.
      EXPECT_FALSE(r.stats.index_rebuilt) << what << " step " << s;
      EXPECT_FALSE(r.stats.index_refitted) << what << " step " << s;
      EXPECT_EQ(r.stats.counts_reused, s > 0) << what << " step " << s;
      expect_matches_rt_oneshot(pts, Params{eps_values[s], min_pts}, r,
                                oneshot, what + " sweep");
    }
    // The session's phase 2 walks the ε-cells and traces nothing; the
    // one-shot traces its phase-2 rays through the tessellated mesh.
    EXPECT_EQ(curve.front().stats.phase2.work.anyhit_calls, 0u) << what;
    EXPECT_GT(core::rt_dbscan(pts, Params{eps_values[0], min_pts}, oneshot)
                  .phase2.work.anyhit_calls,
              0u)
        << what;
    // The accessor reports the resolved pipeline, not kAuto.
    EXPECT_EQ(session.backend(), IndexKind::kBvhRt);
    EXPECT_TRUE(session.counts_cached()) << what;
    // Same-ε reruns keep the counts and skip phase 1 entirely.
    const ClusterResult& same = session.run(0.5f, min_pts);
    EXPECT_TRUE(same.stats.counts_reused) << what;
    EXPECT_FALSE(same.stats.index_refitted) << what;
    const ClusterResult& rerun = session.run(0.5f, min_pts * 2);
    EXPECT_TRUE(rerun.stats.counts_reused) << what;
    EXPECT_EQ(rerun.stats.phase1.work.rays, 0u) << what;
    testutil::expect_matches_reference(pts, Params{0.5f, min_pts * 2},
                                       rerun.to_clustering(),
                                       "triangle minPts rerun");
    // Once a writer query built the mesh, a new ε rescales and refits it
    // and recounts.
    (void)session.query_neighbors(0u, 0.5f);
    const ClusterResult& moved = session.run(0.15f, min_pts);
    EXPECT_TRUE(moved.stats.index_refitted) << what;
    EXPECT_FALSE(moved.stats.index_rebuilt) << what;
    EXPECT_FALSE(moved.stats.counts_reused) << what;
    expect_matches_rt_oneshot(pts, Params{0.15f, min_pts}, moved, oneshot,
                              what + " eps step");
    // Point queries go through the mesh too (refitting it to their ε) and
    // return the exact neighborhood.
    for (const float eps : {0.15f, 0.4f}) {
      for (const std::uint32_t i : {0u, 123u, 599u}) {
        std::vector<std::uint32_t> exact;
        for (std::uint32_t j = 0; j < pts.size(); ++j) {
          if (j != i && geom::distance_squared(pts[i], pts[j]) <= eps * eps) {
            exact.push_back(j);
          }
        }
        EXPECT_EQ(session.query_neighbors(i, eps), exact)
            << what << " eps=" << eps << " point " << i;
      }
    }
  }

  // An empty triangle session sweeps and runs (nothing to rescale).
  Clusterer empty(std::vector<Vec3>{},
                  Options().with_geometry(core::GeometryMode::kTriangles));
  const auto curve = empty.sweep(std::vector<float>{0.3f, 0.5f}, 3);
  ASSERT_EQ(curve.size(), 2u);
  for (const ClusterResult& r : curve) {
    EXPECT_TRUE(r.labels.empty());
    EXPECT_EQ(r.cluster_count, 0u);
  }
  EXPECT_EQ(empty.run(0.4f, 3).cluster_count, 0u);
}

// ---------------------------------------------------------------------------
// Validation and edge cases.
// ---------------------------------------------------------------------------

TEST(Clusterer, RejectsInvalidArguments) {
  const auto pts = testutil::two_squares_and_outlier();
  Clusterer session(pts);
  EXPECT_THROW((void)session.run(0.0f, 3), std::invalid_argument);
  EXPECT_THROW((void)session.run(-1.0f, 3), std::invalid_argument);
  EXPECT_THROW((void)session.run(1.5f, 0), std::invalid_argument);
  // NaN/inf radii must fail loudly, not build a degenerate index.
  EXPECT_THROW((void)session.run(std::numeric_limits<float>::quiet_NaN(), 3),
               std::invalid_argument);
  EXPECT_THROW((void)session.run(std::numeric_limits<float>::infinity(), 3),
               std::invalid_argument);
  EXPECT_THROW((void)session.query_neighbors(Vec3{0, 0, 0}, 0.0f),
               std::invalid_argument);
  EXPECT_THROW((void)session.query_neighbors(999u, 1.0f),
               std::invalid_argument);
  // A non-finite CENTER is rejected too — and BEFORE the index is touched,
  // so a garbage request can never retarget the session to a degenerate ε.
  const Vec3 bad_center{std::numeric_limits<float>::quiet_NaN(), 0, 0};
  EXPECT_THROW((void)session.query_neighbors(bad_center, 0.5f),
               std::invalid_argument);
  EXPECT_THROW(
      (void)session.query_neighbors(Vec3{0, 0, 0},
                                    std::numeric_limits<float>::quiet_NaN()),
      std::invalid_argument);
  EXPECT_EQ(session.current_eps(), std::nullopt);  // index never built
  // Triangle geometry cannot run on a non-RT backend.
  EXPECT_THROW(Clusterer(pts, Options()
                                  .with_geometry(
                                      core::GeometryMode::kTriangles)
                                  .with_backend(IndexKind::kGrid)),
               std::invalid_argument);
  // Triangle sessions validate their parameters the same way.
  Clusterer triangles(
      pts, Options().with_geometry(core::GeometryMode::kTriangles));
  EXPECT_THROW((void)triangles.run(0.0f, 3), std::invalid_argument);
  EXPECT_THROW((void)triangles.run(-1.0f, 3), std::invalid_argument);
  EXPECT_THROW((void)triangles.run(1.5f, 0), std::invalid_argument);
  EXPECT_THROW(Clusterer(pts, Options()
                                  .with_geometry(
                                      core::GeometryMode::kTriangles)
                                  .with_triangle_subdivisions(-1)),
               std::invalid_argument);
  // Non-finite coordinates fail at construction.
  std::vector<Vec3> bad = pts;
  bad.push_back(Vec3{0.0f, std::numeric_limits<float>::quiet_NaN(), 0.0f});
  EXPECT_THROW(Clusterer{bad}, std::invalid_argument);
}

TEST(Clusterer, EmptyDataset) {
  Clusterer session((std::vector<Vec3>()));
  const ClusterResult& r = session.run(1.0f, 3);
  EXPECT_TRUE(r.labels.empty());
  EXPECT_TRUE(r.is_core.empty());
  EXPECT_EQ(r.cluster_count, 0u);
  EXPECT_TRUE(r.noise().empty());
  EXPECT_TRUE(r.members_of(0).empty());
  EXPECT_TRUE(session.sweep(kSweepEps, 3).size() == kSweepEps.size());
  EXPECT_TRUE(session.query_neighbors(Vec3{0, 0, 0}, 1.0f).empty());
}

TEST(Clusterer, OneShotWrapperStillWorksForEveryBackend) {
  // The legacy entry point is now a thin wrapper over a throwaway session;
  // its contract (tests/test_api.cpp) and backends must keep working.
  const auto dataset = data::two_rings(2000, 72);
  const Params params{0.8f, 5};
  for (const IndexKind kind : index::kAllIndexKinds) {
    const ClusterResult r =
        cluster(dataset.points, params.eps, params.min_pts, kind);
    testutil::expect_matches_reference(dataset.points, params,
                                       r.to_clustering(), "wrapper");
    EXPECT_EQ(r.stats.backend, kind);
    EXPECT_FALSE(r.stats.index_rebuilt);  // the one-shot builds no index
  }
}

}  // namespace
}  // namespace rtd
