// Quickstart: cluster a synthetic 2-D dataset with the session API, with a
// runtime-selectable neighbor backend and traversal width.
//
//   ./quickstart [--n 20000] [--eps 0.4] [--minpts 10] [--backend auto]
//                [--width auto] [--trace out.json]
//
// --backend is any rtd::index::IndexKind name (auto, bvhrt, pointbvh, grid,
// densebox, brute); --width picks the BVH traversal layout (auto, binary,
// wide); --trace drains the run's telemetry spans into a Chrome trace-event
// JSON file (needs a build with -DRTDBSCAN_TELEMETRY=ON).
// Demonstrates rtd::Clusterer — the session is built once, run() builds no
// neighbor index, the second run() at a new min_pts reuses the cached
// neighbor counts (phase 1 skipped), and the first snapshot() builds the
// index that serves reads.  This file is the README's "Quick use" snippet,
// kept compiling.
#include <cstdio>

#include "common/cli.hpp"
#include "common/timer.hpp"
#include "core/api.hpp"
#include "data/generators.hpp"

int main(int argc, char** argv) {
  const rtd::Flags flags(argc, argv);
  // Arms telemetry when --trace is given; writes the trace on scope exit.
  const rtd::cli::TraceSink trace(flags);
  const auto n = static_cast<std::size_t>(flags.get_int("n", 20000));
  const float eps = static_cast<float>(flags.get_double("eps", 0.4));
  const auto min_pts =
      static_cast<std::uint32_t>(flags.get_int("minpts", 10));
  const auto backend = rtd::cli::backend_flag(flags);
  const auto width = rtd::cli::width_flag(flags);
  if (!backend || !width) return 1;

  // Five Gaussian blobs plus background noise in a 40x40 box.
  const rtd::data::Dataset dataset =
      rtd::data::gaussian_blobs(n, /*k=*/5, /*stddev=*/0.8f,
                                /*extent=*/40.0f);

  // A session owns the dataset; run() is the entire pipeline (neighbor
  // counts and cluster formation over the ε-cells).  It builds no neighbor
  // index: the first snapshot() or ε-query builds one to serve reads.
  rtd::Clusterer session(
      dataset.points,
      rtd::Options().with_backend(*backend).with_width(*width));
  const rtd::ClusterResult& result = session.run(eps, min_pts);

  std::printf("rtd::Clusterer quickstart\n");
  std::printf("  points      : %zu\n", dataset.size());
  std::printf("  eps / minPts: %.3f / %u\n", static_cast<double>(eps),
              min_pts);
  std::printf("  backend     : %s (requested %s), width %s\n",
              rtd::index::to_string(result.stats.backend),
              rtd::index::to_string(*backend),
              rtd::rt::to_string(result.stats.width));
  std::printf("  clusters    : %u\n", result.cluster_count);
  std::printf("  noise points: %zu (%.1f%%)\n", result.noise_count(),
              100.0 * static_cast<double>(result.noise_count()) /
                  static_cast<double>(dataset.size()));
  std::printf("  wall time   : %.3f ms (phase 1 %.3f ms, phase 2 %.3f ms)\n",
              result.seconds * 1e3, result.stats.phase1.seconds * 1e3,
              result.stats.phase2.seconds * 1e3);

  // Per-cluster sizes via the membership views (top 5).
  std::printf("  cluster sizes:");
  for (std::uint32_t c = 0; c < result.cluster_count && c < 5; ++c) {
    std::printf(" %zu", result.members_of(static_cast<std::int32_t>(c)).size());
  }
  std::printf("%s\n", result.cluster_count > 5 ? " ..." : "");

  // Re-run at a different minPts: the session reuses the cached neighbor
  // counts and ε-cells, paying only cluster formation (§VI-B).
  const rtd::ClusterResult& rerun = session.run(eps, min_pts * 2);
  std::printf("  rerun minPts=%u: %u clusters in %.3f ms (%s)\n", min_pts * 2,
              rerun.cluster_count, rerun.seconds * 1e3,
              rerun.stats.counts_reused ? "cached counts, phase 1 skipped"
                                        : "counts recomputed");

  // Serving reads: the first snapshot builds the neighbor index at the
  // last clustering's ε; later reads reuse it.
  const rtd::Timer build;
  const auto snap = session.snapshot();
  std::printf("  first snapshot: %s index at eps %.3f built in %.3f ms, "
              "%zu neighbors of point 0\n",
              rtd::index::to_string(snap->backend()),
              static_cast<double>(snap->eps()), build.millis(),
              snap->query_neighbors(0u).size());
  return 0;
}
