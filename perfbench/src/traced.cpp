// Traced pass: times the calls into each layer's public functions with the
// benchmark's own spans and records the exact work counters they return.
// End-to-end numbers never come from this pass.
#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "dbscan/engine.hpp"
#include "dbscan/fdbscan_densebox.hpp"
#include "dsu/atomic_disjoint_set.hpp"
#include "index/neighbor_index.hpp"

namespace perfbench {

namespace {

constexpr int kReps = 3;
constexpr int kRetargets = 6;  // even: the session ends back at eps

using rtd::index::IndexKind;

struct Work {
  std::uint64_t nodes1 = 0, isect1 = 0, nodes2 = 0, isect2 = 0,
                neighbors = 0;
  bool operator==(const Work&) const = default;
};

/// Cold Clusterer::run on a fresh session, untraced vs traced, interleaved.
/// Returns the untraced median.
double run_overhead(const RunConfig& cfg, std::span<const Vec3> pts,
                    Tracer& tr, Report& report) {
  const Workload& w = cfg.workload;
  std::vector<double> plain;
  for (int i = 0; i < kReps; ++i) {
    {
      auto s = rtd::Clusterer::borrowing(pts);
      report.attempt();
      const auto t0 = Clock::now();
      s.run(w.eps, w.min_pts);
      plain.push_back(seconds_since(t0));
    }
    auto s = rtd::Clusterer::borrowing(pts);
    report.attempt();
    Tracer::Span span(tr, "core.Clusterer.run");
    s.run(w.eps, w.min_pts);
  }
  const double untraced = median(plain);
  report.metric("trace.overhead",
                median(tr.durations("core.Clusterer.run")) / untraced,
                "ratio");
  return untraced;
}

/// Replays Clusterer::run layer by layer: index build, phase 1, phase 2.
void batch_layers(const RunConfig& cfg, std::span<const Vec3> pts,
                  IndexKind backend, const rtd::dbscan::Clustering& ref,
                  Tracer& tr, Report& report) {
  const Workload& w = cfg.workload;
  const rtd::dbscan::Params params{w.eps, w.min_pts, backend};
  const std::size_t n = pts.size();
  Work first;
  for (int rep = 0; rep < kReps; ++rep) {
    report.attempt();
    Tracer::Span root(tr, "layers.run");
    std::unique_ptr<rtd::index::NeighborIndex> idx;
    {
      Tracer::Span s(tr, "index.make_index");
      idx = rtd::index::make_index(pts, w.eps, backend);
    }
    const auto order = rtd::dbscan::query_launch_order(pts, false);
    std::vector<std::uint32_t> counts;
    Work work;
    {
      Tracer::Span s(tr, "dbscan.index_phase1");
      const auto ls =
          rtd::dbscan::index_phase1(*idx, params, order, false, 0, counts);
      work.nodes1 = ls.work.nodes_visited;
      work.isect1 = ls.work.isect_calls;
      s.count("nodes", work.nodes1);
      s.count("isect", work.isect1);
    }
    rtd::dbscan::Clustering c;
    c.is_core.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      work.neighbors += counts[i];
      c.is_core[i] = counts[i] + 1 >= w.min_pts ? 1 : 0;
    }
    rtd::dsu::AtomicDisjointSet dsu(n);
    std::vector<std::atomic<std::uint8_t>> claimed(n);
    {
      Tracer::Span s(tr, "dbscan.index_phase2");
      const auto ls = rtd::dbscan::index_phase2(*idx, w.eps, order, c.is_core,
                                                dsu, claimed, 0);
      work.nodes2 = ls.work.nodes_visited;
      work.isect2 = ls.work.isect_calls;
      s.count("nodes", work.nodes2);
      s.count("isect", work.isect2);
    }
    root.end();
    if (rep == 0) {
      first = work;
      rtd::dbscan::finalize_labels(
          n, [&](std::uint32_t x) { return dsu.find(x); }, c.is_core, c);
      seed_cluster_fault(cfg, c);
      check_same(report, pts, w.eps, w.min_pts, c, ref,
                 "layer replay vs Clusterer::run");
    } else {
      report.check(work == first, "layer work counters did not repeat");
    }
  }
  report.metric("index.build_s", median(tr.durations("index.make_index")),
                "s");
  report.metric("dbscan.phase1_s",
                median(tr.durations("dbscan.index_phase1")), "s");
  report.metric("dbscan.phase2_s",
                median(tr.durations("dbscan.index_phase2")), "s");
  report.metric("rt.phase1_nodes", static_cast<double>(first.nodes1), "count");
  report.metric("rt.phase1_isect", static_cast<double>(first.isect1), "count");
  report.metric("rt.phase2_nodes", static_cast<double>(first.nodes2), "count");
  report.metric("rt.phase2_isect", static_cast<double>(first.isect2), "count");
  const auto isect1 = std::max<std::uint64_t>(1, first.isect1);
  report.metric("rt.phase1_yield",
                static_cast<double>(first.neighbors) /
                    static_cast<double>(isect1),
                "ratio");

  // The sweep's index work: refit along the ladder, rebuild where the
  // backend declines.
  const float ladder[] = {0.5f * w.eps, 0.75f * w.eps, w.eps, 1.25f * w.eps};
  for (int rep = 0; rep < kReps; ++rep) {
    auto idx = rtd::index::make_index(pts, w.eps, backend);
    report.attempt();
    Tracer::Span s(tr, "index.refit_ladder");
    for (const float e : ladder) {
      Tracer::Span step(tr, "index.try_set_eps");
      if (!idx->try_set_eps(e)) {
        Tracer::Span rebuild(tr, "index.make_index.declined_refit");
        idx = rtd::index::make_index(pts, e, backend);
      }
    }
  }
  report.metric("index.refit_s", median(tr.durations("index.refit_ladder")),
                "s");

  double dense_frac = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    report.attempt();
    Tracer::Span s(tr, "dbscan.fdbscan_densebox");
    const auto db = rtd::dbscan::fdbscan_densebox(pts, params);
    s.count("dense_points", db.dense_points);
    s.end();
    dense_frac =
        static_cast<double>(db.dense_points) / static_cast<double>(n);
    if (rep == 0) {
      check_same(report, pts, w.eps, w.min_pts, db.clustering, ref,
                 "fdbscan_densebox vs Clusterer::run");
    }
  }
  report.metric("dbscan.dense_point_frac", dense_frac, "ratio");
  report.metric("dbscan.densebox_ref_s",
                median(tr.durations("dbscan.fdbscan_densebox")), "s");
}

void live_layers(const RunConfig& cfg, const Inputs& in, Tracer& tr,
                 Report& report) {
  const Workload& w = cfg.workload;
  const float alt = kAltEpsFactor * w.eps;
  rtd::Clusterer live(in.window);
  report.attempt();
  live.run(w.eps, w.min_pts);
  (void)live.snapshot();
  const IndexKind backend = live.backend();
  report.info("live_backend", rtd::index::to_string(backend));
  report.info("live_width", rtd::rt::to_string(live.result().stats.width));

  // What a snapshot-aliased retarget builds: a replacement index.
  for (int rep = 0; rep < kReps; ++rep) {
    report.attempt();
    Tracer::Span s(tr, "index.make_index.retarget");
    (void)rtd::index::make_index(in.window, alt, backend);
  }
  report.metric("index.retarget_build_s",
                median(tr.durations("index.make_index.retarget")), "s");

  rtd::Rng rng(cfg.seed ^ 0x3717ULL);
  for (int k = 0; k < kRetargets; ++k) {
    const Vec3 c = in.window[rng.below(in.window.size())];
    report.attempt();
    Tracer::Span root(tr, "live.retarget");
    {
      Tracer::Span s(tr, "core.Clusterer.query_neighbors.retarget");
      (void)live.query_neighbors(c, k % 2 == 0 ? alt : w.eps);
    }
    Tracer::Span s(tr, "core.Clusterer.snapshot.publish");
    (void)live.snapshot();
  }
  std::vector<double> publish_ms;
  for (const double d : tr.durations("core.Clusterer.snapshot.publish")) {
    publish_ms.push_back(d * 1e3);
  }
  report.metric("core.snapshot_publish_ms", median(publish_ms), "ms");

  const auto& batches = in.read_batches;
  const auto totals = check_reads(cfg, live, batches, alt, report);
  std::uint64_t nodes = 0, isect = 0, queries = 0;
  std::vector<double> batch_ms;
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t b = 0; b < batches.size(); ++b) {
      report.attempt();
      Tracer::Span s(tr, "core.Clusterer.query_batch");
      const auto res = live.query_batch(batches[b], alt, 1);
      s.count("nodes", res.stats.work.nodes_visited);
      s.count("isect", res.stats.work.isect_calls);
      batch_ms.push_back(s.end() * 1e3);
      report.check(res.ids.size() == totals[b],
                   "query_batch differs from the checked answer");
      if (rep == 0) {
        nodes += res.stats.work.nodes_visited;
        isect += res.stats.work.isect_calls;
        queries += batches[b].size();
      }
    }
  }
  report.metric("core.query_batch_ms", median(batch_ms), "ms");
  report.metric("rt.read_nodes_per_query",
                static_cast<double>(nodes) / static_cast<double>(queries),
                "count");
  report.metric("rt.read_isect_per_query",
                static_cast<double>(isect) / static_cast<double>(queries),
                "count");

  // B=1 advances, with the session's own per-stage timings.
  const LivePlan plan = live_plan(cfg);
  std::vector<double> index_ms, count_ms, repair_ms;
  std::uint64_t rebuilds = 0, adv_isect = 0;
  const std::size_t timed = plan.rounds * plan.b1_steps;
  for (std::size_t i = 0; i < plan.warmup_steps + timed; ++i) {
    report.attempt();
    Tracer::Span s(tr, "core.Clusterer.advance");
    live.advance(std::span<const Vec3>(in.stream).subspan(i, 1), 1);
    const rtd::RunStats& st = live.result().stats;
    const std::uint64_t isect =
        st.phase1.work.isect_calls + st.phase2.work.isect_calls;
    s.count("isect", isect);
    if (i < plan.warmup_steps) continue;
    index_ms.push_back(st.timings.index_build_seconds * 1e3);
    count_ms.push_back(st.timings.core_phase_seconds * 1e3);
    repair_ms.push_back(st.timings.cluster_phase_seconds * 1e3);
    rebuilds += st.index_rebuilt ? 1 : 0;
    adv_isect += isect;
  }
  check_live_session(cfg, live, report);
  report.metric("core.advance.index_ms", median(index_ms), "ms");
  report.metric("core.advance.count_ms", median(count_ms), "ms");
  report.metric("core.advance.repair_ms", median(repair_ms), "ms");
  report.metric("core.advance.rebuilds", static_cast<double>(rebuilds),
                "count");
  report.metric("rt.advance_isect",
                static_cast<double>(adv_isect) /
                    static_cast<double>(timed),
                "count");
}

}  // namespace

void run_traced(const RunConfig& cfg, Report& report) {
  const Workload& w = cfg.workload;
  Tracer tr;
  const Inputs in = make_inputs(cfg);
  const std::span<const Vec3> pts = in.batch;

  rtd::dbscan::Clustering ref;
  IndexKind backend = IndexKind::kAuto;
  {
    auto warm = rtd::Clusterer::borrowing(pts);
    report.attempt();
    const rtd::ClusterResult& r = warm.run(w.eps, w.min_pts);
    ref = r.to_clustering();
    backend = warm.backend();
    report.info("batch_backend", rtd::index::to_string(backend));
    report.info("batch_width", rtd::rt::to_string(r.stats.width));
  }
  const double run_s = run_overhead(cfg, pts, tr, report);
  batch_layers(cfg, pts, backend, ref, tr, report);

  {
    auto single = rtd::Clusterer::borrowing(
        pts, rtd::Options{}.with_threads(1));
    report.attempt();
    Tracer::Span s(tr, "core.Clusterer.run.threads1");
    single.run(w.eps, w.min_pts);
    const double t1 = s.end();
    const int threads = rtd::hardware_threads();
    report.metric("common.parallel_eff", t1 / (threads * run_s), "ratio");
  }

  live_layers(cfg, in, tr, report);

  if (!cfg.trace_out.empty() && !tr.write(cfg.trace_out)) {
    report.fail("cannot write trace to " + cfg.trace_out);
  }
}

}  // namespace perfbench
