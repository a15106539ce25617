// End-to-end pass: every user-visible metric, timed with no tracer armed.
//
// The pass runs several rounds; each round sets up afresh and then runs a
// batch iteration (run, rerun, sweep), quiescent reads, reads beside a
// 5 Hz retargeting writer, and a slice of the B=1 advance stream.  The
// host's speed drifts over seconds, so spreading every metric's samples
// over the whole pass and reporting medians keeps one slow spell from
// deciding a metric.  Checks run between phases, never inside a timed
// region.
#include <algorithm>
#include <atomic>
#include <memory>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "dbscan/fdbscan_densebox.hpp"

namespace perfbench {

namespace {

// Shares of --seconds given to the time-boxed phases, split evenly over
// the rounds.  Batch iterations and stream steps are count-boxed.
constexpr double kReadShare = 0.10;
constexpr double kChurnShare = 0.20;
// 5 Hz keeps the writer well short of saturating the cores; at 20 Hz the
// readers' throughput collapsed erratically (see README).
constexpr double kRetargetHz = 5.0;
constexpr int kReaders = 2;

std::vector<float> sweep_ladder(float eps) {
  return {0.5f * eps, 0.75f * eps, eps, 1.25f * eps};
}

/// Raw samples of every end-to-end metric, pooled over rounds.
struct Samples {
  std::vector<double> setup_s, run_s, rerun_s, sweep_s;
  std::vector<double> read_qps, churn_qps;  // one per round
  std::vector<double> churn_request_ms, retarget_ms, advance_ms;
  std::size_t read_requests = 0;
  double max_late_ms = 0.0;
};

/// Round 0's batch outputs, checked in full once the rounds are done
/// (after the peak-RSS reading, so the reference paths do not count);
/// later rounds must reproduce their fingerprints.
struct BatchOutputs {
  rtd::dbscan::Clustering run, rerun, lo, hi;
};

struct Setup {
  Inputs in;
  std::unique_ptr<rtd::Clusterer> live;
};

/// Dataset generation plus warm-up: one untimed batch run, then the live
/// window's build, first run and first snapshot().
Setup set_up(const RunConfig& cfg, Report& report) {
  const Workload& w = cfg.workload;
  Setup s;
  s.in = make_inputs(cfg);
  {
    auto warm = rtd::Clusterer::borrowing(s.in.batch);
    report.attempt();
    warm.run(w.eps, w.min_pts);
  }
  s.live = std::make_unique<rtd::Clusterer>(s.in.window);
  report.attempt();
  s.live->run(w.eps, w.min_pts);
  (void)s.live->snapshot();
  return s;
}

// ---- batch --------------------------------------------------------------

/// One cold run, a min_pts rerun and a sweep on a fresh session.
BatchOutputs batch_iteration(const RunConfig& cfg,
                             std::span<const Vec3> points, int round,
                             Samples& out, Report& report) {
  const Workload& w = cfg.workload;
  auto s = rtd::Clusterer::borrowing(points);
  BatchOutputs got;

  report.attempt();
  auto t0 = Clock::now();
  const rtd::ClusterResult& r1 = s.run(w.eps, w.min_pts);
  out.run_s.push_back(seconds_since(t0));
  got.run = r1.to_clustering();
  if (round == 0) {
    report.info("batch_backend", rtd::index::to_string(s.backend()));
    report.info("batch_width", rtd::rt::to_string(r1.stats.width));
  }

  report.attempt();
  t0 = Clock::now();
  got.rerun = s.run(w.eps, 2 * w.min_pts).to_clustering();
  out.rerun_s.push_back(seconds_since(t0));

  report.attempt();
  t0 = Clock::now();
  const std::vector<rtd::ClusterResult> sw =
      s.sweep(sweep_ladder(w.eps), w.min_pts);
  out.sweep_s.push_back(seconds_since(t0));
  got.lo = sw.front().to_clustering();
  got.hi = sw.back().to_clustering();
  seed_cluster_fault(cfg, got.run);
  return got;
}

void check_repeat(const BatchOutputs& got, const BatchOutputs& first,
                  Report& report) {
  report.check(summarize(got.run) == summarize(first.run),
               "run differs from round 0");
  report.check(summarize(got.rerun) == summarize(first.rerun),
               "rerun differs from round 0");
  report.check(summarize(got.lo) == summarize(first.lo) &&
                   summarize(got.hi) == summarize(first.hi),
               "sweep differs from round 0");
}

/// The repo's fastest equivalent path checks run and rerun; fresh
/// sessions check the sweep's end entries.
void check_batch(const RunConfig& cfg, std::span<const Vec3> points,
                 const BatchOutputs& got, Report& report) {
  const Workload& w = cfg.workload;
  const std::vector<float> ladder = sweep_ladder(w.eps);
  const auto db1 = rtd::dbscan::fdbscan_densebox(
      points, {w.eps, w.min_pts, rtd::index::IndexKind::kAuto});
  check_same(report, points, w.eps, w.min_pts, got.run, db1.clustering,
             "run vs fdbscan_densebox");
  const auto db2 = rtd::dbscan::fdbscan_densebox(
      points, {w.eps, 2 * w.min_pts, rtd::index::IndexKind::kAuto});
  check_same(report, points, w.eps, 2 * w.min_pts, got.rerun, db2.clustering,
             "rerun vs fdbscan_densebox");
  auto fresh_lo = rtd::Clusterer::borrowing(points);
  check_same(report, points, ladder.front(), w.min_pts, got.lo,
             fresh_lo.run(ladder.front(), w.min_pts).to_clustering(),
             "sweep entry eps_min vs fresh run");
  auto fresh_hi = rtd::Clusterer::borrowing(points);
  check_same(report, points, ladder.back(), w.min_pts, got.hi,
             fresh_hi.run(ladder.back(), w.min_pts).to_clustering(),
             "sweep entry eps_max vs fresh run");
  report.info("batch_clusters", static_cast<double>(got.run.cluster_count));
  report.info("batch_core", static_cast<double>(got.run.core_count()));
}

// ---- reads --------------------------------------------------------------

struct ReadSlice {
  double qps = 0.0;
  std::vector<double> request_ms;
};

/// Closed-loop readers: each sends its next query_batch when the previous
/// one returns, until `stop` is set.  Every response is checked against
/// the batch's checked neighbor total.
ReadSlice serve_reads(const rtd::Clusterer& live,
                      const std::vector<std::vector<Vec3>>& batches,
                      const std::vector<std::size_t>& totals, float radius,
                      const std::atomic<bool>& stop, Report& report) {
  std::vector<std::vector<double>> lat(kReaders);
  std::vector<std::size_t> wrong(kReaders, 0);
  std::vector<Clock::time_point> ended(kReaders);
  std::vector<std::thread> threads;
  const auto t0 = Clock::now();
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      const auto ri = static_cast<std::size_t>(r);
      for (std::size_t k = 0; !stop.load(std::memory_order_relaxed); ++k) {
        const std::size_t b = (ri + kReaders * k) % batches.size();
        const auto q0 = Clock::now();
        std::size_t got = 0;
        try {
          got = live.query_batch(batches[b], radius, 1).ids.size();
        } catch (const std::exception&) {
          got = static_cast<std::size_t>(-1);
        }
        lat[ri].push_back(seconds_since(q0) * 1e3);
        if (got != totals[b]) ++wrong[ri];
      }
      ended[ri] = Clock::now();
    });
  }
  for (auto& t : threads) t.join();
  ReadSlice out;
  for (std::size_t r = 0; r < kReaders; ++r) {
    out.request_ms.insert(out.request_ms.end(), lat[r].begin(), lat[r].end());
    report.attempt(lat[r].size());
    report.fail("served read differs from the checked answer", wrong[r]);
  }
  const auto last = *std::max_element(ended.begin(), ended.end());
  out.qps = static_cast<double>(out.request_ms.size() * kCentersPerRequest) /
            std::chrono::duration<double>(last - t0).count();
  return out;
}

/// Quiescent reads, then the same readers beside a writer that retargets
/// eps in an open loop at kRetargetHz.  Readers ask for the smaller of
/// the writer's two radii, which every snapshot it publishes can answer.
void read_round(const RunConfig& cfg, rtd::Clusterer& live,
                const std::vector<std::vector<Vec3>>& batches,
                const std::vector<std::size_t>& totals, int rounds,
                int round, Samples& out, Report& report) {
  const Workload& w = cfg.workload;
  const float alt = kAltEpsFactor * w.eps;
  const double read_s = kReadShare * cfg.seconds / rounds;
  const double churn_s = kChurnShare * cfg.seconds / rounds;

  std::atomic<bool> stop{false};
  std::thread timer([&] {
    std::this_thread::sleep_for(std::chrono::duration<double>(read_s));
    stop.store(true);
  });
  const ReadSlice quiet = serve_reads(live, batches, totals, alt, stop,
                                      report);
  timer.join();
  out.read_qps.push_back(quiet.qps);
  out.read_requests += quiet.request_ms.size();

  // Retarget k is due at t0 + k / rate and is timed from then, so a stall
  // shows in the later ones.  An even count ends the session back at eps.
  const int retargets =
      2 * std::max(1, static_cast<int>(churn_s * kRetargetHz / 2.0 + 0.5));
  std::vector<Vec3> centers;
  std::vector<std::vector<std::uint32_t>> answers;
  std::string writer_error;
  stop.store(false);
  std::thread writer([&] {
    rtd::Rng rng(cfg.seed ^ (0x3717ULL + static_cast<std::uint64_t>(round)));
    const auto t0 = Clock::now();
    try {
      for (int k = 0; k < retargets; ++k) {
        const auto due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(k / kRetargetHz));
        std::this_thread::sleep_until(due);
        out.max_late_ms = std::max(
            out.max_late_ms,
            std::chrono::duration<double, std::milli>(Clock::now() - due)
                .count());
        centers.push_back(live.points()[rng.below(live.points().size())]);
        answers.push_back(
            live.query_neighbors(centers.back(), k % 2 == 0 ? alt : w.eps));
        (void)live.snapshot();
        out.retarget_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - due)
                .count());
      }
    } catch (const std::exception& e) {
      writer_error = e.what();
    }
    stop.store(true);
  });
  const ReadSlice churn = serve_reads(live, batches, totals, alt, stop,
                                      report);
  writer.join();
  out.churn_qps.push_back(churn.qps);
  out.churn_request_ms.insert(out.churn_request_ms.end(),
                              churn.request_ms.begin(),
                              churn.request_ms.end());

  report.attempt(static_cast<std::uint64_t>(retargets));
  if (!writer_error.empty()) report.fail("retarget threw: " + writer_error);
  for (std::size_t k = 0; k < answers.size(); ++k) {
    auto got = answers[k];
    std::sort(got.begin(), got.end());
    const auto want = brute_neighbors(live.points(), {&centers[k], 1},
                                      k % 2 == 0 ? alt : w.eps);
    report.check(got == want[0],
                 "retarget query_neighbors differs from brute force");
  }
}

// ---- stream -------------------------------------------------------------

/// This round's slice of the arrival stream: untimed warm-up steps, then
/// timed B=1 advance(1 point, expire 1) steps.
void stream_round(const RunConfig& cfg, rtd::Clusterer& live,
                  std::span<const Vec3> stream, int round, Samples& out,
                  Report& report) {
  const LivePlan plan = live_plan(cfg);
  std::size_t pos =
      static_cast<std::size_t>(round) * (plan.warmup_steps + plan.b1_steps);
  for (std::size_t i = 0; i < plan.warmup_steps + plan.b1_steps; ++i) {
    report.attempt();
    const auto t0 = Clock::now();
    live.advance(stream.subspan(pos++, 1), 1);
    if (i >= plan.warmup_steps) {
      out.advance_ms.push_back(seconds_since(t0) * 1e3);
    }
  }
}

}  // namespace

void run_end_to_end(const RunConfig& cfg, Report& report) {
  const int rounds = static_cast<int>(live_plan(cfg).rounds);
  Samples samples;
  BatchOutputs first;
  std::vector<std::size_t> totals;
  double peak_rss = 0.0;
  for (int round = 0; round < rounds; ++round) {
    const auto t0 = Clock::now();
    const Setup s = set_up(cfg, report);
    samples.setup_s.push_back(seconds_since(t0));
    if (round == 0) {
      report.info("live_backend", rtd::index::to_string(s.live->backend()));
      report.info("live_width",
                  rtd::rt::to_string(s.live->result().stats.width));
      // Every round rebuilds the same window, so round 0's checked answers
      // hold for all of them.
      totals = check_reads(cfg, *s.live, s.in.read_batches,
                           kAltEpsFactor * cfg.workload.eps, report);
    }
    BatchOutputs got =
        batch_iteration(cfg, s.in.batch, round, samples, report);
    if (round == 0) {
      first = std::move(got);
    } else {
      check_repeat(got, first, report);
    }
    read_round(cfg, *s.live, s.in.read_batches, totals, rounds, round,
               samples, report);
    stream_round(cfg, *s.live, s.in.stream, round, samples, report);
    if (round == rounds - 1) check_live_session(cfg, *s.live, report);
    // Round 0 is one pass through the whole lifecycle on a fresh heap.
    // Later rounds add allocator history (freed heap that is not returned
    // to the OS), which made the process peak vary by up to 18%.
    if (round == 0) peak_rss = peak_rss_mb();
  }
  check_batch(cfg, make_inputs(cfg).batch, first, report);

  log_samples("setup_s", samples.setup_s);
  log_samples("run_s", samples.run_s);
  log_samples("rerun_s", samples.rerun_s);
  log_samples("sweep_s", samples.sweep_s);
  log_samples("read_qps", samples.read_qps);
  log_samples("churn_read_qps", samples.churn_qps);
  log_samples("retarget_ms", samples.retarget_ms);
  log_samples("advance_ms", samples.advance_ms);
  report.metric("setup_s", median(samples.setup_s), "s");
  report.metric("run_s", median(samples.run_s), "s");
  report.metric("rerun_s", median(samples.rerun_s), "s");
  report.metric("sweep_s", median(samples.sweep_s), "s");
  report.metric("read_qps", median(samples.read_qps), "1/s");
  report.metric("churn_read_qps", median(samples.churn_qps), "1/s");
  report.metric("churn_read_p99_ms",
                percentile(samples.churn_request_ms, 0.99), "ms");
  report.metric("retarget_p50_ms", median(samples.retarget_ms), "ms");
  report.metric("advance_p50_ms", median(samples.advance_ms), "ms");
  report.metric("advance_p99_ms", percentile(samples.advance_ms, 0.99), "ms");
  report.metric("peak_rss_mb", peak_rss, "MB");
  report.info("rounds", static_cast<double>(rounds));
  report.info("read_requests", static_cast<double>(samples.read_requests));
  report.info("churn_requests",
              static_cast<double>(samples.churn_request_ms.size()));
  report.info("churn_retargets",
              static_cast<double>(samples.retarget_ms.size()));
  report.info("churn_max_late_ms", samples.max_late_ms);
  report.info("advance_samples",
              static_cast<double>(samples.advance_ms.size()));
}

}  // namespace perfbench
