#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "data/generators.hpp"
#include "dbscan/equivalence.hpp"
#include "index/neighbor_index.hpp"

namespace perfbench {

namespace {

/// The generator seed that fixes each workload's geometry.  --seed only
/// permutes, so the work per run does not depend on it (taxi_gps draws its
/// hotspot spreads from its seed, which would swing the neighbor count).
constexpr std::uint64_t kGeometrySeed = 2;

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::vector<Vec3> generate(const char* generator, std::size_t n,
                           float extent) {
  if (std::string(generator) == "taxi_gps") {
    return rtd::data::taxi_gps(n, kGeometrySeed).points;
  }
  return rtd::data::uniform_cube(n, extent, 2, kGeometrySeed).points;
}

/// Number of stream arrivals a live pass consumes.
std::size_t stream_length(const RunConfig& cfg) {
  const LivePlan p = live_plan(cfg);
  return p.rounds * (p.warmup_steps + p.b1_steps);
}

void shuffle(std::vector<Vec3>& v, rtd::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

}  // namespace

// ---- Report -------------------------------------------------------------

void Report::fail(const std::string& why, std::uint64_t n) {
  if (n == 0) return;
  failed_ += n;
  std::fprintf(stderr, "perfbench: FAILED x%llu: %s\n",
               static_cast<unsigned long long>(n), why.c_str());
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) fail(what);
}

void Report::metric(const std::string& name, double value, const char* unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::info(const std::string& key, const std::string& text) {
  // Callers pass identifiers (workload, backend and width names), which
  // need no escaping.
  info_.push_back({key, '"' + text + '"'});
}

void Report::info(const std::string& key, double value) {
  info_.push_back({key, json_number(value)});
}

void Report::print() const {
  std::ostringstream info;
  info << "{\"perfbench_info\": {";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    info << (i ? ", " : "") << '"' << info_[i].first
         << "\": " << info_[i].second;
  }
  info << "}}";
  std::ostringstream out;
  out << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    out << (i ? ", " : "") << '"' << name
        << "\": {\"value\": " << json_number(vu.first) << ", \"unit\": \""
        << vu.second << "\"}";
  }
  out << "}}";
  std::printf("%s\n%s\n", info.str().c_str(), out.str().c_str());
  std::fflush(stdout);
}

// ---- Tracer -------------------------------------------------------------

Tracer::Span::Span(Tracer& t, const char* name) : t_(t), id_(t.spans_.size()) {
  const std::size_t parent = t.stack_.empty() ? kNone : t.stack_.back();
  const std::size_t root = parent == kNone ? id_ : t.spans_[parent].root;
  t.spans_.push_back({name, Clock::now(), {}, parent, root, {}, false});
  t.stack_.push_back(id_);
}

Tracer::Span::~Span() {
  if (open_) end();
}

void Tracer::Span::count(const char* key, std::uint64_t value) {
  t_.spans_[id_].counts.emplace_back(key, value);
}

double Tracer::Span::end() {
  Record& r = t_.spans_[id_];
  if (open_) {
    r.end = Clock::now();
    r.closed = true;
    open_ = false;
    // Spans close innermost-first, so this span is on top of the stack.
    t_.stack_.pop_back();
  }
  return std::chrono::duration<double>(r.end - r.start).count();
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Record& r : spans_) {
    if (r.closed && r.name == name) {
      out.push_back(std::chrono::duration<double>(r.end - r.start).count());
    }
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    if (!r.closed) continue;
    f << (first ? "" : ",\n") << "{\"name\": \"" << r.name
      << "\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
      << ", \"ts\": " << json_number(us(r.start))
      << ", \"dur\": " << json_number(us(r.end) - us(r.start))
      << ", \"args\": {\"id\": " << i << ", \"parent\": "
      << (r.parent == kNone ? std::string("null") : std::to_string(r.parent))
      << ", \"root\": " << r.root;
    for (const auto& [k, v] : r.counts) f << ", \"" << k << "\": " << v;
    f << "}}";
    first = false;
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

// ---- statistics ---------------------------------------------------------

void log_samples(const char* name, const std::vector<double>& v) {
  std::fprintf(stderr, "perfbench: %zu samples %s:", v.size(), name);
  for (const double x : v) std::fprintf(stderr, " %.6g", x);
  std::fprintf(stderr, "\n");
}

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// ---- host ---------------------------------------------------------------

double compute_canary_ms() {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  double acc = 0.0;
  for (int i = 0; i < 30'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += static_cast<double>(x >> 40) * 1e-9;
  }
  const double ms = seconds_since(t0) * 1e3;
  if (acc < 0.0) std::fprintf(stderr, "%f\n", acc);  // keeps the loop live
  return ms;
}

double memory_canary_gbps() {
  constexpr std::size_t kWords = std::size_t{64} << 20 >> 3;  // 64 MiB
  constexpr int kPasses = 4;
  std::vector<std::uint64_t> buf(kWords);
  std::iota(buf.begin(), buf.end(), std::uint64_t{0});
  const auto t0 = Clock::now();
  std::uint64_t sum = 0;
  for (int p = 0; p < kPasses; ++p) {
    for (const std::uint64_t w : buf) sum += w;
  }
  const double s = seconds_since(t0);
  if (sum == 42) std::fprintf(stderr, "\n");  // keeps the loop live
  return static_cast<double>(kWords * 8 * kPasses) / s * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

unsigned nproc() { return std::thread::hardware_concurrency(); }

// ---- inputs -------------------------------------------------------------

LivePlan live_plan(const RunConfig& cfg) {
  if (cfg.tiny) return {2, 3, 20, 2};
  return {5, 10, 200, 8};
}

Inputs make_inputs(const RunConfig& cfg) {
  const Workload& w = cfg.workload;
  rtd::Rng rng(cfg.seed * 0x9e3779b97f4a7c15ULL + 0x51ed);
  Inputs in;
  in.batch = generate(w.generator, w.batch_n, w.batch_extent);
  shuffle(in.batch, rng);
  const std::size_t extra = stream_length(cfg);
  std::vector<Vec3> live =
      generate(w.generator, w.window_n + extra, w.window_extent);
  // Query centers are fixed points of the geometry, the same for every
  // seed: on taxi_gps a few hotspot centers carry much of a batch's work,
  // so centers drawn per seed would change the read work between seeds.
  rtd::Rng fixed(kGeometrySeed);
  in.read_batches.resize(live_plan(cfg).read_batches);
  for (auto& b : in.read_batches) {
    b.resize(kCentersPerRequest);
    for (auto& c : b) c = live[fixed.below(live.size())];
  }
  shuffle(live, rng);
  in.window.assign(live.begin(),
                   live.begin() + static_cast<std::ptrdiff_t>(w.window_n));
  in.stream.assign(live.begin() + static_cast<std::ptrdiff_t>(w.window_n),
                   live.end());
  return in;
}

std::vector<std::vector<std::uint32_t>> brute_neighbors(
    std::span<const Vec3> points, std::span<const Vec3> centers, float eps) {
  const auto brute = rtd::index::make_index(
      points, eps, rtd::index::IndexKind::kBruteForce);
  std::vector<std::vector<std::uint32_t>> out(centers.size());
#pragma omp parallel for schedule(dynamic, 4)
  for (std::size_t q = 0; q < centers.size(); ++q) {
    rtd::rt::TraversalStats stats;
    brute->query_sphere(
        centers[q], eps, rtd::index::kNoSelf,
        [&](std::uint32_t j) { out[q].push_back(j); }, stats);
    std::sort(out[q].begin(), out[q].end());
  }
  return out;
}

// ---- checks -------------------------------------------------------------

Summary summarize(const rtd::dbscan::Clustering& c) {
  return {c.core_count(), c.noise_count(), c.cluster_count};
}

void seed_cluster_fault(const RunConfig& cfg, rtd::dbscan::Clustering& c) {
  if (cfg.inject == Inject::kWrongCluster && !c.is_core.empty()) {
    c.is_core[0] ^= 1;
  }
}

void check_same(Report& report, std::span<const Vec3> points, float eps,
                std::uint32_t min_pts, const rtd::dbscan::Clustering& got,
                const rtd::dbscan::Clustering& want, const std::string& what) {
  const rtd::dbscan::Params params{eps, min_pts, rtd::index::IndexKind::kAuto};
  const auto eq = rtd::dbscan::check_equivalent(points, params, got, want);
  report.check(eq.equivalent, what + ": " + eq.reason);
}

void check_live_session(const RunConfig& cfg, const rtd::Clusterer& live,
                        Report& report) {
  const auto v = live.validate(rtd::ValidationLevel::kQuick);
  report.check(v.ok, "live validate(kQuick): " +
                         (v.issues.empty() ? std::string() : v.issues[0]));

  const rtd::ClusterResult& r = live.result();
  const auto pts = live.points();
  std::vector<Vec3> live_pts;
  rtd::dbscan::Clustering got;
  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    if (!live.is_live(i)) continue;
    live_pts.push_back(pts[i]);
    got.labels.push_back(r.labels[i]);
    got.is_core.push_back(r.is_core[i]);
  }
  got.cluster_count = r.cluster_count;
  seed_cluster_fault(cfg, got);
  rtd::Clusterer fresh(live_pts);
  const auto want = fresh.run(r.eps, r.min_pts).to_clustering();
  check_same(report, live_pts, r.eps, r.min_pts, got, want,
             "live result vs fresh session");
}

/// Reference answers for the read batches: exact sets by brute force,
/// checked against one served response per batch; later responses are
/// checked by their total size.
std::vector<std::size_t> check_reads(
    const RunConfig& cfg, const rtd::Clusterer& live,
    const std::vector<std::vector<Vec3>>& batches, float radius,
    Report& report) {
  std::vector<std::size_t> totals;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const auto want = brute_neighbors(live.points(), batches[b], radius);
    report.attempt();
    rtd::BatchQueryResult got = live.query_batch(batches[b], radius, 1);
    if (cfg.inject == Inject::kWrongRead && b == 0 && !got.ids.empty()) {
      // Drop the response's last neighbor id.
      const auto end = static_cast<std::uint32_t>(got.ids.size());
      got.ids.pop_back();
      for (auto& s : got.starts) s = std::min(s, end - 1);
    }
    bool ok = got.query_count() == want.size();
    std::size_t total = 0;
    for (std::size_t q = 0; q < want.size(); ++q) {
      total += want[q].size();
      if (!ok) continue;
      const auto ids = got.neighbors_of(q);
      std::vector<std::uint32_t> sorted(ids.begin(), ids.end());
      std::sort(sorted.begin(), sorted.end());
      ok = sorted == want[q];
    }
    report.check(ok, "read batch " + std::to_string(b) +
                         " differs from brute-force neighbor sets");
    totals.push_back(total);
  }
  return totals;
}

}  // namespace perfbench
