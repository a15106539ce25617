// Shared pieces of the perfbench scenario driver: workload table, run
// configuration, operation/failure accounting, the in-memory span tracer,
// and host measurements (drift canaries, peak RSS).
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/clusterer.hpp"
#include "dbscan/core.hpp"
#include "geom/vec3.hpp"

namespace perfbench {

using rtd::geom::Vec3;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One workload: a batch input and a live sliding-window input, both with
/// fixed geometry.  The run's --seed permutes the points (input order,
/// window membership, arrival order) and picks the query centers, so every
/// seed does the same amount of work on a different input.
struct Workload {
  const char* name;
  const char* generator;  ///< "taxi_gps" or "uniform_cube"
  std::size_t batch_n;
  float batch_extent;     ///< uniform_cube side; unused for taxi_gps
  std::size_t window_n;
  float window_extent;
  float eps;
  std::uint32_t min_pts;
};

/// Fault seeded into a result before its check, so the self-test can prove
/// that a wrong answer is counted as a failed operation.
enum class Inject : std::uint8_t { kNone, kWrongCluster, kWrongRead };

struct RunConfig {
  Workload workload{};
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace path for the traced run
  Inject inject = Inject::kNone;
  bool tiny = false;  ///< smoke sizes, for the self-test only
};

/// Operations attempted and failed, plus the metrics the run reports.
class Report {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Count `n` failed operations and say why on stderr.
  void fail(const std::string& why, std::uint64_t n = 1);
  /// A check on an already-attempted operation: false counts it failed.
  void check(bool ok, const std::string& what);

  void metric(const std::string& name, double value, const char* unit);
  /// Run-description fields printed beside the metrics (not metrics).
  void info(const std::string& key, const std::string& text);
  void info(const std::string& key, double value);

  /// Prints the info line, then the result line (the last stdout line).
  void print() const;

  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  std::vector<std::pair<std::string, std::string>> info_;  ///< JSON values
};

/// In-memory span recorder.  Spans nest on the calling thread (the traced
/// pass is serial); every span carries its parent and the id of the root
/// span it belongs to, plus optional integer counters.  Written out once
/// at the end as Chrome trace-event JSON.
class Tracer {
 public:
  class Span {
   public:
    Span(Tracer& t, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    void count(const char* key, std::uint64_t value);
    /// Ends the span now; returns its duration in seconds.
    double end();

   private:
    Tracer& t_;
    std::size_t id_;
    bool open_ = true;
  };

  /// Durations (s) of every closed span with this name, in order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Writes the Chrome trace; false if the file cannot be written.
  bool write(const std::string& path) const;

 private:
  struct Record {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    std::size_t parent;  ///< kNone for a root
    std::size_t root;
    std::vector<std::pair<std::string, std::uint64_t>> counts;
    bool closed = false;
  };
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  Clock::time_point origin_ = Clock::now();
  std::vector<Record> spans_;
  std::vector<std::size_t> stack_;
};

// ---- statistics -------------------------------------------------------

/// Writes a metric's raw samples to stderr, for studying run-to-run noise.
void log_samples(const char* name, const std::vector<double>& v);
double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> v, double p);

// ---- host -------------------------------------------------------------

/// Fixed single-thread compute loop; returns milliseconds.
double compute_canary_ms();
/// Streaming read over a fixed buffer; returns GB/s.
double memory_canary_gbps();
double peak_rss_mb();
unsigned nproc();

// ---- inputs -----------------------------------------------------------

struct Inputs {
  std::vector<Vec3> batch;   ///< batch-phase points
  std::vector<Vec3> window;  ///< initial live window
  std::vector<Vec3> stream;  ///< arrivals fed to advance(), in order
  /// Request batches of kCentersPerRequest query centers for the readers.
  std::vector<std::vector<Vec3>> read_batches;
};

Inputs make_inputs(const RunConfig& cfg);

// ---- phases -----------------------------------------------------------

/// End-to-end pass (--trace 0): every end-to-end metric.
void run_end_to_end(const RunConfig& cfg, Report& report);
/// Traced pass (--trace 1): every per-layer metric.
void run_traced(const RunConfig& cfg, Report& report);

/// Step counts shared by both passes.
struct LivePlan {
  std::size_t rounds;        ///< end-to-end rounds
  std::size_t warmup_steps;  ///< untimed B=1 steps per round
  std::size_t b1_steps;      ///< timed B=1 steps per round
  std::size_t read_batches;  ///< distinct 256-center request batches
};
LivePlan live_plan(const RunConfig& cfg);
inline constexpr std::size_t kCentersPerRequest = 256;
inline constexpr float kAltEpsFactor = 0.96f;

// ---- checks (always outside timed regions) --------------------------------

/// Cheap fingerprint of a clustering, compared on repeated runs whose
/// first instance was checked in full.
struct Summary {
  std::size_t core = 0;
  std::size_t noise = 0;
  std::uint32_t clusters = 0;
  bool operator==(const Summary&) const = default;
};
Summary summarize(const rtd::dbscan::Clustering& c);

/// Applies --inject wrong-cluster to a result about to be checked.
void seed_cluster_fault(const RunConfig& cfg, rtd::dbscan::Clustering& c);

/// dbscan::check_equivalent, counted as a failed operation on mismatch.
void check_same(Report& report, std::span<const Vec3> points, float eps,
                std::uint32_t min_pts, const rtd::dbscan::Clustering& got,
                const rtd::dbscan::Clustering& want, const std::string& what);

/// A live session after a stream: validate(kQuick), then its result
/// against a fresh session over the live points.  Counts one failure per
/// failed check.
void check_live_session(const RunConfig& cfg, const rtd::Clusterer& live,
                        Report& report);

/// Checks one served response per read batch against brute-force neighbor
/// sets (exact), and returns each batch's total neighbor count so later
/// responses can be checked by size.
std::vector<std::size_t> check_reads(
    const RunConfig& cfg, const rtd::Clusterer& live,
    const std::vector<std::vector<Vec3>>& batches, float radius,
    Report& report);

/// Exact neighbor ids (sorted) of each center within `eps`, by brute force.
std::vector<std::vector<std::uint32_t>> brute_neighbors(
    std::span<const Vec3> points, std::span<const Vec3> centers, float eps);

}  // namespace perfbench
