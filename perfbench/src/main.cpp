// perfbench: the repository's benchmark of the session API.
//
//   perfbench --workload <dense|uniform> --seed <n> --seconds <s>
//             --trace <0|1> [--trace-out <file>] [--tiny]
//             [--inject <wrong-cluster|wrong-read>]
//
// --trace 0 prints every end-to-end metric; --trace 1 runs the traced pass
// and prints every per-layer metric.  The last stdout line is the result
// object {"correct", "attempted", "failed", "metrics"}; the line before it
// records the resolved configuration and the host drift canaries.
// --tiny and --inject exist for the benchmark's self-test.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "common/parallel.hpp"

namespace {

using perfbench::Workload;

// Why these two: see README.md.  Both run the whole session lifecycle
// (batch, sweep, serving, streaming); they differ in the share of points
// that sit in dense cells, which is what the dense-cell path exploits.
constexpr Workload kWorkloads[] = {
    {"dense", "taxi_gps", 250'000, 0.0f, 250'000, 0.0f, 0.05f, 8},
    {"uniform", "uniform_cube", 1'000'000, 100.0f, 250'000, 50.0f, 0.2f, 8},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <dense|uniform> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--tiny] [--inject <wrong-cluster|wrong-read>]\n",
               why.c_str());
  std::exit(2);
}

perfbench::RunConfig parse(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::string workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--tiny") {
      cfg.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        workload = v;
      } else if (a == "--seed") {
        cfg.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(v);
        have_seconds = cfg.seconds > 0.0 && std::isfinite(cfg.seconds);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        cfg.trace = v == "1";
        have_trace = true;
      } else if (a == "--trace-out") {
        cfg.trace_out = v;
      } else if (a == "--inject") {
        if (v == "wrong-cluster") {
          cfg.inject = perfbench::Inject::kWrongCluster;
        } else if (v == "wrong-read") {
          cfg.inject = perfbench::Inject::kWrongRead;
        } else {
          usage("unknown --inject " + v);
        }
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds (> 0) and --trace are required");
  }
  bool found = false;
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) {
      cfg.workload = w;
      found = true;
    }
  }
  if (!found) usage("unknown workload '" + workload + "'");
  if (cfg.tiny) {
    // Same densities at smoke sizes.
    Workload& w = cfg.workload;
    const auto shrink = [](std::size_t& n, float& extent, std::size_t to) {
      extent *= std::sqrt(static_cast<float>(to) / static_cast<float>(n));
      n = to;
    };
    shrink(w.batch_n, w.batch_extent, 6'000);
    shrink(w.window_n, w.window_extent, 4'000);
  }
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::RunConfig cfg = parse(argc, argv);
  const Workload& w = cfg.workload;
  perfbench::Report report;
  report.info("workload", w.name);
  report.info("generator", w.generator);
  report.info("batch_n", static_cast<double>(w.batch_n));
  report.info("window_n", static_cast<double>(w.window_n));
  report.info("eps", static_cast<double>(w.eps));
  report.info("min_pts", static_cast<double>(w.min_pts));
  report.info("seed", static_cast<double>(cfg.seed));
  report.info("seconds", cfg.seconds);
  report.info("trace", cfg.trace ? 1.0 : 0.0);
  report.info("threads", static_cast<double>(rtd::hardware_threads()));
  report.info("nproc", static_cast<double>(perfbench::nproc()));
  report.info("canary_compute_ms_start", perfbench::compute_canary_ms());
  report.info("canary_stream_gbps_start", perfbench::memory_canary_gbps());
  try {
    if (cfg.trace) {
      perfbench::run_traced(cfg, report);
    } else {
      perfbench::run_end_to_end(cfg, report);
    }
  } catch (const std::exception& e) {
    // A throw aborts the pass, so its metrics are incomplete: no result.
    std::fprintf(stderr, "perfbench: aborted: %s\n", e.what());
    return 1;
  }
  report.info("canary_compute_ms_end", perfbench::compute_canary_ms());
  report.info("canary_stream_gbps_end", perfbench::memory_canary_gbps());
  report.print();
  return 0;
}
