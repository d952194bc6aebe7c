// wf benchmark driver: runs one workload through wf's public API and prints
// its metrics. Usage:
//
//   wfbench --workload pipeline|serve|million --seed N --seconds S
//           --trace 0|1 [--work-dir DIR]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics with --trace 0 and the per-layer metrics
// with --trace 1 (spans are then written to DIR/spans/<workload>-<seed>.jsonl).
// DIR (default .bench_build/wfbench) also holds the model files serve saves
// and loads during set-up.

#include <cmath>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "nn/simd.hpp"
#include "util/env.hpp"
#include "util/thread_pool.hpp"

namespace {

using wfbench::Options;
using wfbench::Result;

// Every end-to-end metric, with its unit. Every workload sets all of them.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},          {"qps", "1/s"},   {"p50_ms", "ms"},
    {"train_steps_per_s", "1/s"}, {"adapt_per_s", "1/s"}, {"top1", "ratio"},
    {"recall10", "ratio"},     {"peak_rss_mb", "MiB"},
};

// Every per-layer metric, with its unit. A layer a workload does not run
// reads 0 there.
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"netsim.crawl_s", "s"},
    {"netsim.loads", "count"},
    {"netsim.wire_units", "count"},
    {"trace.encode_s", "s"},
    {"core.train_s", "s"},
    {"core.embed_s", "s"},
    {"core.embed_rows", "count"},
    {"core.rank_s", "s"},
    {"core.scan_s", "s"},
    {"core.adapt_s", "s"},
    {"core.merge_ms", "ms"},
    {"index.build_s", "s"},
    {"index.probe_us", "us"},
    {"index.rows_scanned_per_query", "count"},
    {"index.clusters_scanned_per_query", "count"},
    {"index.remove_class_ms", "ms"},
    {"index.add_us", "us"},
    {"io.save_s", "s"},
    {"io.load_s", "s"},
    {"io.model_mb", "MiB"},
    {"serve.handle_ms", "ms"},
    {"serve.wire_ms", "ms"},
    {"serve.reply_bytes", "bytes"},
    {"serve.encode_us", "us"},
    {"serve.decode_us", "us"},
    {"serve.wave_batch", "count"},
    {"serve.rejected", "count"},
    {"serve.retries", "count"},
    {"serve.client_p99_ms", "ms"},
    {"serve.client_p99_samples", "count"},
    {"coord.scatter_ms", "ms"},
    {"host.calib_ms", "ms"},
    {"obs.overhead_pct", "%"},
};

std::string number(double value) {
  std::ostringstream out;
  out << std::setprecision(12) << value;
  return out.str();
}

int usage() {
  std::cerr << "usage: wfbench --workload pipeline|serve|million --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") options.workload = value;
    else if (key == "--seed") options.seed = std::stoull(value);
    else if (key == "--seconds") options.seconds = std::stod(value);
    else if (key == "--trace") options.trace = value == "1";
    else if (key == "--work-dir") options.work_dir = value;
    else return usage();
  }
  if (argc % 2 == 0) return usage();

  wfbench::WorkloadFn run = nullptr;
  if (options.workload == "pipeline") run = wfbench::run_pipeline;
  else if (options.workload == "serve") run = wfbench::run_serve;
  else if (options.workload == "million") run = wfbench::run_million;
  if (run == nullptr || !(options.seconds > 0.0)) return usage();
  // pipeline and serve run the program on a one-thread pool. Their phases
  // fork fine-grained work (each training step's GEMMs, each request's
  // single-row rank) over the pool and wait for the slowest thread, so at
  // the default count a vCPU the host takes away stalls the whole phase and
  // the rate swung 2x between runs. million's scans are coarse-grained and
  // hold steady at the default count.
  if (options.workload != "million") wf::util::Env::override_threads(1);

  wfbench::set_tracing(options.trace);
  std::cout << "wfbench: workload=" << options.workload << " seed=" << options.seed
            << " seconds=" << options.seconds << " trace=" << options.trace
            << " threads=" << wf::util::global_pool().size()
            << " simd=" << wf::nn::simd_mode_name(wf::nn::simd_mode()) << std::endl;
  const double calib_before = wfbench::host_calibration_ms();

  Result result;
  try {
    result = run(options);
  } catch (const std::exception& e) {
    std::cerr << "wfbench: " << options.workload << " aborted: " << e.what() << "\n";
    return 1;
  }
  const double calib_after = wfbench::host_calibration_ms();
  const double calib = 0.5 * (calib_before + calib_after);
  result.per_layer["host.calib_ms"] = calib;
  result.end_to_end["peak_rss_mb"] = wfbench::peak_rss_mb();

  std::cout << "wfbench: host.calib_ms=" << number(calib) << " (before " << number(calib_before)
            << ", after " << number(calib_after) << ")\n";
  std::cout << "wfbench: operations";
  for (const auto& [name, value] : result.counts) std::cout << " " << name << "=" << value;
  std::cout << "\n";
  for (const std::string& note : result.notes) std::cout << "wfbench: " << note << "\n";
  for (const auto& [name, unit] : kEndToEnd) {
    const auto it = result.end_to_end.find(name);
    if (it == result.end_to_end.end() || !std::isfinite(it->second) || it->second <= 0.0) {
      std::cerr << "wfbench: end-to-end metric " << name << " is missing or not positive\n";
      return 1;
    }
    std::cout << "wfbench: " << name << " = " << number(it->second) << " " << unit << "\n";
  }
  if (options.trace) {
    for (const auto& [name, unit] : kPerLayer)
      std::cout << "wfbench: " << name << " = " << number(result.per_layer[name]) << " "
                << unit << "\n";
    std::error_code ec;
    const std::string spans_dir = options.work_dir + "/spans";
    std::filesystem::create_directories(spans_dir, ec);
    const std::string path =
        spans_dir + "/" + options.workload + "-" + std::to_string(options.seed) + ".jsonl";
    wfbench::Tracer::global().write(path);
    std::cout << "wfbench: spans written to " << path << "\n";
  }
  std::cout << "wfbench: correct=" << (result.correct ? "true" : "false") << "\n";

  const auto& table = options.trace ? kPerLayer : kEndToEnd;
  const auto& values = options.trace ? result.per_layer : result.end_to_end;
  std::ostringstream json;
  json << "{\"correct\": " << (result.correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < table.size(); ++i) {
    const auto it = values.find(table[i].first);
    const double value = it == values.end() ? 0.0 : it->second;
    json << (i == 0 ? "" : ", ") << "\"" << table[i].first << "\": {\"value\": "
         << number(value) << ", \"unit\": \"" << table[i].second << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}
