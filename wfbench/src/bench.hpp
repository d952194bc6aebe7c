#pragma once

// Shared plumbing of the wf benchmark driver: run options, the result a
// workload fills in, the driver-side span recorder, and the small
// measurement helpers (quantiles, RSS, host calibration loop).

#include <sched.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "data/build.hpp"
#include "netsim/website.hpp"

namespace wfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/wfbench";  // spans and model files
};

// What one run reports. Workloads set every end-to-end metric; per-layer
// metrics they do not touch stay at 0 (see main.cpp's tables).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  // Operation counts printed on their own line (frames, batches, swaps...).
  std::map<std::string, std::uint64_t> counts;
  // Other figures printed on their own lines (e.g. the client tail latency).
  std::vector<std::string> notes;

  // Records a failed correctness check (logged to stderr) without ending the
  // run: every check of a run is evaluated and reported.
  void check(bool ok, const std::string& what);
};

double now_seconds();

// Driver-side span: name, start, end, parent and the id shared by every span
// of one request or batch. Spans are only recorded when the tracer is on;
// they stay in memory until write() at the end of the run.
struct SpanRecord {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  long parent = -1;  // index into the record vector, -1 for a root
  std::uint64_t trace_id = 0;
  std::uint64_t thread = 0;
};

class Tracer {
 public:
  static Tracer& global();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  long open(const char* name);
  void close(long index);

  // Sum of the durations of every span called `name` (seconds).
  double total(const std::string& name) const;
  // Per-name totals of duration and self time (duration minus the time its
  // child spans cover), written one span per line as JSON.
  void write(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> records_;
};

// The trace id every span opened on this thread is stamped with.
void set_trace_id(std::uint64_t id);

class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  long index_ = -1;
};

// Median (mean of the middle two for an even count); 0 when empty.
double median(std::vector<double> values);
// Nearest-rank quantile on a copy (p in [0, 1]).
double quantile(std::vector<double> values, double p);

double peak_rss_mb();

// A fixed single-thread integer/float loop compiled into the driver; its
// median duration over a few repetitions shows how fast the host runs now.
double host_calibration_ms();

// Restricts the calling thread, and every thread it starts while this is in
// scope, to the last CPU it may run on; restores the thread's own mask when
// it goes out of scope. Throws when the mask cannot be set.
class OneCpu {
 public:
  OneCpu();
  ~OneCpu();
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;
  int cpu() const { return cpu_; }

 private:
  cpu_set_t saved_;
  int cpu_ = -1;
};

// Switches the driver's spans and the program's own tracing together.
void set_tracing(bool on);

// The fixed-length run loop: calls round(index, traced) until
// options.seconds have passed, always finishing whole rounds, and returns
// the number of rounds run. With --trace 1 even rounds run traced and odd
// rounds untraced, so one run gives both the per-layer figures and the
// tracing overhead.
template <typename Round>
std::size_t run_rounds(const Options& options, Round&& round) {
  const double start = now_seconds();
  std::size_t rounds = 0;
  do {
    const bool traced = options.trace && rounds % 2 == 0;
    set_tracing(traced);
    set_trace_id(1000 + rounds);
    round(rounds, traced);
    ++rounds;
  } while (now_seconds() - start < options.seconds);
  set_tracing(options.trace);
  return rounds;
}

// Work done and time spent in the measured loop, split by whether the round
// ran traced.
struct TracedSplit {
  double work[2] = {0.0, 0.0};  // [traced, untraced]
  double seconds[2] = {0.0, 0.0};
  void add(bool traced, double done, double secs) {
    work[traced ? 0 : 1] += done;
    seconds[traced ? 0 : 1] += secs;
  }
  // How much lower the traced rate is, as a share of the untraced rate (%).
  double overhead_pct() const;
};

struct CrawlCounts {
  std::uint64_t loads = 0;
  std::uint64_t wire_units = 0;  // packets or records captured
};

// Crawls options.samples_per_class loads of every page and encodes them,
// `chunk` pages per collect_captures call: each chunk is encoded before the
// next is loaded, so only one chunk's captures are in memory. Chunk c is
// crawled with seed options.seed + c * chunk.
wf::data::Dataset crawl(const wf::netsim::Website& site, const std::vector<int>& pages,
                        wf::data::DatasetBuildOptions options, std::size_t chunk,
                        CrawlCounts& counts);

using WorkloadFn = Result (*)(const Options&);
Result run_pipeline(const Options& options);
Result run_serve(const Options& options);
Result run_million(const Options& options);

}  // namespace wfbench
