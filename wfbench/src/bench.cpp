#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <unordered_map>

#include "obs/trace.hpp"

namespace wfbench {

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::cerr << "wfbench: CHECK FAILED: " << what << "\n";
}

double now_seconds() {
  static const std::chrono::steady_clock::time_point epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch).count();
}

namespace {

thread_local std::vector<long> open_spans;
thread_local std::uint64_t current_trace_id = 0;

std::uint64_t thread_ordinal() {
  static std::atomic<std::uint64_t> next{0};
  thread_local const std::uint64_t ordinal = next.fetch_add(1);
  return ordinal;
}

}  // namespace

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

long Tracer::open(const char* name) {
  SpanRecord record;
  record.name = name;
  record.parent = open_spans.empty() ? -1 : open_spans.back();
  record.trace_id = current_trace_id;
  record.thread = thread_ordinal();
  record.start = now_seconds();
  const std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(std::move(record));
  const long index = static_cast<long>(records_.size()) - 1;
  open_spans.push_back(index);
  return index;
}

void Tracer::close(long index) {
  const double end = now_seconds();
  open_spans.pop_back();
  const std::lock_guard<std::mutex> lock(mutex_);
  records_[static_cast<std::size_t>(index)].end = end;
}

double Tracer::total(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  double sum = 0.0;
  for (const SpanRecord& r : records_)
    if (r.name == name) sum += r.end - r.start;
  return sum;
}

void Tracer::write(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> child_time(records_.size(), 0.0);
  for (const SpanRecord& r : records_)
    if (r.parent >= 0) child_time[static_cast<std::size_t>(r.parent)] += r.end - r.start;
  std::ofstream out(path);
  std::unordered_map<std::string, std::pair<double, double>> by_name;  // total, self
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& r = records_[i];
    const double self = (r.end - r.start) - child_time[i];
    by_name[r.name].first += r.end - r.start;
    by_name[r.name].second += self;
    out << "{\"span\":" << i << ",\"name\":\"" << r.name << "\",\"parent\":" << r.parent
        << ",\"trace\":" << r.trace_id << ",\"thread\":" << r.thread
        << ",\"start_s\":" << r.start << ",\"end_s\":" << r.end << ",\"self_s\":" << self
        << "}\n";
  }
  std::vector<std::string> names;
  for (const auto& [name, totals] : by_name) names.push_back(name);
  std::sort(names.begin(), names.end());
  for (const std::string& name : names)
    std::cerr << "wfbench: span " << name << " total_s=" << by_name[name].first
              << " self_s=" << by_name[name].second << "\n";
}

void set_trace_id(std::uint64_t id) { current_trace_id = id; }

void set_tracing(bool on) {
  wf::obs::set_enabled(on);
  Tracer::global().set_enabled(on);
}

double TracedSplit::overhead_pct() const {
  if (seconds[0] <= 0.0 || seconds[1] <= 0.0 || work[1] <= 0.0) return 0.0;
  const double traced = work[0] / seconds[0];
  const double plain = work[1] / seconds[1];
  return (plain - traced) / plain * 100.0;
}

Span::Span(const char* name) {
  if (Tracer::global().enabled()) index_ = Tracer::global().open(name);
}

Span::~Span() {
  if (index_ >= 0) Tracer::global().close(index_);
}

wf::data::Dataset crawl(const wf::netsim::Website& site, const std::vector<int>& pages,
                        wf::data::DatasetBuildOptions options, std::size_t chunk,
                        CrawlCounts& counts) {
  const std::uint64_t seed = options.seed;
  wf::data::Dataset out(options.sequence.feature_dim());
  for (std::size_t begin = 0; begin < pages.size(); begin += chunk) {
    const auto first = pages.begin() + static_cast<std::ptrdiff_t>(begin);
    const std::vector<int> part(first, first + static_cast<std::ptrdiff_t>(
                                                   std::min(chunk, pages.size() - begin)));
    options.seed = seed + begin;
    wf::data::CaptureCorpus corpus;
    {
      const Span span("netsim.collect_captures");
      corpus = wf::data::collect_captures(site, wf::netsim::ServerFarm::for_wiki(), part, options);
    }
    counts.loads += corpus.size();
    for (const auto& capture : corpus.captures) counts.wire_units += capture.size();
    const Span span("trace.encode_corpus");
    const wf::data::Dataset encoded = wf::data::encode_corpus(corpus, options.sequence);
    for (std::size_t i = 0; i < encoded.size(); ++i) out.add(encoded[i]);
  }
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(std::clamp(p, 0.0, 1.0) * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

OneCpu::OneCpu() {
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0)
    throw std::runtime_error("sched_getaffinity failed");
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &saved_)) cpu_ = c;
  if (cpu_ < 0) throw std::runtime_error("sched_getaffinity returned no CPU");
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu_, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0)
    throw std::runtime_error("could not restrict the thread to one CPU");
}

OneCpu::~OneCpu() { sched_setaffinity(0, sizeof(saved_), &saved_); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double host_calibration_ms() {
  std::vector<double> times;
  volatile std::uint64_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const double start = now_seconds();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    double acc = 1.0;
    for (int i = 0; i < 4000000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc = acc * 0.999999 + static_cast<double>(x & 0xff) * 1e-9;
    }
    sink = sink + x + static_cast<std::uint64_t>(acc);
    times.push_back((now_seconds() - start) * 1e3);
  }
  return median(times);
}

}  // namespace wfbench
