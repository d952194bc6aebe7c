// wf::obs: counter/gauge basics, histogram bucket + quantile exactness vs a
// sorted-vector oracle, registry kind checks, multi-threaded counter/span
// recording (exercised under the TSan preset), snapshot determinism
// (same seed -> byte-identical CSV), and the pruned k-NN path's phase spans
// (probe, scan, finalize: recorded with obs on, output byte-identical off).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/knn.hpp"
#include "core/sharded_reference_set.hpp"
#include "index/ivf.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "test_common.hpp"
#include "util/rng.hpp"

using wf::obs::Counter;
using wf::obs::Gauge;
using wf::obs::Histogram;
using wf::obs::InstrumentKind;
using wf::obs::Registry;
using wf::obs::Snapshot;
using wf::obs::SnapshotEntry;
using wf::obs::Span;

namespace {

// The formula the obs::Histogram contract promises: the exact percentile
// math eval/exp_serve and eval/exp_robust used before the port.
double oracle_quantile(std::vector<double> sorted, double p) {
  std::sort(sorted.begin(), sorted.end());
  return sorted[static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1))];
}

std::string file_contents(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void test_counter_gauge() {
  Counter counter;
  CHECK(counter.value() == 0);
  counter.inc();
  counter.inc(41);
  CHECK(counter.value() == 42);
  counter.reset();
  CHECK(counter.value() == 0);

  Gauge gauge;
  gauge.set(7);
  gauge.add(-10);
  CHECK(gauge.value() == -3);
}

void test_histogram_exact_quantiles() {
  Histogram hist;
  CHECK(hist.count() == 0);
  CHECK(hist.quantile(0.5) == 0.0);  // empty: a defined zero, not UB

  wf::util::Rng rng(1234);
  std::vector<double> samples;
  samples.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(0.01, 5000.0);
    samples.push_back(v);
    hist.record(v);
  }

  CHECK(hist.count() == samples.size());
  CHECK(hist.exact());
  CHECK(hist.min() == *std::min_element(samples.begin(), samples.end()));
  CHECK(hist.max() == *std::max_element(samples.begin(), samples.end()));
  double sum = 0.0;
  for (const double v : samples) sum += v;
  CHECK_NEAR(hist.sum(), sum, 1e-6);

  // Quantiles must be bit-identical to the sorted-vector oracle — this is
  // what keeps the exp_serve/exp_robust CSVs unchanged after the port.
  for (const double p : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0})
    CHECK(hist.quantile(p) == oracle_quantile(samples, p));

  // Bucket counts must agree with manual bucketing against bounds().
  const std::vector<double>& bounds = Histogram::bounds();
  std::vector<std::uint64_t> expected(bounds.size() + 1, 0);
  for (const double v : samples) {
    const auto it = std::lower_bound(bounds.begin(), bounds.end(), v);
    ++expected[static_cast<std::size_t>(it - bounds.begin())];
  }
  CHECK(hist.bucket_counts() == expected);

  hist.reset();
  CHECK(hist.count() == 0);
  CHECK(hist.quantile(0.99) == 0.0);
}

void test_histogram_overflow_degrades() {
  Histogram hist;
  // Past the retention capacity quantiles degrade to bucket upper bounds;
  // they must stay finite, ordered and within [min, max]-ish bucket range.
  const std::size_t n = Histogram::kSampleCapacity + 100;
  wf::util::Rng rng(99);
  for (std::size_t i = 0; i < n; ++i) hist.record(rng.uniform(0.5, 80.0));
  CHECK(hist.count() == n);
  CHECK(!hist.exact());
  const double p50 = hist.quantile(0.5);
  const double p99 = hist.quantile(0.99);
  CHECK(p50 > 0.0);
  CHECK(p50 <= p99);
  // A bucket upper bound overshoots by at most 2x: with samples <= 80 the
  // answer can never exceed the first bound past 80 (0.001 * 2^17).
  CHECK(p99 <= 0.001 * 131072.0);
  std::uint64_t total = 0;
  for (const std::uint64_t c : hist.bucket_counts()) total += c;
  CHECK(total == n);
}

void test_registry() {
  Registry registry;
  Counter& c = registry.counter("a.requests");
  CHECK(&registry.counter("a.requests") == &c);  // same name -> same instance
  registry.gauge("b.depth").set(3);
  registry.histogram("c.latency").record(1.5);

  bool threw = false;
  try {
    registry.gauge("a.requests");  // kind mismatch must throw
  } catch (const std::logic_error&) {
    threw = true;
  }
  CHECK(threw);

  c.inc(5);
  const Snapshot snapshot = registry.snapshot();
  CHECK(snapshot.entries.size() == 3);
  // Deterministic order: sorted by name.
  CHECK(snapshot.entries[0].name == "a.requests");
  CHECK(snapshot.entries[1].name == "b.depth");
  CHECK(snapshot.entries[2].name == "c.latency");
  CHECK(snapshot.find("a.requests") != nullptr);
  CHECK(snapshot.find("a.requests")->count == 5);
  CHECK(snapshot.find("b.depth")->value == 3.0);
  CHECK(snapshot.find("c.latency")->kind == InstrumentKind::histogram);
  CHECK(snapshot.find("c.latency")->buckets.size() == Histogram::kBucketCount + 1);
  CHECK(snapshot.find("missing") == nullptr);

  registry.reset();
  CHECK(registry.snapshot().find("a.requests")->count == 0);
}

void test_multithreaded_counters() {
  Registry registry;
  Counter& counter = registry.counter("mt.hits");
  Histogram& hist = registry.histogram("mt.latency");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.inc();
        hist.record(static_cast<double>(t) + 0.5);
      }
    });
  for (std::thread& thread : threads) thread.join();
  CHECK(counter.value() == static_cast<std::uint64_t>(kThreads) * kPerThread);
  CHECK(hist.count() == static_cast<std::uint64_t>(kThreads) * kPerThread);
}

void test_spans() {
  const bool was_enabled = wf::obs::enabled();
  wf::obs::set_enabled(false);
  wf::obs::clear_spans();
  {
    const Span off("obs_test_disabled");
  }
  CHECK(wf::obs::recent_spans().empty());  // disabled spans record nothing

  wf::obs::set_enabled(true);
  {
    const Span outer("obs_test_outer");
    const Span inner("obs_test_inner");  // nested: one depth below outer
  }
  std::vector<wf::obs::SpanRecord> spans = wf::obs::recent_spans();
  CHECK(spans.size() == 2);
  // Completion order: inner closes first, and nests one level deeper.
  CHECK(spans[0].name == "obs_test_inner");
  CHECK(spans[0].depth == 1);
  CHECK(spans[1].name == "obs_test_outer");
  CHECK(spans[1].depth == 0);
  CHECK(spans[0].sequence < spans[1].sequence);
  // Every span also lands in the global "span.<name>" histogram.
  const Snapshot global = Registry::global().snapshot();
  CHECK(global.find("span.obs_test_outer") != nullptr);
  CHECK(global.find("span.obs_test_outer")->count >= 1);

  // Multi-threaded span recording: per-thread rings, ordinals and
  // sequences must stay consistent under concurrency (TSan preset).
  wf::obs::clear_spans();
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 300;  // > ring capacity: exercises wrap
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        const Span span("obs_test_mt");
      }
    });
  for (std::thread& thread : threads) thread.join();
  spans = wf::obs::recent_spans();
  // Each thread keeps its newest kSpanRingCapacity spans. The main thread's
  // ring also holds earlier spans of this test, so bound loosely.
  CHECK(spans.size() >= kThreads * wf::obs::kSpanRingCapacity);
  std::uint64_t last_thread = 0;
  std::uint64_t last_sequence = 0;
  bool ordered = true;
  for (const wf::obs::SpanRecord& span : spans) {
    if (span.thread == last_thread && !(last_sequence <= span.sequence)) ordered = false;
    last_thread = span.thread;
    last_sequence = span.sequence;
  }
  CHECK(ordered);  // merged output sorted by (thread, sequence)

  wf::obs::clear_spans();
  wf::obs::set_enabled(was_enabled);
}

void test_snapshot_determinism() {
  // Two registries fed the same seeded stream must render byte-identical
  // CSVs (sorted names, fixed formatting) — the snapshot path is part of
  // the determinism contract.
  const std::string path_a = "obs_snapshot_a.csv";
  const std::string path_b = "obs_snapshot_b.csv";
  for (const std::string& path : {path_a, path_b}) {
    Registry registry;
    wf::util::Rng rng(777);
    for (int i = 0; i < 100; ++i) {
      registry.counter("z.events").inc(static_cast<std::uint64_t>(rng.uniform(0, 5)));
      registry.histogram("a.latency").record(rng.uniform(0.1, 40.0));
      registry.gauge("m.depth").set(i);
    }
    wf::obs::snapshot_table(registry.snapshot()).write_csv(path);
  }
  const std::string a = file_contents(path_a);
  CHECK(!a.empty());
  CHECK(a == file_contents(path_b));
  CHECK(a.find("a.latency") < a.find("m.depth"));
  CHECK(a.find("m.depth") < a.find("z.events"));
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

// rank_batch on a pruned store records one probe, one scan and one finalize
// span per call; with obs off it records nothing, and the rankings are the
// same bytes either way.
void test_rank_phase_spans() {
  const bool was_enabled = wf::obs::enabled();
  constexpr std::size_t kDim = 8;
  wf::util::Rng rng(4242);
  wf::core::ShardedReferenceSet base(kDim, 1);
  std::vector<float> row(kDim);
  for (int i = 0; i < 300; ++i) {
    for (float& x : row) x = static_cast<float>(rng.normal());
    base.add(row, i % 25);
  }
  wf::index::IvfConfig config;
  config.clusters = 8;
  config.probes = 2;
  const wf::index::IvfReferenceStore store(base, config);
  wf::nn::Matrix queries(40, kDim);
  for (std::size_t q = 0; q < queries.rows(); ++q)
    for (float& x : queries.row(q)) x = static_cast<float>(rng.normal());
  const wf::core::KnnClassifier knn(5);
  const char* phases[] = {"span.rank.probe", "span.rank.scan", "span.rank.finalize"};

  wf::obs::set_enabled(false);
  wf::obs::clear_spans();
  Registry::global().reset();
  const auto off = knn.rank_batch(store, queries);
  CHECK(wf::obs::recent_spans().empty());
  for (const char* phase : phases) {
    const SnapshotEntry* entry = Registry::global().snapshot().find(phase);
    CHECK(entry == nullptr || entry->count == 0);
  }

  wf::obs::set_enabled(true);
  const auto on = knn.rank_batch(store, queries);
  const Snapshot snapshot = Registry::global().snapshot();
  for (const char* phase : phases) {
    const SnapshotEntry* entry = snapshot.find(phase);
    CHECK(entry != nullptr && entry->count == 1);  // once per call
  }
  const std::vector<wf::obs::SpanRecord> spans = wf::obs::recent_spans();
  std::vector<std::string> names;
  names.reserve(spans.size());
  for (const wf::obs::SpanRecord& span : spans) names.push_back(span.name);
  CHECK((names == std::vector<std::string>{"rank.probe", "rank.scan", "rank.finalize"}));

  CHECK(off.size() == on.size());
  for (std::size_t q = 0; q < off.size() && q < on.size(); ++q) {
    CHECK(off[q].size() == on[q].size());
    for (std::size_t i = 0; i < off[q].size() && i < on[q].size(); ++i) {
      CHECK(off[q][i].label == on[q][i].label);
      CHECK(off[q][i].votes == on[q][i].votes);
      CHECK(off[q][i].distance == on[q][i].distance);
    }
  }
  wf::obs::clear_spans();
  wf::obs::set_enabled(was_enabled);
}

}  // namespace

int main() {
  test_counter_gauge();
  test_histogram_exact_quantiles();
  test_histogram_overflow_degrades();
  test_registry();
  test_multithreaded_counters();
  test_spans();
  test_snapshot_determinism();
  test_rank_phase_spans();
  return TEST_MAIN_RESULT();
}
