// million: 1M synthetic references (20k classes, dim 64) in an IVF store
// with C=1024, P=32. The measured loop ranks 512-query batches with
// rank_batch and, after each batch, swaps one class (remove_class plus 50
// adds) on the same store — writes beside reads, no wire, no training.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "core/knn.hpp"
#include "core/sharded_reference_set.hpp"
#include "index/ivf.hpp"
#include "nn/matrix.hpp"
#include "obs/metrics.hpp"
#include "oracle.hpp"
#include "util/rng.hpp"

namespace wfbench {
namespace {

constexpr std::size_t kDim = 64;
constexpr std::size_t kClasses = 20000;
constexpr std::size_t kRefsPerClass = 50;
constexpr std::size_t kRefs = kClasses * kRefsPerClass;
constexpr double kSpread = 0.35;
constexpr std::size_t kClusters = 1024;
constexpr std::size_t kProbes = 32;
constexpr int kKnnK = 16;
constexpr std::size_t kBatch = 512;
constexpr std::size_t kBatches = 4;       // distinct query batches, cycled
constexpr std::size_t kCheckQueries = 64;  // float64 recall / merge sample
constexpr std::size_t kSetups = 3;

void gaussian_row(wf::util::Rng& rng, const std::vector<float>& centres, std::size_t c,
                  float* out) {
  for (std::size_t d = 0; d < kDim; ++d)
    out[d] = centres[c * kDim + d] + static_cast<float>(rng.normal(0.0, kSpread));
}

}  // namespace

Result run_million(const Options& options) {
  Result res;
  wf::util::Rng rng(0x6d696c6c ^ (options.seed * 0x9e3779b97f4a7c15ULL));
  std::vector<float> centres(kClasses * kDim);
  for (float& v : centres) v = static_cast<float>(rng.normal());
  const std::uint64_t rows_seed = rng.next();
  std::vector<wf::nn::Matrix> batches(kBatches, wf::nn::Matrix(kBatch, kDim));
  std::vector<std::vector<int>> truth(kBatches, std::vector<int>(kBatch));
  for (std::size_t b = 0; b < kBatches; ++b)
    for (std::size_t q = 0; q < kBatch; ++q) {
      const std::size_t c = rng.index(kClasses);
      truth[b][q] = static_cast<int>(c);
      gaussian_row(rng, centres, c, batches[b].row(q).data());
    }

  // Set-up: draw the rows straight into a store and cluster them, kSetups
  // times; the last store is kept. Every set-up redraws the same rows from
  // `rows_seed`, a chunk at a time with the clock stopped, so the driver
  // holds no copy of the store and set-up time is the program's alone.
  wf::index::IvfConfig config;
  config.clusters = kClusters;
  config.probes = kProbes;
  std::unique_ptr<wf::index::IvfReferenceStore> ivf;
  std::vector<double> setup_times;
  std::vector<double> build_times;
  std::vector<float> chunk(kClasses * kDim);
  for (std::size_t s = 0; s < kSetups; ++s) {
    ivf.reset();
    set_trace_id(s);
    wf::util::Rng rows_rng(rows_seed);
    wf::core::ShardedReferenceSet base(kDim, 1);
    double add_s = 0.0;
    for (std::size_t first = 0; first < kRefs; first += kClasses) {
      for (std::size_t c = 0; c < kClasses; ++c)
        gaussian_row(rows_rng, centres, c, chunk.data() + c * kDim);
      const double t0 = now_seconds();
      for (std::size_t c = 0; c < kClasses; ++c)
        base.add({chunk.data() + c * kDim, kDim}, static_cast<int>(c));
      add_s += now_seconds() - t0;
    }
    const double t1 = now_seconds();
    {
      const Span span("index.build");
      ivf = std::make_unique<wf::index::IvfReferenceStore>(base, config);
    }
    const double build_s = now_seconds() - t1;
    setup_times.push_back(add_s + build_s);
    build_times.push_back(build_s);
  }
  res.check(ivf->size() == kRefs && ivf->clusters() == kClusters, "million: store shape");

  const wf::core::KnnClassifier knn(kKnnK);

  // Quality, before any swap and outside every timed phase: top-1 of one full
  // batch, and row-level recall@10 of the P=32 scan against float64 exact.
  {
    const auto rankings = knn.rank_batch(*ivf, batches[0]);
    std::size_t hits = 0;
    for (std::size_t q = 0; q < kBatch; ++q) {
      res.check(rankings[q].size() == kClasses, "million: ranking covers every class");
      if (!rankings[q].empty() && rankings[q].front().label == truth[0][q]) ++hits;
    }
    res.end_to_end["top1"] = static_cast<double>(hits) / static_cast<double>(kBatch);

    wf::nn::Matrix sample(kCheckQueries, kDim);
    for (std::size_t q = 0; q < kCheckQueries; ++q) sample.set_row(q, batches[1].row_span(q));
    res.end_to_end["recall10"] = recall_at_10(knn, *ivf, sample);
  }

  // Measured loop. Traced rounds also time scan_slice and probe_shards on the
  // same batch, outside the rank_batch timing that qps and p50_ms read.
  wf::obs::Registry::global().reset();
  wf::obs::Counter& probes_total = wf::obs::Registry::global().counter("index.probes_total");
  wf::obs::Counter& rows_scanned = wf::obs::Registry::global().counter("index.rows_scanned");
  wf::obs::Counter& clusters_scanned =
      wf::obs::Registry::global().counter("index.clusters_scanned");
  std::vector<double> batch_ms;
  std::vector<double> remove_ms;
  std::vector<double> add_us;
  std::vector<double> swap_s;
  TracedSplit ranked;
  double scan_s = 0.0;
  double probe_s = 0.0;
  std::size_t probed = 0;
  std::vector<std::size_t> probe_out;
  std::vector<float> fresh(kRefsPerClass * kDim);
  const std::size_t rounds = run_rounds(options, [&](std::size_t round, bool traced) {
    const wf::nn::Matrix& batch = batches[round % kBatches];
    {
      const Span span("core.rank_batch");
      const double t0 = now_seconds();
      const auto rankings = knn.rank_batch(*ivf, batch);
      const double dt = now_seconds() - t0;
      batch_ms.push_back(dt * 1e3);
      ranked.add(traced, kBatch, dt);
      ++res.counts["batches"];
      ++res.attempted;
      if (rankings.size() != kBatch) ++res.failed;
    }
    if (traced) {
      const Span span("core.scan_slice");
      const double t0 = now_seconds();
      const wf::core::SliceScan scan = knn.scan_slice(*ivf, batch, 0, 1);
      scan_s += now_seconds() - t0;
      const Span probe_span("index.probe_shards");
      const double t1 = now_seconds();
      for (std::size_t q = 0; q < kBatch; ++q) ivf->probe_shards(batch.row_span(q), probe_out);
      probe_s += now_seconds() - t1;
      probed += kBatch;
    }

    // One class swap: 50 fresh rows drawn before the clock starts.
    const int label = static_cast<int>(rng.index(kClasses));
    for (std::size_t r = 0; r < kRefsPerClass; ++r)
      gaussian_row(rng, centres, static_cast<std::size_t>(label), fresh.data() + r * kDim);
    const std::size_t before = ivf->size();
    const Span span("index.swap");
    const double t0 = now_seconds();
    {
      const Span remove_span("index.remove_class");
      ivf->remove_class(label);
    }
    const double t1 = now_seconds();
    {
      const Span add_span("index.add");
      for (std::size_t r = 0; r < kRefsPerClass; ++r)
        ivf->add({fresh.data() + r * kDim, kDim}, label);
    }
    const double t2 = now_seconds();
    remove_ms.push_back((t1 - t0) * 1e3);
    add_us.push_back((t2 - t1) * 1e6 / kRefsPerClass);
    swap_s.push_back(t2 - t0);
    ++res.counts["swaps"];
    ++res.attempted;
    if (ivf->size() != before) {
      ++res.failed;
      res.check(false, "million: swap changed the row count");
    }
  });

  // After the swaps: rank_batch must equal merge(scan_slice) bit for bit.
  {
    wf::nn::Matrix sample(kCheckQueries, kDim);
    for (std::size_t q = 0; q < kCheckQueries; ++q) sample.set_row(q, batches[2].row_span(q));
    const auto direct = knn.rank_batch(*ivf, sample);
    std::vector<wf::core::SliceScan> slices{knn.scan_slice(*ivf, sample, 0, 1)};
    const double t0 = now_seconds();
    const auto merged =
        wf::core::merge_slice_scans(ivf->id_to_label(), kKnnK, ivf->size(), slices);
    res.per_layer["core.merge_ms"] = (now_seconds() - t0) * 1e3 / kCheckQueries;  // per query
    res.check(same_rankings(direct, merged),
              "million: rank_batch == merge_slice_scans(scan_slice)");
  }

  res.end_to_end["setup_s"] = median(setup_times);
  res.end_to_end["qps"] = static_cast<double>(kBatch) / (median(batch_ms) / 1e3);
  res.end_to_end["p50_ms"] = median(batch_ms);
  res.end_to_end["adapt_per_s"] = 1.0 / median(swap_s);
  res.end_to_end["train_steps_per_s"] =
      static_cast<double>(config.kmeans_iters) / median(build_times);
  res.counts["rounds"] = rounds;

  res.per_layer["index.build_s"] = median(build_times);
  res.per_layer["core.rank_s"] = ranked.seconds[0];  // traced rounds, like core.scan_s
  res.per_layer["core.scan_s"] = scan_s;
  res.per_layer["index.probe_us"] = probed > 0 ? probe_s * 1e6 / static_cast<double>(probed) : 0.0;
  if (probes_total.value() > 0) {
    res.per_layer["index.rows_scanned_per_query"] =
        static_cast<double>(rows_scanned.value()) / static_cast<double>(probes_total.value());
    res.per_layer["index.clusters_scanned_per_query"] =
        static_cast<double>(clusters_scanned.value()) / static_cast<double>(probes_total.value());
  }
  res.per_layer["index.remove_class_ms"] = median(remove_ms);
  res.per_layer["index.add_us"] = median(add_us);
  res.per_layer["obs.overhead_pct"] = ranked.overhead_pct();
  return res;
}

}  // namespace wfbench
