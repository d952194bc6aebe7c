// pipeline: the paper's flow end to end on packet-level captures. Set-up
// crawls 50 training pages, 600 unseen pages and drifted reloads of 10 % of
// the unseen pages (1 % loss, reassembling observer). Each measured round
// trains the 3-sequence embedding for a fixed number of steps, re-targets it
// onto the unseen pages, classifies their held-out loads and adapts every
// drifted class.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "core/adaptive.hpp"
#include "data/build.hpp"
#include "data/splits.hpp"
#include "eval/scenario.hpp"
#include "netsim/website.hpp"
#include "obs/metrics.hpp"
#include "oracle.hpp"

namespace wfbench {
namespace {

constexpr int kTrainClasses = 50;
constexpr int kUnseenClasses = 600;
constexpr int kDriftedClasses = kUnseenClasses / 10;
constexpr int kSamplesPerClass = 40;
constexpr int kRefsPerClass = 20;  // the other 20 loads of each class are held out
constexpr double kLoss = 0.01;
constexpr double kDrift = 0.3;
constexpr int kTrainSteps = 1500;
constexpr std::size_t kClassifyBatch = 100;
constexpr std::size_t kOracleQueries = 200;
constexpr int kKnnK = 40;
constexpr std::size_t kSetups = 5;
constexpr std::size_t kCrawlChunk = 100;  // pages per collect_captures call
// The site, the training crawl and the model's initial weights are fixed;
// --seed picks the unseen pages' loads (which loads are observed, which
// packets are lost), the held-out split and the drift.
constexpr std::uint64_t kSiteSeed = 4242;
constexpr std::uint64_t kTrainCrawlSeed = 990001;

struct Inputs {
  wf::data::Dataset train;
  wf::data::Dataset references;
  wf::data::Dataset held_out;
  wf::data::Dataset drifted;
  CrawlCounts counts;
};

Inputs set_up(std::uint64_t seed, const wf::trace::SequenceOptions& seq) {
  Inputs inputs;
  wf::netsim::WikiSiteConfig site_config;
  site_config.n_pages = kTrainClasses + kUnseenClasses;
  site_config.seed = kSiteSeed;
  const wf::netsim::Website site = wf::netsim::make_wiki_site(site_config);
  std::vector<int> train_pages(kTrainClasses);
  std::vector<int> unseen_pages(kUnseenClasses);
  std::vector<int> drifted_pages(kDriftedClasses);
  for (int p = 0; p < kTrainClasses; ++p) train_pages[p] = p;
  for (int p = 0; p < kUnseenClasses; ++p) unseen_pages[p] = kTrainClasses + p;
  for (int p = 0; p < kDriftedClasses; ++p) drifted_pages[p] = kTrainClasses + 10 * p;
  const auto packets = [&](int samples, std::uint64_t crawl_seed) {
    wf::data::DatasetBuildOptions options;
    options.samples_per_class = samples;
    options.seed = crawl_seed;
    options.sequence = seq;
    options.browser.transport.enabled = true;
    options.browser.transport.loss_probability = kLoss;
    return options;
  };

  // The training crawl is the same for every seed, so every seed trains the
  // same model and top1 moves with the unseen pages' loads only.
  inputs.train =
      crawl(site, train_pages, packets(kRefsPerClass, kTrainCrawlSeed), kCrawlChunk, inputs.counts);
  const std::uint64_t crawl_seed = 990001 + seed * 104729;
  const wf::data::SampleSplit unseen = wf::data::split_samples(
      crawl(site, unseen_pages, packets(kSamplesPerClass, crawl_seed + 1), kCrawlChunk,
            inputs.counts),
      kRefsPerClass, seed);
  inputs.references = unseen.first;
  inputs.held_out = unseen.second;
  wf::netsim::Website drifted_site = site;
  wf::netsim::apply_content_drift(drifted_site, kDrift, seed + 17);
  inputs.drifted = crawl(drifted_site, drifted_pages, packets(kRefsPerClass, crawl_seed + 2),
                         kCrawlChunk, inputs.counts);
  return inputs;
}

// Rows of `label` in the store, as sorted embedding vectors.
std::vector<std::vector<float>> rows_of(const wf::core::ReferenceStore& store, int label) {
  std::vector<std::vector<float>> rows;
  for (std::size_t s = 0; s < store.shard_count(); ++s) {
    const wf::core::ShardView shard = store.shard_view(s);
    for (std::size_t r = 0; r < shard.rows; ++r)
      if (store.label_of_id(static_cast<std::size_t>(shard.class_ids[r])) == label)
        rows.emplace_back(shard.data + r * store.dim(), shard.data + (r + 1) * store.dim());
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

}  // namespace

Result run_pipeline(const Options& options) {
  Result res;
  wf::trace::SequenceOptions seq = wf::eval::ScenarioConfig::standard().seq3;
  seq.coalesce_packets = true;
  wf::core::EmbeddingConfig embedding = wf::eval::ScenarioConfig::standard().embedding3;
  embedding.train_iterations = kTrainSteps;

  std::vector<double> setup_times;
  Inputs inputs;
  for (std::size_t s = 0; s < kSetups; ++s) {
    set_trace_id(s);
    const double t0 = now_seconds();
    inputs = set_up(options.seed, seq);
    setup_times.push_back(now_seconds() - t0);
  }
  const std::vector<int> unseen_classes = inputs.references.classes();
  const std::vector<int> drifted_classes = inputs.drifted.classes();

  std::vector<double> train_s;
  std::vector<double> batch_ms;
  std::vector<double> round_qps;          // traces classified per second, per round
  std::vector<double> swap_s;             // every class swap
  TracedSplit classify;
  std::vector<int> first_top1;
  // Per-layer totals cover the traced rounds, like the program's span.*
  // histograms they sit beside.
  std::uint64_t embed_rows = 0;
  double adapt_traced_s = 0.0;
  wf::obs::Registry::global().reset();

  const std::size_t rounds = run_rounds(options, [&](std::size_t round, bool traced) {
    const bool checked = round == 0;

    wf::core::AdaptiveFingerprinter attacker(embedding, kKnnK);
    {
      const Span span("core.provision");
      const double t0 = now_seconds();
      attacker.provision(inputs.train);
      train_s.push_back(now_seconds() - t0);
      res.counts["train_steps"] += kTrainSteps;
      ++res.attempted;
    }
    {
      const Span span("core.set_references");
      attacker.set_references(inputs.references);
      if (traced) embed_rows += inputs.references.size();
      ++res.counts["retargets"];
      ++res.attempted;
    }
    res.check(attacker.target_classes() == unseen_classes, "pipeline: re-target classes");

    std::vector<std::vector<wf::core::RankedLabel>> rankings;
    double round_classify_s = 0.0;
    for (std::size_t begin = 0; begin < inputs.held_out.size(); begin += kClassifyBatch) {
      const std::size_t end = std::min(inputs.held_out.size(), begin + kClassifyBatch);
      wf::data::Dataset batch(inputs.held_out.feature_dim());
      for (std::size_t i = begin; i < end; ++i) batch.add(inputs.held_out[i]);
      const Span span("core.fingerprint_batch");
      const double t0 = now_seconds();
      auto ranked = attacker.fingerprint_batch(batch);
      const double dt = now_seconds() - t0;
      batch_ms.push_back(dt * 1e3);
      classify.add(traced, static_cast<double>(batch.size()), dt);
      round_classify_s += dt;
      if (traced) embed_rows += batch.size();
      ++res.counts["batches"];
      ++res.attempted;
      if (ranked.size() != batch.size()) ++res.failed;
      for (auto& r : ranked) rankings.push_back(std::move(r));
    }

    round_qps.push_back(static_cast<double>(inputs.held_out.size()) / round_classify_s);

    std::vector<int> top1;
    for (const auto& ranking : rankings) top1.push_back(ranking.empty() ? -1 : ranking[0].label);
    if (checked) {
      first_top1 = top1;
      // Every ranking is a permutation of the target classes, and the top-n
      // curve rises monotonically to 1.
      bool permutations = rankings.size() == inputs.held_out.size();
      for (const auto& ranking : rankings) {
        std::vector<int> labels;
        for (const auto& r : ranking) labels.push_back(r.label);
        std::sort(labels.begin(), labels.end());
        permutations = permutations && labels == unseen_classes;
      }
      res.check(permutations, "pipeline: rankings are permutations of the target classes");
      const wf::core::TopNCurve curve = wf::core::curve_from_rankings(
          rankings, inputs.held_out.labels_of(), unseen_classes.size());
      bool monotone = curve.max_n() == unseen_classes.size();
      for (std::size_t n = 2; n <= curve.max_n(); ++n)
        monotone = monotone && curve.top(n) >= curve.top(n - 1);
      res.check(monotone && curve.top(curve.max_n()) == 1.0,
                "pipeline: top-n curve is non-decreasing and reaches 1");
      res.end_to_end["top1"] = curve.top(1);

      // float64 brute-force k-NN over the model's own embeddings.
      const std::size_t n = std::min(kOracleQueries, inputs.held_out.size());
      wf::nn::Matrix sample(n, inputs.held_out.feature_dim());
      for (std::size_t i = 0; i < n; ++i)
        sample.set_row(i, inputs.held_out[i * inputs.held_out.size() / n].features);
      const wf::nn::Matrix embedded = attacker.model().embed(sample);
      const auto exact = exact_neighbours(attacker.store(), embedded, kKnnK);
      std::size_t disagree = 0;
      std::size_t ties = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (class_votes(exact[i], kKnnK).front().label == top1[i * inputs.held_out.size() / n])
          continue;
        if (rounding_tie(exact[i], kKnnK, 1e-4)) ++ties;
        else ++disagree;
      }
      res.check(disagree == 0, "pipeline: float64 k-NN vote agrees with fingerprint_batch");
      res.counts["oracle_ties"] = ties;

      res.end_to_end["recall10"] = recall_at_10(attacker.classifier(), attacker.store(), embedded);
    } else {
      res.check(top1 == first_top1, "pipeline: every round classifies identically");
    }

    for (const int label : drifted_classes) {
      const std::size_t before = attacker.store().size();
      const wf::data::Dataset fresh = inputs.drifted.filter([label](int l) { return l == label; });
      double dt = 0.0;
      {
        const Span span("core.adapt_class");
        const double t0 = now_seconds();
        attacker.adapt_class(label, inputs.drifted);
        dt = now_seconds() - t0;
      }
      swap_s.push_back(dt);
      if (traced) {
        adapt_traced_s += dt;
        embed_rows += fresh.size();
      }
      ++res.counts["swaps"];
      ++res.attempted;
      if (checked) {
        // Row count conserved (20 out, 20 in) and the class holds exactly the
        // embeddings of its fresh loads.
        std::vector<std::vector<float>> want;
        const wf::nn::Matrix embedded = attacker.model().embed_dataset(fresh);
        for (std::size_t r = 0; r < embedded.rows(); ++r)
          want.emplace_back(embedded.row_span(r).begin(), embedded.row_span(r).end());
        std::sort(want.begin(), want.end());
        const bool ok = attacker.store().size() == before &&
                        rows_of(attacker.store(), label) == want;
        res.check(ok, "pipeline: swap keeps the row count and the class holds its fresh rows");
        if (!ok) ++res.failed;
      }
    }
  });

  res.counts["rounds"] = rounds;
  res.end_to_end["setup_s"] = median(setup_times);
  // Rates are medians over rounds (or swaps), so a stall in one round does
  // not move them. A round's 60 swaps take about 17 ms in all, too little
  // for a per-round rate to be steady.
  res.end_to_end["train_steps_per_s"] = kTrainSteps / median(train_s);
  res.end_to_end["qps"] = median(round_qps);
  res.end_to_end["p50_ms"] = median(batch_ms);
  res.end_to_end["adapt_per_s"] = 1.0 / median(swap_s);

  const Tracer& tracer = Tracer::global();
  res.per_layer["netsim.crawl_s"] = tracer.total("netsim.collect_captures") / kSetups;
  res.per_layer["netsim.loads"] = static_cast<double>(inputs.counts.loads);
  res.per_layer["netsim.wire_units"] = static_cast<double>(inputs.counts.wire_units);
  res.per_layer["trace.encode_s"] = tracer.total("trace.encode_corpus") / kSetups;
  res.per_layer["core.train_s"] = median(train_s);
  const wf::obs::Snapshot snapshot = wf::obs::Registry::global().snapshot();
  if (const auto* e = snapshot.find("span.embed")) res.per_layer["core.embed_s"] = e->sum / 1e3;
  if (const auto* e = snapshot.find("span.rank")) res.per_layer["core.rank_s"] = e->sum / 1e3;
  res.per_layer["core.embed_rows"] = static_cast<double>(embed_rows);
  res.per_layer["core.adapt_s"] = adapt_traced_s;
  res.per_layer["obs.overhead_pct"] = classify.overhead_pct();
  return res;
}

}  // namespace wfbench
