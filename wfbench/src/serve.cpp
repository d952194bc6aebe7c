// serve: the trained model behind wf serve on loopback. Set-up crawls 300
// pages (record level), trains the 3-sequence embedding, refreshes every
// class from a second crawl, saves the model and loads it back with
// io::load_attacker, then starts one Server with a LocalHandler. Two
// persistent connections each run a closed loop of one trace per QRYB frame,
// and every reply is compared with in-process fingerprint_batch on the same
// trace.
//
// The traced run also serves the model as two --slice backends behind a
// CoordinatorHandler, for the coordinator's per-layer figures. That path is
// not timed end to end: on a contended host its rate swung 3-5x between runs
// (each request crosses about ten thread handoffs), far past any bound.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/adaptive.hpp"
#include "data/build.hpp"
#include "data/splits.hpp"
#include "eval/scenario.hpp"
#include "io/serialize.hpp"
#include "netsim/website.hpp"
#include "obs/metrics.hpp"
#include "oracle.hpp"
#include "serve/client.hpp"
#include "serve/coordinator.hpp"
#include "serve/frame.hpp"
#include "serve/server.hpp"

namespace wfbench {
namespace {

constexpr int kClasses = 300;
constexpr int kSamplesPerClass = 35;  // 20 train/reference loads, 15 held out
constexpr int kRefsPerClass = 20;
constexpr int kKnnK = 40;
constexpr std::size_t kSetups = 5;
// The site and the model's initial weights are fixed; --seed picks the crawl
// and the held-out split.
constexpr std::uint64_t kSiteSeed = 4242;
constexpr std::size_t kBlock = 100;  // requests per connection per round
constexpr std::size_t kOracleQueries = 200;
constexpr std::size_t kScatterBlocks = 10;  // traced coordinator phase, one connection
constexpr int kMaxRetries = 3;

struct Deployment {
  std::unique_ptr<wf::core::Attacker> model;  // the loaded copy, in process
  std::vector<std::unique_ptr<wf::serve::Server>> servers;  // front last
  double train_s = 0.0;
  double adapt_s = 0.0;
  double save_s = 0.0;
  double load_s = 0.0;
  double model_mb = 0.0;
};

// Starts the daemon(s) around clones of `model`: one Server with a
// LocalHandler, or two --slice backends behind a CoordinatorHandler. The
// front server is last.
std::vector<std::unique_ptr<wf::serve::Server>> start_servers(const wf::core::Attacker& model,
                                                              bool scatter) {
  std::vector<std::unique_ptr<wf::serve::Server>> servers;
  wf::serve::ServerConfig config;  // loopback, ephemeral port, default caps
  if (!scatter) {
    servers.push_back(std::make_unique<wf::serve::Server>(
        std::make_shared<wf::serve::LocalHandler>(model.clone()), config));
    servers.back()->start();
    return servers;
  }
  std::vector<wf::serve::BackendAddress> backends;
  for (std::size_t slice = 0; slice < 2; ++slice) {
    servers.push_back(std::make_unique<wf::serve::Server>(
        std::make_shared<wf::serve::LocalHandler>(model.clone(), slice, 2), config));
    servers.back()->start();
    backends.push_back({config.host, servers.back()->port()});
  }
  servers.push_back(std::make_unique<wf::serve::Server>(
      std::make_shared<wf::serve::CoordinatorHandler>(backends, 2000), config));
  servers.back()->start();
  return servers;
}

// Crawl, train, refresh, save, load and start: one whole set-up.
Deployment deploy(const Options& options, const std::string& model_path,
                  wf::data::Dataset& held_out, CrawlCounts& counts) {
  Deployment d;
  wf::netsim::WikiSiteConfig site_config;
  site_config.n_pages = kClasses;
  site_config.seed = kSiteSeed;
  const wf::netsim::Website site = wf::netsim::make_wiki_site(site_config);
  std::vector<int> pages(kClasses);
  for (int p = 0; p < kClasses; ++p) pages[p] = p;

  counts = {};
  const auto records = [&](int samples, std::uint64_t crawl_seed) {
    wf::data::DatasetBuildOptions crawl_options;
    crawl_options.samples_per_class = samples;
    crawl_options.seed = crawl_seed;
    crawl_options.sequence = wf::eval::ScenarioConfig::standard().seq3;
    return crawl_options;
  };
  const std::uint64_t crawl_seed = 990001 + options.seed * 104729;
  const wf::data::SampleSplit split = wf::data::split_samples(
      crawl(site, pages, records(kSamplesPerClass, crawl_seed), pages.size(), counts),
      kRefsPerClass, options.seed);
  held_out = split.second;
  const wf::data::Dataset fresh =
      crawl(site, pages, records(kRefsPerClass, crawl_seed + 2), pages.size(), counts);

  wf::core::EmbeddingConfig embedding = wf::eval::ScenarioConfig::standard().embedding3;
  wf::core::AdaptiveFingerprinter attacker(embedding, kKnnK);
  {
    const Span span("core.provision");
    const double t0 = now_seconds();
    attacker.provision(split.first);
    d.train_s = now_seconds() - t0;
  }
  attacker.initialize(split.first);
  {
    const Span span("core.adapt");
    const double t0 = now_seconds();
    for (const int label : pages) attacker.adapt_class(label, fresh);
    d.adapt_s = now_seconds() - t0;
  }
  {
    const Span span("io.save_attacker");
    const double t0 = now_seconds();
    wf::io::save_attacker(model_path, attacker);
    d.save_s = now_seconds() - t0;
  }
  d.model_mb = static_cast<double>(std::filesystem::file_size(model_path)) / (1024.0 * 1024.0);
  {
    const Span span("io.load_attacker");
    const double t0 = now_seconds();
    d.model = wf::io::load_attacker(model_path);
    d.load_s = now_seconds() - t0;
  }
  std::filesystem::remove(model_path);

  const Span span("serve.start");
  const OneCpu pin;  // the server's threads run on one CPU; see run_serve
  d.servers = start_servers(*d.model, false);
  return d;
}

// One connection's closed loop: its share of the traffic plus the counts
// and timings it saw.
struct Connection {
  std::unique_ptr<wf::serve::Client> client;
  std::size_t next = 0;  // next trace index (strided per connection)
  std::vector<double> latency_ms;
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t errr = 0;
  std::uint64_t retries = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t failed = 0;
};

void run_block(Connection& c, const wf::data::Dataset& traces,
               const std::vector<std::vector<wf::core::RankedLabel>>& expected,
               std::size_t stride) {
  wf::nn::Matrix frame(1, traces.feature_dim());
  for (std::size_t i = 0; i < kBlock; ++i) {
    const std::size_t index = c.next % traces.size();
    c.next += stride;
    frame.set_row(0, traces[index].features);
    set_trace_id(index + 1);
    wf::serve::Rankings reply;
    bool ok = false;
    for (int attempt = 0; attempt <= kMaxRetries && !ok; ++attempt) {
      if (attempt > 0) ++c.retries;
      ++c.sent;
      try {
        const Span span("client.query");
        const double t0 = now_seconds();
        reply = c.client->query(frame);
        c.latency_ms.push_back((now_seconds() - t0) * 1e3);
        ok = true;
      } catch (const wf::serve::ServeError& e) {
        ++c.errr;
        if (!e.retryable()) break;
      } catch (const std::exception&) {
        break;
      }
    }
    if (!ok) {
      ++c.failed;
      continue;
    }
    ++c.answered;
    if (reply.size() != 1 || !same_rankings({reply[0]}, {expected[index]})) {
      ++c.mismatches;
      ++c.failed;
      continue;
    }
  }
}

}  // namespace

Result run_serve(const Options& options) {
  Result res;
  const std::string model_dir = options.work_dir + "/models";
  std::filesystem::create_directories(model_dir);
  const std::string model_path = model_dir + "/wfbench-" + options.workload + "-" +
                                 std::to_string(options.seed) + ".wfm";

  std::vector<double> setup_times, train_s, adapt_s, save_s, load_s;
  Deployment d;
  wf::data::Dataset held_out;
  CrawlCounts counts;
  for (std::size_t s = 0; s < kSetups; ++s) {
    set_trace_id(s);
    for (auto& server : d.servers) server->stop();
    d = Deployment{};
    const double t0 = now_seconds();
    d = deploy(options, model_path, held_out, counts);
    setup_times.push_back(now_seconds() - t0);
    train_s.push_back(d.train_s);
    adapt_s.push_back(d.adapt_s);
    save_s.push_back(d.save_s);
    load_s.push_back(d.load_s);
  }
  const std::uint16_t port = d.servers.back()->port();
  const auto* adaptive = dynamic_cast<const wf::core::AdaptiveFingerprinter*>(d.model.get());
  res.check(adaptive != nullptr, "serve: the loaded model is the adaptive attacker");
  if (adaptive == nullptr) return res;

  // In-process answers for every trace the connections will send, and the
  // row-level recall of the served store, computed before the clock starts.
  const auto expected = d.model->fingerprint_batch(held_out);
  {
    const std::size_t n = std::min(kOracleQueries, held_out.size());
    wf::nn::Matrix sample(n, held_out.feature_dim());
    for (std::size_t i = 0; i < n; ++i)
      sample.set_row(i, held_out[i * held_out.size() / n].features);
    res.end_to_end["recall10"] = recall_at_10(adaptive->classifier(), adaptive->store(),
                                              adaptive->model().embed(sample));
  }

  // The server's threads and both connections share one CPU. A request is
  // handed between threads five times; spread over idle CPUs each handoff
  // pays a cross-CPU wake-up whose cost changed from run to run (4.0k-5.5k
  // q/s over four seeds); on one CPU they are plain context switches
  // (4.3k-4.6k q/s). Set-up runs unpinned.
  const OneCpu pin;
  res.notes.push_back("serving threads on cpu " + std::to_string(pin.cpu()));
  const std::size_t n_connections = 2;
  std::vector<Connection> connections(n_connections);
  wf::serve::ClientConfig client_config;
  client_config.connect_retry_ms = 2000;
  for (std::size_t i = 0; i < n_connections; ++i) {
    connections[i].client = std::make_unique<wf::serve::Client>("127.0.0.1", port, client_config);
    connections[i].client->hello();
    connections[i].next = i;
  }

  wf::obs::Registry::global().reset();
  TracedSplit replies;
  std::vector<double> round_qps;  // replies per second, per round
  // The server's p50 is exact only while its histogram holds at most
  // kSampleCapacity samples, so the traced run reads it, and the client p50
  // it is compared with, over the replies answered before one more round
  // could pass that capacity.
  std::optional<double> handle_p50;
  std::vector<std::size_t> handle_window(n_connections);
  const std::size_t rounds = run_rounds(options, [&](std::size_t, bool traced) {
    std::uint64_t before = 0;
    for (const Connection& c : connections) before += c.answered;
    const double t0 = now_seconds();
    std::thread second([&] { run_block(connections[1], held_out, expected, n_connections); });
    run_block(connections[0], held_out, expected, n_connections);
    second.join();
    const double dt = now_seconds() - t0;
    std::uint64_t after = 0;
    for (const Connection& c : connections) after += c.answered;
    replies.add(traced, static_cast<double>(after - before), dt);
    round_qps.push_back(static_cast<double>(after - before) / dt);
    if (options.trace && !handle_p50 &&
        after + n_connections * kBlock > wf::obs::Histogram::kSampleCapacity) {
      const wf::obs::Snapshot window = connections[0].client->stats();
      const auto* e = window.find("serve.handle_ms.qryb");
      handle_p50 = e == nullptr ? 0.0 : e->p50;
      for (std::size_t i = 0; i < n_connections; ++i)
        handle_window[i] = connections[i].latency_ms.size();
    }
  });
  const wf::obs::Snapshot snapshot = connections[0].client->stats();
  if (!handle_p50) {
    const auto* e = snapshot.find("serve.handle_ms.qryb");
    handle_p50 = e == nullptr ? 0.0 : e->p50;
    for (std::size_t i = 0; i < n_connections; ++i)
      handle_window[i] = connections[i].latency_ms.size();
  }

  std::vector<double> latency;
  std::vector<double> window_latency;
  for (std::size_t i = 0; i < n_connections; ++i) {
    const Connection& c = connections[i];
    latency.insert(latency.end(), c.latency_ms.begin(), c.latency_ms.end());
    window_latency.insert(window_latency.end(), c.latency_ms.begin(),
                          c.latency_ms.begin() + static_cast<std::ptrdiff_t>(handle_window[i]));
    res.counts["frames_sent"] += c.sent;
    res.counts["answered"] += c.answered;
    res.counts["errr"] += c.errr;
    res.counts["retries"] += c.retries;
    res.counts["mismatches"] += c.mismatches;
    res.attempted += c.sent - c.retries;
    res.failed += c.failed;
  }
  res.counts["rounds"] = rounds;
  res.check(res.counts["mismatches"] == 0,
            "serve: replies are bit-identical to in-process fingerprint_batch");
  for (auto& c : connections) c.client.reset();
  for (auto& server : d.servers) server->stop();

  const double client_p50 = median(latency);
  res.end_to_end["setup_s"] = median(setup_times);
  // The rate is the median over rounds, so a stall in one round does not
  // move it; the mean shows in client_p99 instead.
  res.end_to_end["qps"] = median(round_qps);
  res.end_to_end["p50_ms"] = client_p50;
  res.end_to_end["train_steps_per_s"] =
      static_cast<double>(wf::eval::ScenarioConfig::standard().embedding3.train_iterations) /
      median(train_s);
  res.end_to_end["adapt_per_s"] = kClasses / median(adapt_s);
  // Every reply was checked bit-identical to `expected` for its trace, so the
  // accuracy of the served answers is that of `expected` over the held-out
  // loads, whichever of them the run had time to send.
  std::size_t hits = 0;
  for (std::size_t t = 0; t < held_out.size(); ++t)
    hits += !expected[t].empty() && expected[t][0].label == held_out[t].label;
  res.end_to_end["top1"] = static_cast<double>(hits) / static_cast<double>(held_out.size());

  // Per-layer figures.
  const Tracer& tracer = Tracer::global();
  res.per_layer["netsim.crawl_s"] = tracer.total("netsim.collect_captures") / kSetups;
  res.per_layer["netsim.loads"] = static_cast<double>(counts.loads);
  res.per_layer["netsim.wire_units"] = static_cast<double>(counts.wire_units);
  res.per_layer["trace.encode_s"] = tracer.total("trace.encode_corpus") / kSetups;
  res.per_layer["core.train_s"] = median(train_s);
  res.per_layer["io.save_s"] = median(save_s);
  res.per_layer["io.load_s"] = median(load_s);
  res.per_layer["io.model_mb"] = d.model_mb;
  if (const auto* e = snapshot.find("span.embed")) res.per_layer["core.embed_s"] = e->sum / 1e3;
  if (const auto* e = snapshot.find("span.rank")) res.per_layer["core.rank_s"] = e->sum / 1e3;
  res.per_layer["serve.handle_ms"] = *handle_p50;
  res.per_layer["serve.wire_ms"] = median(window_latency) - *handle_p50;
  if (const auto* e = snapshot.find("serve.wave_batch"))
    res.per_layer["serve.wave_batch"] =
        e->count == 0 ? 0.0 : e->sum / static_cast<double>(e->count);
  if (const auto* e = snapshot.find("serve.rejected_total"))
    res.per_layer["serve.rejected"] = static_cast<double>(e->count);
  res.per_layer["serve.retries"] = static_cast<double>(res.counts["retries"]);
  res.notes.push_back("client p99_ms=" + std::to_string(quantile(latency, 0.99)) + " over " +
                      std::to_string(latency.size()) + " requests (not an end-to-end metric)");
  res.per_layer["serve.client_p99_ms"] = quantile(latency, 0.99);
  res.per_layer["serve.client_p99_samples"] = static_cast<double>(latency.size());
  res.per_layer["obs.overhead_pct"] = replies.overhead_pct();

  if (options.trace) {
    // Reply codec cost for one trace's ranking, and the two-slice merge.
    const std::size_t reps = 500;
    std::vector<double> encode_us, decode_us, merge_ms;
    std::string frame;
    for (std::size_t i = 0; i < reps; ++i) {
      const wf::serve::Rankings one{expected[i % expected.size()]};
      const double t0 = now_seconds();
      frame = wf::serve::encode_frame(
          wf::serve::kFrameRankings, [&](wf::io::Writer& w) { wf::serve::write_rankings(w, one); });
      const double t1 = now_seconds();
      wf::serve::ParsedFrame parsed = wf::serve::parse_frame(frame.substr(8));
      const wf::serve::Rankings back = wf::serve::read_rankings(*parsed.reader);
      const double t2 = now_seconds();
      encode_us.push_back((t1 - t0) * 1e6);
      decode_us.push_back((t2 - t1) * 1e6);
      res.check(same_rankings(back, one), "serve: reply codec round trip");
    }
    res.per_layer["serve.reply_bytes"] = static_cast<double>(frame.size());
    res.per_layer["serve.encode_us"] = median(encode_us);
    res.per_layer["serve.decode_us"] = median(decode_us);

    // The coordinator path: the loaded model as two --slice backends behind
    // a CoordinatorHandler, one connection, one trace per request, every
    // reply checked like the main loop's.
    {
      auto servers = start_servers(*d.model, true);
      Connection c;
      c.client = std::make_unique<wf::serve::Client>("127.0.0.1", servers.back()->port(),
                                                     client_config);
      c.client->hello();
      wf::obs::Registry::global().reset();
      for (std::size_t b = 0; b < kScatterBlocks; ++b) run_block(c, held_out, expected, 1);
      const wf::obs::Snapshot scattered = c.client->stats();
      if (const auto* e = scattered.find("coord.scatter_ms"))
        res.per_layer["coord.scatter_ms"] = e->p50;
      res.counts["scatter_frames_sent"] = c.sent;
      res.counts["scatter_answered"] = c.answered;
      res.counts["scatter_mismatches"] = c.mismatches;
      res.attempted += c.sent - c.retries;
      res.failed += c.failed;
      res.check(c.mismatches == 0,
                "scatter: replies through the coordinator are bit-identical to fingerprint_batch");
      c.client.reset();
      for (auto& server : servers) server->stop();
    }
    {
      const wf::core::ShardedReferenceSet& refs = adaptive->references();
      for (std::size_t i = 0; i < 200; ++i) {
        wf::data::Dataset one(held_out.feature_dim());
        one.add(held_out[i % held_out.size()]);
        const std::vector<wf::core::SliceScan> slices{adaptive->scan_slice(one, 0, 2),
                                                      adaptive->scan_slice(one, 1, 2)};
        const Span span("core.merge_slice_scans");
        const double t0 = now_seconds();
        const auto merged =
            wf::core::merge_slice_scans(refs.id_to_label(), kKnnK, refs.size(), slices);
        merge_ms.push_back((now_seconds() - t0) * 1e3);
        res.check(same_rankings(merged, {expected[i % expected.size()]}),
                  "scatter: merge_slice_scans over two slices equals fingerprint_batch");
      }
      res.per_layer["core.merge_ms"] = median(merge_ms);
    }
  }
  return res;
}

}  // namespace wfbench
