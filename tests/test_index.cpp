// wf::index invariants: the IVF-pruned scan at P = C is bit-identical to
// the exact sharded scan (rankings AND open-world kth distances) for
// several cluster counts; the seeded k-means is deterministic and depends
// only on content, not on how the base store was sharded; recall@10 at a
// pinned (C, P) clears 0.95; an index written to disk and reopened (mmap
// base, journal tails, full reload, rebuild) answers bit-identically to the
// in-memory store mutated the same way; every supported SIMD mode agrees
// with scalar; and the aligned allocation the kernels rely on really is
// 64-byte aligned. The cell-major pruned schedule is checked against a brute
// force over each query's probed cells — rank_batch, per-query rank(),
// merge_slice_scans over 1 and 3 slices, and kth_distance(s) — at several
// probe counts and batch sizes, on a store whose labels are not in id order
// and that had a class removed and re-added (ctest runs this binary on a
// 4-thread and a 1-thread pool). Class swaps keep the id space dense, answer
// like stores built fresh from the same rows, and write -> load -> write of
// an index file is byte-stable.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <vector>

#include "core/knn.hpp"
#include "core/openworld.hpp"
#include "core/sharded_reference_set.hpp"
#include "index/ivf.hpp"
#include "index/store.hpp"
#include "nn/matrix.hpp"
#include "nn/simd.hpp"
#include "test_common.hpp"
#include "util/aligned.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

namespace {

using namespace wf;

static_assert(util::kSimdAlignment == 64, "SIMD tiles assume 64-byte rows");

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<float> random_point(util::Rng& rng, std::size_t dim, double spread = 1.0) {
  std::vector<float> v(dim);
  for (float& x : v) x = static_cast<float>(rng.normal(0.0, spread));
  return v;
}

struct Row {
  std::vector<float> embedding;
  int label;
};

// Clustered rows with deliberate exact duplicates, so distance ties
// exercise the (dist, insertion-id) tie-break across cluster boundaries.
std::vector<Row> make_rows(util::Rng& rng, std::size_t dim, int n_classes, int per_class) {
  std::vector<Row> rows;
  for (int c = 0; c < n_classes; ++c) {
    const std::vector<float> center = random_point(rng, dim);
    for (int s = 0; s < per_class; ++s) {
      std::vector<float> e = center;
      if (s % 4 != 0)
        for (float& x : e) x += static_cast<float>(rng.normal(0.0, 0.15));
      rows.push_back({e, 700 + c});
    }
  }
  return rows;
}

void check_ranking_identical(const std::vector<core::RankedLabel>& a,
                             const std::vector<core::RankedLabel>& b) {
  CHECK(a.size() == b.size());
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    CHECK(a[i].label == b[i].label);
    CHECK(a[i].votes == b[i].votes);
    CHECK(a[i].distance == b[i].distance);  // bit-identical, no tolerance
  }
}

void check_rankings_identical(const std::vector<std::vector<core::RankedLabel>>& a,
                              const std::vector<std::vector<core::RankedLabel>>& b) {
  CHECK(a.size() == b.size());
  for (std::size_t q = 0; q < a.size() && q < b.size(); ++q) check_ranking_identical(a[q], b[q]);
}

// Brute force over the rows of the cells probe_shards picks for `query`,
// with the kernels' distance formula: the full ranking contract (the k
// nearest rows by (dist, insertion id) vote, per-class nearest distance,
// every class of the store ranked), the labels of the classes no probed
// row belongs to, and the open-world neighbour-th distance over the same
// rows.
struct ProbedOracle {
  std::vector<core::RankedLabel> ranking;
  std::vector<int> untouched;  // ascending
  double kth = 0.0;
};

ProbedOracle probed_oracle(const core::ReferenceStore& store, std::span<const float> query,
                           int k_cfg, int neighbour) {
  struct Hit {
    double dist;
    std::uint64_t row_id;
    int class_id;
  };
  std::vector<std::size_t> cells;
  store.probe_shards(query, cells);
  const double qnorm = nn::squared_norm(query.data(), query.size());
  std::vector<Hit> hits;
  for (const std::size_t s : cells) {
    const core::ShardView view = store.shard_view(s);
    std::vector<float> dots(view.rows);
    nn::gemm_nt_serial(query.data(), 1, view.data, view.rows, store.dim(), dots.data());
    for (std::size_t j = 0; j < view.rows; ++j) {
      const double dist = qnorm + view.sq_norms[j] - 2.0 * static_cast<double>(dots[j]);
      hits.push_back({std::max(dist, 0.0), view.row_ids != nullptr ? view.row_ids[j] : j,
                      view.class_ids[j]});
    }
  }
  std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
    return a.dist != b.dist ? a.dist < b.dist : a.row_id < b.row_id;
  });
  const std::size_t n_ids = store.n_class_ids();
  std::vector<int> votes(n_ids, 0);
  std::vector<double> best(n_ids, 1e300);
  const std::size_t k = std::min<std::size_t>(static_cast<std::size_t>(k_cfg), store.size());
  for (std::size_t i = 0; i < hits.size(); ++i) {
    const auto id = static_cast<std::size_t>(hits[i].class_id);
    if (i < k) ++votes[id];
    best[id] = std::min(best[id], hits[i].dist);
  }
  ProbedOracle out;
  for (std::size_t id = 0; id < n_ids; ++id) {
    out.ranking.push_back({store.label_of_id(id), votes[id], best[id]});
    if (best[id] == 1e300) out.untouched.push_back(store.label_of_id(id));
  }
  std::sort(out.ranking.begin(), out.ranking.end(),
            [](const core::RankedLabel& a, const core::RankedLabel& b) {
              if (a.votes != b.votes) return a.votes > b.votes;
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.label < b.label;
            });
  std::sort(out.untouched.begin(), out.untouched.end());
  const std::size_t kth =
      std::min<std::size_t>(static_cast<std::size_t>(neighbour), store.size()) - 1;
  out.kth = hits.empty() ? std::sqrt(1e300) : std::sqrt(hits[std::min(kth, hits.size() - 1)].dist);
  return out;
}

// Every row's class id maps to its label, and the id space is dense: each
// id has at least one row and names a distinct label.
template <typename Tables>
void check_dense_ids(const std::vector<int>& id_to_label, const std::vector<Tables>& tables) {
  std::vector<std::size_t> rows_of(id_to_label.size(), 0);
  for (const Tables& t : tables)
    for (std::size_t i = 0; i < t.class_ids.size(); ++i) {
      const int id = t.class_ids[i];
      CHECK(id >= 0 && static_cast<std::size_t>(id) < id_to_label.size());
      if (id < 0 || static_cast<std::size_t>(id) >= id_to_label.size()) continue;
      CHECK(id_to_label[static_cast<std::size_t>(id)] == t.labels[i]);
      ++rows_of[static_cast<std::size_t>(id)];
    }
  for (const std::size_t rows : rows_of) CHECK(rows > 0);
  CHECK(std::set<int>(id_to_label.begin(), id_to_label.end()).size() == id_to_label.size());
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Each query's 10 nearest row ids, via a single-slice scan (every shard's
// k-best candidates, globally sorted).
std::vector<std::vector<std::uint64_t>> top10_rows(const core::KnnClassifier& knn,
                                                   const core::ReferenceStore& store,
                                                   const nn::Matrix& queries) {
  const core::SliceScan scan = knn.scan_slice(store, queries, 0, 1);
  std::vector<std::vector<std::uint64_t>> top(scan.candidates.size());
  for (std::size_t q = 0; q < scan.candidates.size(); ++q) {
    std::vector<core::Candidate> candidates = scan.candidates[q];
    std::sort(candidates.begin(), candidates.end());
    const std::size_t n = std::min<std::size_t>(10, candidates.size());
    for (std::size_t i = 0; i < n; ++i)
      top[q].push_back(candidates[i].second >> core::kCandidateClassBits);
  }
  return top;
}

bool is_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % util::kSimdAlignment == 0;
}

}  // namespace

int main() {
  // The pruned schedule splits cells and queries over the pool; unless the
  // environment pins a size (ctest's serial run sets WF_THREADS=1), use 4.
  if (std::getenv("WF_THREADS") == nullptr) util::Env::override_threads(4);
  util::Rng rng(515);
  const std::size_t dim = 16;
  const std::vector<Row> rows = make_rows(rng, dim, 12, 12);

  core::ShardedReferenceSet flat(dim, 3);
  for (const Row& row : rows) flat.add(row.embedding, row.label);

  nn::Matrix queries(24, dim);
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    std::vector<float> point = rows[(q * 7) % rows.size()].embedding;
    for (float& x : point) x += static_cast<float>(rng.normal(0.0, 0.2));
    queries.set_row(q, point);
  }

  const core::KnnClassifier knn(15);
  const core::OpenWorldDetector detector{core::OpenWorldConfig{}};
  const auto exact_rankings = knn.rank_batch(flat, queries);
  const std::vector<double> exact_kth = detector.kth_distances(flat, queries);

  // --- 64-byte alignment of the tiles every SIMD kernel loads ---------------
  {
    util::AlignedVector<float> v(193);
    CHECK(is_aligned(v.data()));
    const nn::Matrix m(5, 37);
    CHECK(is_aligned(m.data()));
    for (std::size_t c = 0; c < flat.shard_count(); ++c)
      CHECK(is_aligned(flat.shard_view(c).data));
  }

  // --- P = C reproduces the exact scan bit for bit, at several C ------------
  for (const std::size_t clusters : {std::size_t{1}, std::size_t{4}, std::size_t{9}}) {
    index::IvfConfig config;
    config.clusters = clusters;
    config.probes = 0;  // all clusters
    const index::IvfReferenceStore ivf(flat, config);
    CHECK(ivf.clusters() == clusters);
    CHECK(ivf.size() == flat.size());
    CHECK(ivf.pruned());
    CHECK(ivf.classes() == flat.classes());
    for (std::size_t c = 0; c < ivf.clusters(); ++c)
      CHECK(is_aligned(ivf.cell(c).data.data()));
    check_rankings_identical(exact_rankings, knn.rank_batch(ivf, queries));
    const std::vector<double> ivf_kth = detector.kth_distances(ivf, queries);
    CHECK(ivf_kth.size() == exact_kth.size());
    for (std::size_t q = 0; q < exact_kth.size(); ++q) CHECK(ivf_kth[q] == exact_kth[q]);
    // The scalar path goes through the same probe plan.
    const auto scalar = knn.rank(ivf, queries.row_span(0));
    CHECK(!scalar.empty() && scalar.front().label == exact_rankings[0].front().label);
    CHECK(scalar.front().distance == exact_rankings[0].front().distance);
  }

  // --- cell-major pruned schedule == brute force over the probed cells -----
  {
    // Classes added in descending label order, so ids (first appearance)
    // run against label order; then a class removed and re-added, which
    // moves its id to the end of the id space.
    util::Rng corpus_rng(2024);
    std::vector<Row> corpus = make_rows(corpus_rng, dim, 30, 10);
    std::reverse(corpus.begin(), corpus.end());
    core::ShardedReferenceSet base(dim, 2);
    for (const Row& row : corpus) base.add(row.embedding, row.label);
    index::IvfConfig config;
    config.clusters = 9;
    index::IvfReferenceStore store(base, config);
    CHECK(store.label_of_id(0) == 729);
    store.remove_class(712);
    for (const Row& row : corpus)
      if (row.label == 712) store.add(row.embedding, row.label);
    CHECK(store.label_of_id(store.n_class_ids() - 1) == 712);

    // Queries near the rows, and every seventh far from all of them.
    nn::Matrix batch(512, dim);
    for (std::size_t q = 0; q < batch.rows(); ++q) {
      std::vector<float> point = corpus[(q * 13) % corpus.size()].embedding;
      for (float& x : point) x += static_cast<float>(corpus_rng.normal(0.0, 0.3));
      if (q % 7 == 0) point = random_point(corpus_rng, dim, 3.0);
      batch.set_row(q, point);
    }
    const core::OpenWorldDetector ow{core::OpenWorldConfig{}};
    for (const std::size_t probes : {std::size_t{1}, std::size_t{4}, config.clusters}) {
      store.set_probes(probes);
      for (const std::size_t m : {std::size_t{1}, std::size_t{33}, std::size_t{512}}) {
        nn::Matrix queries(m, dim);
        for (std::size_t q = 0; q < m; ++q) queries.set_row(q, batch.row_span(q));
        const auto ranked = knn.rank_batch(store, queries);
        const std::vector<double> kth = ow.kth_distances(store, queries);
        CHECK(ranked.size() == m);
        CHECK(kth.size() == m);
        for (const std::size_t n_slices : {std::size_t{1}, std::size_t{3}}) {
          std::vector<core::SliceScan> slices;
          slices.reserve(n_slices);
          for (std::size_t s = 0; s < n_slices; ++s)
            slices.push_back(knn.scan_slice(store, queries, s, n_slices));
          check_rankings_identical(
              ranked, core::merge_slice_scans(store.id_to_label(), knn.k(), store.size(), slices));
        }
        for (std::size_t q = 0; q < m && q < ranked.size() && q < kth.size(); ++q) {
          const ProbedOracle want = probed_oracle(store, queries.row_span(q), knn.k(), 3);
          check_ranking_identical(ranked[q], want.ranking);
          check_ranking_identical(ranked[q], knn.rank(store, queries.row_span(q)));
          // The tail is exactly the untouched classes, ascending by label.
          const std::vector<core::RankedLabel>& r = ranked[q];
          const std::size_t head = r.size() - std::min(r.size(), want.untouched.size());
          for (std::size_t i = 0; i < r.size(); ++i) {
            const bool touched = r[i].distance < 1e300 || r[i].votes > 0;
            CHECK(touched == (i < head));
            if (i < head) continue;
            CHECK(r[i].label == want.untouched[i - head]);
            CHECK(r[i].votes == 0 && r[i].distance == 1e300);
          }
          CHECK(kth[q] == want.kth);
          CHECK(ow.kth_distance(store, queries.row_span(q)) == kth[q]);
        }
      }
    }
  }

  // --- class swaps: dense ids, fresh-store answers, byte-stable files -------
  {
    index::IvfConfig config;
    config.clusters = 6;
    config.probes = 2;
    config.rebuild_churn = 0.0;  // keep the cells: swaps only
    index::IvfReferenceStore ivf(flat, config);
    core::ShardedReferenceSet sharded = flat;
    util::Rng fresh(88);
    for (int swap = 0; swap < 8; ++swap) {
      const int label = 700 + (swap * 5) % 12;
      ivf.remove_class(label);
      sharded.remove_class(label);
      for (int r = 0; r < 6; ++r) {
        std::vector<float> e = rows[static_cast<std::size_t>(swap * 11 + r) % rows.size()].embedding;
        for (float& x : e) x += static_cast<float>(fresh.normal(0.0, 0.2));
        ivf.add(e, label);
        sharded.add(e, label);
      }
    }
    ivf.remove_class(711);  // and one class gone for good
    sharded.remove_class(711);
    ivf.remove_class(4242);  // absent: a no-op
    CHECK(ivf.size() == sharded.size());
    CHECK(ivf.classes() == sharded.classes());

    std::vector<index::IvfReferenceStore::Cell> cells;
    cells.reserve(ivf.clusters());
    for (std::size_t c = 0; c < ivf.clusters(); ++c) cells.push_back(ivf.cell(c));
    check_dense_ids(ivf.id_to_label(), cells);
    std::vector<core::ShardedReferenceSet::ShardTables> shards;
    shards.reserve(sharded.shard_count());
    for (std::size_t s = 0; s < sharded.shard_count(); ++s)
      shards.push_back(sharded.shard_tables(s));
    check_dense_ids(sharded.id_to_label(), shards);

    // Sharded: re-add the surviving rows in insertion order to a new store.
    std::map<std::uint64_t, std::pair<std::vector<float>, int>> by_row_id;
    for (const auto& t : shards)
      for (std::size_t i = 0; i < t.labels.size(); ++i)
        by_row_id[t.row_ids[i]] = {std::vector<float>(t.data.begin() + static_cast<std::ptrdiff_t>(i * dim),
                                                      t.data.begin() + static_cast<std::ptrdiff_t>((i + 1) * dim)),
                                   t.labels[i]};
    core::ShardedReferenceSet rebuilt(dim, sharded.shard_count());
    for (const auto& [row_id, row] : by_row_id) rebuilt.add(row.first, row.second);
    check_rankings_identical(knn.rank_batch(sharded, queries), knn.rank_batch(rebuilt, queries));

    // IVF: the same cells with the id space derived afresh (first
    // appearance in cell order), through the restore path.
    std::vector<int> fresh_labels;
    std::map<int, int> fresh_id;
    for (index::IvfReferenceStore::Cell& cell : cells)
      for (std::size_t i = 0; i < cell.rows(); ++i) {
        const auto [it, inserted] =
            fresh_id.try_emplace(cell.labels[i], static_cast<int>(fresh_labels.size()));
        if (inserted) fresh_labels.push_back(cell.labels[i]);
        cell.class_ids[i] = it->second;
      }
    CHECK(fresh_labels != ivf.id_to_label());  // the swaps did reorder the ids
    const index::IvfReferenceStore restored = index::IvfReferenceStore::restore(
        dim, ivf.next_row_id(), ivf.config(),
        util::AlignedVector<float>(ivf.centroids().begin(), ivf.centroids().end()), fresh_labels,
        cells);
    check_rankings_identical(knn.rank_batch(ivf, queries), knn.rank_batch(restored, queries));
    // Probing every cell, the swapped index answers like the swapped exact store.
    ivf.set_probes(0);
    check_rankings_identical(knn.rank_batch(ivf, queries), knn.rank_batch(sharded, queries));

    const std::string first = temp_path("wf_test_index_swap_a.wfx");
    const std::string second = temp_path("wf_test_index_swap_b.wfx");
    index::write_index_file(first, ivf);
    index::write_index_file(second, index::load_index(first));
    CHECK(!file_bytes(first).empty());
    CHECK(file_bytes(first) == file_bytes(second));
    std::filesystem::remove(first);
    std::filesystem::remove(second);
  }

  // --- seeded k-means: deterministic, and a function of content only -------
  {
    index::IvfConfig config;
    config.clusters = 5;
    const index::IvfReferenceStore a(flat, config);
    const index::IvfReferenceStore b(flat, config);
    CHECK(a.centroids().size() == b.centroids().size());
    for (std::size_t i = 0; i < a.centroids().size(); ++i)
      CHECK(a.centroids()[i] == b.centroids()[i]);

    // Same rows in the same insertion order, different base sharding: the
    // build gathers by global row id, so the result is identical.
    core::ShardedReferenceSet reshard(dim, 7);
    for (const Row& row : rows) reshard.add(row.embedding, row.label);
    const index::IvfReferenceStore c(reshard, config);
    for (std::size_t i = 0; i < a.centroids().size(); ++i)
      CHECK(a.centroids()[i] == c.centroids()[i]);
    for (std::size_t cell = 0; cell < a.clusters(); ++cell)
      CHECK(a.cell(cell).row_ids == c.cell(cell).row_ids);
    config.probes = 2;
    index::IvfReferenceStore pruned_a(flat, config);
    index::IvfReferenceStore pruned_c(reshard, config);
    check_rankings_identical(knn.rank_batch(pruned_a, queries),
                             knn.rank_batch(pruned_c, queries));
  }

  // --- recall@10 at a pinned (C, P) -----------------------------------------
  {
    util::Rng corpus_rng(9102);
    const std::vector<Row> big = make_rows(corpus_rng, dim, 40, 50);  // 2000 rows
    core::ShardedReferenceSet base(dim, 2);
    for (const Row& row : big) base.add(row.embedding, row.label);
    nn::Matrix probes(50, dim);
    for (std::size_t q = 0; q < probes.rows(); ++q) {
      std::vector<float> point = big[(q * 37) % big.size()].embedding;
      for (float& x : point) x += static_cast<float>(corpus_rng.normal(0.0, 0.2));
      probes.set_row(q, point);
    }
    index::IvfConfig config;
    config.clusters = 32;
    config.probes = 8;
    const index::IvfReferenceStore ivf(base, config);
    CHECK(ivf.effective_probes() == 8);
    const auto want = top10_rows(knn, base, probes);
    const auto got = top10_rows(knn, ivf, probes);
    double sum = 0.0;
    for (std::size_t q = 0; q < want.size(); ++q) {
      std::vector<std::uint64_t> w = want[q], g = got[q];
      std::sort(w.begin(), w.end());
      std::sort(g.begin(), g.end());
      std::vector<std::uint64_t> common;
      std::set_intersection(w.begin(), w.end(), g.begin(), g.end(),
                            std::back_inserter(common));
      sum += static_cast<double>(common.size()) / static_cast<double>(w.size());
    }
    const double recall = sum / static_cast<double>(want.size());
    CHECK(recall >= 0.95);
  }

  // --- on-disk round trip: mmap open answers bit-identically ----------------
  const std::string path = temp_path("wf_test_index.wfx");
  index::IvfConfig disk_config;
  disk_config.clusters = 6;
  index::IvfReferenceStore mem(flat, disk_config);
  {
    index::write_index_file(path, mem);
    const std::unique_ptr<core::ReferenceStore> mapped = index::open_index(path);
    CHECK(mapped->size() == mem.size());
    CHECK(mapped->dim() == mem.dim());
    CHECK(mapped->pruned());
    check_rankings_identical(knn.rank_batch(mem, queries), knn.rank_batch(*mapped, queries));
    check_rankings_identical(exact_rankings, knn.rank_batch(*mapped, queries));

    // Pruned probes match the in-memory pruned scan, query by query.
    const std::unique_ptr<core::ReferenceStore> mapped2 = index::open_index(path, 2);
    index::IvfReferenceStore mem2 = mem;
    mem2.set_probes(2);
    check_rankings_identical(knn.rank_batch(mem2, queries), knn.rank_batch(*mapped2, queries));

    // The info reader sees the same shape without touching the data.
    const index::IndexInfo info = index::read_index_info(path);
    CHECK(info.dim == dim);
    CHECK(info.clusters == 6);
    CHECK(info.rows == mem.size());
    CHECK(info.journal_bytes == 0);
  }

  // --- journal appends: mapped tails == in-memory adds ----------------------
  {
    index::IvfReferenceStore churned = mem;
    index::IndexJournalWriter journal(path);
    util::Rng fresh(77);
    for (int i = 0; i < 9; ++i) {
      const std::vector<float> e = random_point(fresh, dim);
      const int label = (i < 3) ? 990 : rows[static_cast<std::size_t>(i)].label;
      churned.add(e, label);
      journal.add(e, label);
    }
    CHECK(std::filesystem::exists(journal.journal_path()));
    const std::unique_ptr<core::ReferenceStore> mapped = index::open_index(path);
    CHECK(mapped->size() == churned.size());
    check_rankings_identical(knn.rank_batch(churned, queries), knn.rank_batch(*mapped, queries));
    const index::IndexInfo info = index::read_index_info(path);
    CHECK(info.journal_adds == 9);
    CHECK(info.journal_bytes > 0);

    // A removal cannot be masked onto the mapping: open falls back to a full
    // load and still answers exactly like the in-memory store.
    journal.remove_class(700);
    churned.remove_class(700);
    const std::unique_ptr<core::ReferenceStore> reloaded = index::open_index(path);
    CHECK(reloaded->size() == churned.size());
    check_rankings_identical(knn.rank_batch(churned, queries),
                             knn.rank_batch(*reloaded, queries));

    // Compaction: rebuild the file, journal gone, answers == in-memory
    // rebuild of the identically-churned store.
    const std::size_t compacted = index::rebuild_index_file(path);
    CHECK(compacted == churned.size());
    CHECK(!std::filesystem::exists(journal.journal_path()));
    churned.rebuild();
    const std::unique_ptr<core::ReferenceStore> rebuilt = index::open_index(path);
    check_rankings_identical(knn.rank_batch(churned, queries),
                             knn.rank_batch(*rebuilt, queries));
  }

  // --- churn accounting drives maybe_rebuild --------------------------------
  {
    index::IvfConfig config;
    config.clusters = 4;
    config.rebuild_churn = 0.25;
    index::IvfReferenceStore store(flat, config);
    CHECK(store.churn() == 0);
    CHECK(!store.maybe_rebuild());
    util::Rng fresh(31);
    const std::size_t threshold = flat.size() / 4;
    for (std::size_t i = 0; i <= threshold; ++i) store.add(random_point(fresh, dim), 701);
    CHECK(store.churn() > threshold);
    CHECK(store.maybe_rebuild());
    CHECK(store.churn() == 0);
    CHECK(!store.maybe_rebuild());
  }

  // --- every supported SIMD mode agrees with scalar -------------------------
  {
    const nn::SimdMode previous = nn::simd_mode();
    util::Rng vec_rng(41);
    const std::vector<float> a = random_point(vec_rng, 259);
    const std::vector<float> b = random_point(vec_rng, 259);
    const float scalar_dot = nn::detail::dot_kernel(nn::SimdMode::kScalar)(a.data(), b.data(),
                                                                           a.size());
    for (const nn::SimdMode mode : nn::supported_simd_modes()) {
      const float mode_dot = nn::detail::dot_kernel(mode)(a.data(), b.data(), a.size());
      CHECK_NEAR(mode_dot, scalar_dot, 1e-6);
      CHECK(mode_dot == scalar_dot);  // same operation order: bit-identical
      CHECK(nn::set_simd_mode(mode));
      check_rankings_identical(exact_rankings, knn.rank_batch(flat, queries));
      check_rankings_identical(exact_rankings, knn.rank_batch(mem, queries));
    }
    nn::set_simd_mode(previous);
  }

  std::filesystem::remove(path);
  return TEST_MAIN_RESULT();
}
