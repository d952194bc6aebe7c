#include "index/ivf.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "io/binary.hpp"
#include "nn/matrix.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace wf::index {

namespace detail {

const IndexMetrics& index_metrics() {
  static const IndexMetrics metrics = {
      &obs::Registry::global().counter("index.probes_total"),
      &obs::Registry::global().counter("index.clusters_scanned"),
      &obs::Registry::global().counter("index.rows_scanned"),
      &obs::Registry::global().counter("index.rebuilds_total"),
      &obs::Registry::global().gauge("index.journal_bytes"),
  };
  return metrics;
}

}  // namespace detail

namespace {

constexpr std::size_t kAssignTile = 256;  // rows per centroid-assignment GEMM

// argmin over clusters of ‖row − c‖², dropping the constant ‖row‖² term:
// margin(c) = ‖c‖² − 2·<row, c>. Strict less keeps the lowest cluster index
// on ties — every assignment in this file (bulk, add(), k-means) goes
// through the same margin + tie-break so they can never disagree.
std::size_t argmin_margin(const double* norms, const float* dots, std::size_t n) {
  std::size_t best = 0;
  double best_margin = norms[0] - 2.0 * static_cast<double>(dots[0]);
  for (std::size_t c = 1; c < n; ++c) {
    const double margin = norms[c] - 2.0 * static_cast<double>(dots[c]);
    if (margin < best_margin) {
      best_margin = margin;
      best = c;
    }
  }
  return best;
}

// Nearest-centroid assignment of `n` contiguous rows, GEMM-tiled and
// parallel over the pool; each row's answer is schedule-independent.
void assign_rows(const float* rows, std::size_t n, std::size_t dim, const float* centroids,
                 const double* centroid_norms, std::size_t n_centroids,
                 std::vector<std::size_t>& out) {
  out.resize(n);
  util::global_pool().parallel_blocks(0, n, kAssignTile, [&](std::size_t lo, std::size_t hi) {
    thread_local std::vector<float> dots;
    for (std::size_t t0 = lo; t0 < hi; t0 += kAssignTile) {
      const std::size_t t1 = std::min(hi, t0 + kAssignTile);
      dots.resize((t1 - t0) * n_centroids);
      nn::gemm_nt_serial(rows + t0 * dim, t1 - t0, centroids, n_centroids, dim, dots.data());
      for (std::size_t i = t0; i < t1; ++i)
        out[i] = argmin_margin(centroid_norms, dots.data() + (i - t0) * n_centroids,
                               n_centroids);
    }
  });
}

}  // namespace

IvfReferenceStore::IvfReferenceStore(const core::ReferenceStore& base, const IvfConfig& config)
    : config_(config), dim_(base.dim()), next_row_id_(0) {
  const auto& metrics = detail::index_metrics();
  probes_total_ = metrics.probes_total;
  clusters_scanned_ = metrics.clusters_scanned;
  rows_scanned_ = metrics.rows_scanned;
  rebuilds_total_ = metrics.rebuilds_total;

  // Gather the base rows in global insertion-id order: the clustering (and
  // therefore the file layout) is a function of the content, not of how
  // the base store happened to be sharded.
  struct Ref {
    std::uint64_t row_id;
    std::size_t shard;
    std::size_t row;
  };
  std::vector<Ref> refs;
  refs.reserve(base.size());
  for (std::size_t s = 0; s < base.shard_count(); ++s) {
    const core::ShardView shard = base.shard_view(s);
    for (std::size_t j = 0; j < shard.rows; ++j)
      refs.push_back({shard.row_ids != nullptr ? shard.row_ids[j] : j, s, j});
  }
  std::sort(refs.begin(), refs.end(),
            [](const Ref& a, const Ref& b) { return a.row_id < b.row_id; });

  const std::size_t n = refs.size();
  util::AlignedVector<float> data(n * dim_);
  std::vector<int> labels(n);
  std::vector<std::uint64_t> row_ids(n);
  for (std::size_t i = 0; i < n; ++i) {
    const core::ShardView shard = base.shard_view(refs[i].shard);
    std::copy_n(shard.data + refs[i].row * dim_, dim_, data.data() + i * dim_);
    labels[i] = base.label_of_id(static_cast<std::size_t>(shard.class_ids[refs[i].row]));
    row_ids[i] = refs[i].row_id;
    next_row_id_ = std::max(next_row_id_, refs[i].row_id + 1);
  }
  build_from_rows(data.data(), labels.data(), row_ids.data(), n);
}

void IvfReferenceStore::build_from_rows(const float* data, const int* labels,
                                        const std::uint64_t* row_ids, std::size_t n) {
  std::size_t n_clusters;
  if (config_.clusters > 0)
    n_clusters = std::min(config_.clusters, std::max<std::size_t>(n, 1));
  else
    n_clusters = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::lround(std::sqrt(static_cast<double>(n)))), 1,
        std::max<std::size_t>(n, 1));

  centroids_.assign(n_clusters * dim_, 0.0f);
  centroid_norms_.assign(n_clusters, 0.0);
  cells_.assign(n_clusters, {});
  id_to_label_.clear();
  label_to_id_.clear();
  size_ = n;
  built_rows_ = n;
  churn_ = 0;
  if (n == 0) return;

  util::Rng rng(config_.seed);

  // Training sample: a seeded partial shuffle of the row indices. The
  // centroids are trained on at most sample_per_cluster rows per cluster;
  // assignment below always covers every row.
  const std::size_t sample =
      std::min(n, std::max(n_clusters, n_clusters * config_.sample_per_cluster));
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = 0; i < sample; ++i)
    std::swap(order[i], order[i + rng.index(n - i)]);
  util::AlignedVector<float> train(sample * dim_);
  for (std::size_t s = 0; s < sample; ++s)
    std::copy_n(data + order[s] * dim_, dim_, train.data() + s * dim_);

  // k-means++ init over the sample: each next centroid is drawn with
  // probability proportional to its squared distance from the chosen set.
  std::vector<double> d2(sample, 1e300);
  const std::size_t first = rng.index(sample);
  std::copy_n(train.data() + first * dim_, dim_, centroids_.data());
  for (std::size_t c = 1; c < n_clusters; ++c) {
    const float* last = centroids_.data() + (c - 1) * dim_;
    double total = 0.0;
    for (std::size_t s = 0; s < sample; ++s) {
      const double d = nn::squared_distance({train.data() + s * dim_, dim_}, {last, dim_});
      if (d < d2[s]) d2[s] = d;
      total += d2[s];
    }
    std::size_t pick = 0;
    if (total > 0.0) {
      const double r = rng.uniform() * total;
      double cum = 0.0;
      for (std::size_t s = 0; s < sample; ++s) {
        cum += d2[s];
        if (cum >= r) {
          pick = s;
          break;
        }
      }
    } else {
      pick = rng.index(sample);  // all-duplicate corner: any row works
    }
    std::copy_n(train.data() + pick * dim_, dim_, centroids_.data() + c * dim_);
  }
  for (std::size_t c = 0; c < n_clusters; ++c)
    centroid_norms_[c] = nn::squared_norm(centroids_.data() + c * dim_, dim_);

  // Lloyd iterations on the sample: GEMM-tiled assignment, then serial
  // mean update in sample order (double accumulation) — deterministic at
  // any thread count. An emptied cluster keeps its previous centroid.
  std::vector<std::size_t> assign;
  std::vector<double> sums(n_clusters * dim_);
  std::vector<std::size_t> counts(n_clusters);
  for (std::size_t iter = 0; iter < config_.kmeans_iters; ++iter) {
    assign_rows(train.data(), sample, dim_, centroids_.data(), centroid_norms_.data(),
                n_clusters, assign);
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), std::size_t{0});
    for (std::size_t s = 0; s < sample; ++s) {
      double* sum = sums.data() + assign[s] * dim_;
      const float* row = train.data() + s * dim_;
      for (std::size_t d = 0; d < dim_; ++d) sum[d] += static_cast<double>(row[d]);
      ++counts[assign[s]];
    }
    for (std::size_t c = 0; c < n_clusters; ++c) {
      if (counts[c] == 0) continue;
      float* centroid = centroids_.data() + c * dim_;
      const double inv = 1.0 / static_cast<double>(counts[c]);
      for (std::size_t d = 0; d < dim_; ++d)
        centroid[d] = static_cast<float>(sums[c * dim_ + d] * inv);
      centroid_norms_[c] = nn::squared_norm(centroid, dim_);
    }
  }

  // Final pass: assign every row and fill the cells in insertion order, so
  // within a cell rows keep their global (dist, insertion-id) tie-break
  // order and class ids are dense in first-appearance order.
  assign_rows(data, n, dim_, centroids_.data(), centroid_norms_.data(), n_clusters, assign);
  for (std::size_t i = 0; i < n; ++i) {
    const auto [it, inserted] =
        label_to_id_.try_emplace(labels[i], static_cast<int>(id_to_label_.size()));
    if (inserted) id_to_label_.push_back(labels[i]);
    Cell& cell = cells_[assign[i]];
    const float* row = data + i * dim_;
    cell.data.insert(cell.data.end(), row, row + dim_);
    cell.sq_norms.push_back(nn::squared_norm(row, dim_));
    cell.class_ids.push_back(it->second);
    cell.row_ids.push_back(row_ids[i]);
    cell.labels.push_back(labels[i]);
  }
}

core::ShardView IvfReferenceStore::shard_view(std::size_t shard) const {
  WF_CHECK(shard < cells_.size(), "IvfReferenceStore::shard_view: cluster out of range");
  const Cell& cell = cells_[shard];
  return {cell.data.data(), cell.sq_norms.data(), cell.class_ids.data(), cell.row_ids.data(),
          cell.rows()};
}

std::size_t IvfReferenceStore::effective_probes() const {
  const std::size_t n_clusters = cells_.size();
  if (config_.probes == 0) return n_clusters;
  return std::min(config_.probes, n_clusters);
}

void IvfReferenceStore::probe_shards(std::span<const float> query,
                                     std::vector<std::size_t>& out) const {
  out.clear();
  const std::size_t n_clusters = cells_.size();
  if (n_clusters == 0) return;
  WF_CHECK(query.size() == dim_, "IvfReferenceStore::probe_shards: query width mismatch");
  const std::size_t n_probes = effective_probes();
  if (n_probes >= n_clusters) {
    for (std::size_t c = 0; c < n_clusters; ++c) out.push_back(c);
  } else {
    thread_local std::vector<float> dots;
    thread_local std::vector<std::pair<double, std::size_t>> ranked;
    dots.resize(n_clusters);
    nn::gemm_nt_serial(query.data(), 1, centroids_.data(), n_clusters, dim_, dots.data());
    ranked.resize(n_clusters);
    for (std::size_t c = 0; c < n_clusters; ++c)
      ranked[c] = {centroid_norms_[c] - 2.0 * static_cast<double>(dots[c]), c};
    // pair's lexicographic < breaks margin ties toward the lower cluster.
    std::partial_sort(ranked.begin(), ranked.begin() + static_cast<std::ptrdiff_t>(n_probes),
                      ranked.end());
    for (std::size_t p = 0; p < n_probes; ++p) out.push_back(ranked[p].second);
  }
  count_probe(out);
}

void IvfReferenceStore::count_probe(const std::vector<std::size_t>& out) const {
  if (probes_total_ == nullptr) return;
  probes_total_->inc();
  clusters_scanned_->inc(out.size());
  std::uint64_t rows = 0;
  for (const std::size_t c : out) rows += cells_[c].rows();
  rows_scanned_->inc(rows);
}

std::span<const float> IvfReferenceStore::centroid(std::size_t c) const {
  WF_CHECK(c < cells_.size(), "IvfReferenceStore::centroid: cluster out of range");
  return {centroids_.data() + c * dim_, dim_};
}

std::vector<int> IvfReferenceStore::classes() const {
  std::vector<int> labels = id_to_label_;
  std::sort(labels.begin(), labels.end());
  return labels;
}

void IvfReferenceStore::add(std::span<const float> embedding, int label) {
  WF_CHECK(!cells_.empty(), "IvfReferenceStore::add: store has no clusters");
  add_pinned(nearest_centroid(embedding.data()), label, next_row_id_, embedding);
}

void IvfReferenceStore::add_pinned(std::size_t cluster, int label, std::uint64_t row_id,
                                   std::span<const float> embedding) {
  WF_CHECK(embedding.size() == dim_, "IvfReferenceStore::add: width mismatch");
  WF_CHECK(cluster < cells_.size(), "IvfReferenceStore::add: cluster out of range");
  const auto [it, inserted] =
      label_to_id_.try_emplace(label, static_cast<int>(id_to_label_.size()));
  if (inserted) id_to_label_.push_back(label);
  Cell& cell = cells_[cluster];
  cell.data.insert(cell.data.end(), embedding.begin(), embedding.end());
  cell.sq_norms.push_back(nn::squared_norm(embedding.data(), dim_));
  cell.class_ids.push_back(it->second);
  cell.row_ids.push_back(row_id);
  cell.labels.push_back(label);
  next_row_id_ = std::max(next_row_id_, row_id + 1);
  ++size_;
  ++churn_;
}

std::size_t IvfReferenceStore::nearest_centroid(const float* row) const {
  thread_local std::vector<float> dots;
  dots.resize(cells_.size());
  nn::gemm_nt_serial(row, 1, centroids_.data(), cells_.size(), dim_, dots.data());
  return argmin_margin(centroid_norms_.data(), dots.data(), cells_.size());
}

void IvfReferenceStore::remove_class(int label) {
  const auto found = label_to_id_.find(label);
  if (found == label_to_id_.end()) return;
  const int gone = found->second;
  std::size_t removed = 0;
  for (Cell& cell : cells_) removed += core::detail::drop_class_rows(cell, dim_, gone);
  core::detail::drop_class_id(id_to_label_, label_to_id_, gone);
  size_ -= removed;
  churn_ += removed;
}

void IvfReferenceStore::rebuild() {
  // Gather the current rows back into insertion-id order and re-run the
  // seeded k-means: the result depends only on the surviving content, not
  // on the add/remove history that produced it.
  struct Ref {
    std::uint64_t row_id;
    std::size_t cell;
    std::size_t row;
  };
  std::vector<Ref> refs;
  refs.reserve(size_);
  for (std::size_t c = 0; c < cells_.size(); ++c)
    for (std::size_t i = 0; i < cells_[c].rows(); ++i) refs.push_back({cells_[c].row_ids[i], c, i});
  std::sort(refs.begin(), refs.end(),
            [](const Ref& a, const Ref& b) { return a.row_id < b.row_id; });

  const std::size_t n = refs.size();
  util::AlignedVector<float> data(n * dim_);
  std::vector<int> labels(n);
  std::vector<std::uint64_t> row_ids(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Cell& cell = cells_[refs[i].cell];
    std::copy_n(cell.data.data() + refs[i].row * dim_, dim_, data.data() + i * dim_);
    labels[i] = cell.labels[refs[i].row];
    row_ids[i] = refs[i].row_id;
  }
  build_from_rows(data.data(), labels.data(), row_ids.data(), n);
  if (rebuilds_total_ != nullptr) rebuilds_total_->inc();
}

bool IvfReferenceStore::maybe_rebuild() {
  if (config_.rebuild_churn <= 0.0) return false;
  const double threshold =
      config_.rebuild_churn * static_cast<double>(std::max<std::size_t>(built_rows_, 1));
  if (static_cast<double>(churn_) <= threshold) return false;
  rebuild();
  return true;
}

IvfReferenceStore IvfReferenceStore::restore(std::size_t dim, std::uint64_t next_row_id,
                                             const IvfConfig& config,
                                             util::AlignedVector<float> centroids,
                                             std::vector<int> id_to_label,
                                             std::vector<Cell> cells) {
  IvfReferenceStore store;
  store.config_ = config;
  store.dim_ = dim;
  store.next_row_id_ = next_row_id;
  const auto& metrics = detail::index_metrics();
  store.probes_total_ = metrics.probes_total;
  store.clusters_scanned_ = metrics.clusters_scanned;
  store.rows_scanned_ = metrics.rows_scanned;
  store.rebuilds_total_ = metrics.rebuilds_total;

  if (dim == 0 || cells.empty() || centroids.size() != cells.size() * dim)
    throw io::IoError("index tables inconsistent: centroid shape");
  const int n_ids = static_cast<int>(id_to_label.size());
  std::size_t rows = 0;
  for (const Cell& cell : cells) {
    if (cell.data.size() != cell.rows() * dim || cell.class_ids.size() != cell.rows() ||
        cell.row_ids.size() != cell.rows() || cell.labels.size() != cell.rows())
      throw io::IoError("index tables inconsistent: cell shape");
    for (std::size_t i = 0; i < cell.rows(); ++i) {
      const int id = cell.class_ids[i];
      if (id < 0 || id >= n_ids)
        throw io::IoError("index tables inconsistent: class id out of range");
      if (id_to_label[static_cast<std::size_t>(id)] != cell.labels[i])
        throw io::IoError("index tables inconsistent: label/id mismatch");
      if (cell.row_ids[i] >= next_row_id)
        throw io::IoError("index tables inconsistent: row id out of range");
    }
    rows += cell.rows();
  }
  store.centroids_ = std::move(centroids);
  store.centroid_norms_.resize(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c)
    store.centroid_norms_[c] = nn::squared_norm(store.centroids_.data() + c * dim, dim);
  store.cells_ = std::move(cells);
  store.id_to_label_ = std::move(id_to_label);
  for (std::size_t id = 0; id < store.id_to_label_.size(); ++id)
    store.label_to_id_.emplace(store.id_to_label_[id], static_cast<int>(id));
  store.size_ = rows;
  store.built_rows_ = rows;
  return store;
}

}  // namespace wf::index
