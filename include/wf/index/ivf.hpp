#pragma once

// wf::index — the million-reference regime. IvfReferenceStore partitions the
// reference embeddings into C clusters with a seeded k-means and answers
// queries by probing only the P nearest clusters (classic IVF). It plugs in
// behind core::ReferenceStore, so KnnClassifier / OpenWorldDetector /
// AdaptiveFingerprinter and the serve daemon pick it up through the
// interface: each cluster is one "shard", probe_shards() is the pruning
// hook, and because the candidate merge runs on unique (dist, insertion-id)
// keys, probing all C clusters (probes = 0) reproduces the exact scan's
// top-k bit for bit. Smaller P trades recall for speed — the exactness knob.
//
// adapt's swap-references churn is absorbed without re-clustering: add()
// appends to the nearest centroid's cell, remove_class() compacts cells in
// place, and once the accumulated churn passes a configurable fraction of
// the built size, maybe_rebuild() re-runs the k-means (the in-memory
// counterpart of the on-disk base store + journal + `wf index rebuild` flow
// in index/store.hpp).

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/reference_store.hpp"
#include "util/aligned.hpp"

namespace wf::obs {
class Counter;
class Gauge;
}  // namespace wf::obs

namespace wf::index {

struct IvfConfig {
  // Cluster count C; 0 = auto (≈ √n, clamped to [1, n]).
  std::size_t clusters = 0;
  // Clusters probed per query P; 0 = all of them (exact), otherwise
  // clamped to [1, C].
  std::size_t probes = 0;
  // Seeded k-means: Lloyd iteration count and the training-sample budget
  // (at most sample_per_cluster x C rows train the centroids; assignment
  // always covers every row).
  std::size_t kmeans_iters = 8;
  std::size_t sample_per_cluster = 32;
  std::uint64_t seed = 9041;
  // maybe_rebuild() re-clusters once (rows added + rows removed) since the
  // last build exceeds this fraction of the built size; 0 disables.
  double rebuild_churn = 0.5;
};

class IvfReferenceStore final : public core::ReferenceStore {
 public:
  // One cluster's dense side tables, laid out exactly like a store shard
  // (rows in insertion order; row_ids are the base store's global ids, so
  // rankings keep the exact scan's tie-break).
  struct Cell {
    util::AlignedVector<float> data;  // rows x dim
    std::vector<double> sq_norms;
    std::vector<int> class_ids;
    std::vector<std::uint64_t> row_ids;
    std::vector<int> labels;  // per row, survives class-id renumbering
    std::size_t rows() const { return sq_norms.size(); }
  };

  IvfReferenceStore() = default;
  // Seeded k-means over the rows of `base`. Rows are gathered in global
  // insertion-id order, so the clustering depends only on the content, not
  // on how `base` happened to be sharded.
  IvfReferenceStore(const core::ReferenceStore& base, const IvfConfig& config);

  // core::ReferenceStore
  std::size_t dim() const override { return dim_; }
  std::size_t size() const override { return size_; }
  std::size_t shard_count() const override { return cells_.size(); }
  core::ShardView shard_view(std::size_t shard) const override;
  std::size_t n_class_ids() const override { return id_to_label_.size(); }
  int label_of_id(std::size_t id) const override { return id_to_label_[id]; }
  bool pruned() const override { return true; }
  void probe_shards(std::span<const float> query,
                    std::vector<std::size_t>& out) const override;

  const IvfConfig& config() const { return config_; }
  std::size_t clusters() const { return cells_.size(); }
  // Runtime exactness knob (0 = all clusters); does not touch the layout.
  void set_probes(std::size_t probes) { config_.probes = probes; }
  std::size_t effective_probes() const;

  std::span<const float> centroid(std::size_t c) const;
  std::span<const float> centroids() const { return centroids_; }
  const Cell& cell(std::size_t c) const { return cells_[c]; }
  const std::vector<int>& id_to_label() const { return id_to_label_; }
  std::vector<int> classes() const;  // sorted labels
  std::uint64_t next_row_id() const { return next_row_id_; }

  // Churn path (adapt's swap-references): append to the nearest centroid's
  // cell / compact every cell. Neither moves existing rows or centroids.
  void add(std::span<const float> embedding, int label);
  // Journal replay (index/store.cpp): append to an explicit cluster with an
  // explicit global id — the values recorded when the row was journaled —
  // so a replayed store is identical to one mutated live.
  void add_pinned(std::size_t cluster, int label, std::uint64_t row_id,
                  std::span<const float> embedding);
  void remove_class(int label);
  // Rows added + removed since the last (re)build.
  std::size_t churn() const { return churn_; }
  // Re-runs the seeded k-means over the current rows (same config/seed:
  // the result is a function of the content, not of the churn history).
  void rebuild();
  // rebuild() iff churn() > rebuild_churn x built size. Returns true when
  // it rebuilt.
  bool maybe_rebuild();

  // Reassembles a store from its serialized tables (index/store.cpp load
  // path). Throws io::IoError when the tables are inconsistent.
  static IvfReferenceStore restore(std::size_t dim, std::uint64_t next_row_id,
                                   const IvfConfig& config,
                                   util::AlignedVector<float> centroids,
                                   std::vector<int> id_to_label, std::vector<Cell> cells);

 private:
  void build_from_rows(const float* data, const int* labels, const std::uint64_t* row_ids,
                       std::size_t n);
  std::size_t nearest_centroid(const float* row) const;
  void count_probe(const std::vector<std::size_t>& out) const;

  IvfConfig config_;
  std::size_t dim_ = 0;
  std::size_t size_ = 0;
  std::uint64_t next_row_id_ = 0;
  util::AlignedVector<float> centroids_;  // clusters x dim
  std::vector<double> centroid_norms_;    // cached ‖c‖² per centroid
  std::vector<Cell> cells_;
  std::vector<int> id_to_label_;
  std::unordered_map<int, int> label_to_id_;
  std::size_t built_rows_ = 0;
  std::size_t churn_ = 0;

  // wf::obs instruments, shared by every index store (see wf stats).
  obs::Counter* probes_total_ = nullptr;
  obs::Counter* clusters_scanned_ = nullptr;
  obs::Counter* rows_scanned_ = nullptr;
  obs::Counter* rebuilds_total_ = nullptr;
};

namespace detail {
// The shared obs instruments (index.probes_total, index.clusters_scanned,
// index.rows_scanned, index.rebuilds_total, index.journal_bytes), fetched
// once from the global registry.
struct IndexMetrics {
  obs::Counter* probes_total;
  obs::Counter* clusters_scanned;
  obs::Counter* rows_scanned;
  obs::Counter* rebuilds_total;
  obs::Gauge* journal_bytes;
};
const IndexMetrics& index_metrics();
}  // namespace detail

}  // namespace wf::index
