#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/reference_store.hpp"
#include "nn/matrix.hpp"
#include "util/aligned.hpp"

namespace wf::core {

// Reference embeddings partitioned into S shards, each with its own dense
// data/norm/class-id tables, so the query kernels can scan shards
// independently (one GEMM tile per shard, per-shard candidate heaps) and
// merge. Rows are distributed round-robin by a global insertion counter;
// the counter value is kept per row as the tie-break id, which makes every
// merged ranking identical to a single scan over the rows in insertion
// order — i.e. to an unsharded ReferenceSet built the same way.
//
// Adaptation (§IV-C probe-and-swap) stays a pure data operation: a swap is
// a per-shard remove_class compaction followed by round-robin re-adds.
class ShardedReferenceSet final : public ReferenceStore {
 public:
  ShardedReferenceSet() = default;
  // n_shards == 0 resolves to default_shard_count().
  explicit ShardedReferenceSet(std::size_t dim, std::size_t n_shards = 1);

  void add(std::span<const float> embedding, int label);
  void add_all(const nn::Matrix& embeddings, const std::vector<int>& labels);

  // Drop every reference of `label`: per-shard compaction that also re-maps
  // the surviving rows' class ids (detail::drop_class_rows — later ids shift
  // down by one, so ids stay dense and stale ids never survive a swap).
  void remove_class(int label);

  // ReferenceStore
  std::size_t dim() const override { return dim_; }
  std::size_t size() const override { return size_; }
  std::size_t shard_count() const override { return shards_.size(); }
  ShardView shard_view(std::size_t shard) const override;
  std::size_t n_class_ids() const override { return id_to_label_.size(); }
  int label_of_id(std::size_t id) const override { return id_to_label_[id]; }

  bool empty() const { return size_ == 0; }
  std::size_t shard_rows(std::size_t shard) const { return shards_[shard].labels.size(); }

  // Distinct page labels, ascending (same contract as ReferenceSet).
  std::vector<int> classes() const;

  // WF_SHARDS when set (clamped to [1, 4096]), else one shard per thread of
  // the global pool — enough to keep every worker on its own shard.
  static std::size_t default_shard_count();

  // Serialization snapshot of one shard's dense tables (wf::io). Restoring
  // these verbatim — including row ids and the dense class-id space —
  // reproduces every ranking bit-identically, merge tie-breaks included.
  struct ShardTables {
    util::AlignedVector<float> data;  // rows x dim, row-major
    std::vector<int> labels;
    std::vector<double> sq_norms;
    std::vector<int> class_ids;
    std::vector<std::uint64_t> row_ids;
  };
  ShardTables shard_tables(std::size_t shard) const;
  std::uint64_t next_row_id() const { return next_row_id_; }
  const std::vector<int>& id_to_label() const { return id_to_label_; }

  // Rebuild a set from serialized tables; validates cross-table
  // consistency and throws std::invalid_argument on mismatch.
  static ShardedReferenceSet restore(std::size_t dim, std::uint64_t next_row_id,
                                     std::vector<int> id_to_label,
                                     std::vector<ShardTables> shards);

 private:
  struct Shard {
    // 64-byte aligned so the SIMD distance kernels can tile straight off
    // the shard base (util::kSimdAlignment, like nn::Matrix).
    util::AlignedVector<float> data;  // labels.size() x dim_, row-major
    std::vector<int> labels;
    std::vector<double> sq_norms;
    std::vector<int> class_ids;          // dense global id per row
    std::vector<std::uint64_t> row_ids;  // global insertion number per row
  };

  std::size_t dim_ = 0;
  std::size_t size_ = 0;           // rows across all shards
  std::uint64_t next_row_id_ = 0;  // monotone; never reused after removals
  std::vector<Shard> shards_;
  std::vector<int> id_to_label_;
  std::unordered_map<int, int> label_to_id_;
};

}  // namespace wf::core
