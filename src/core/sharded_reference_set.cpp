#include "core/sharded_reference_set.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/check.hpp"
#include "util/env.hpp"
#include "util/thread_pool.hpp"

namespace wf::core {

ShardedReferenceSet::ShardedReferenceSet(std::size_t dim, std::size_t n_shards) : dim_(dim) {
  if (n_shards == 0) n_shards = default_shard_count();
  shards_.resize(n_shards);
}

std::size_t ShardedReferenceSet::default_shard_count() {
  if (const std::size_t configured = util::Env::shards(); configured > 0) return configured;
  return util::global_pool().size();
}

void ShardedReferenceSet::add(std::span<const float> embedding, int label) {
  if (embedding.size() != dim_)
    throw std::invalid_argument("ShardedReferenceSet::add: embedding width mismatch");
  if (shards_.empty()) shards_.resize(1);
  Shard& shard = shards_[next_row_id_ % shards_.size()];
  shard.data.insert(shard.data.end(), embedding.begin(), embedding.end());
  shard.labels.push_back(label);
  double norm = 0.0;
  for (const float v : embedding) norm += static_cast<double>(v) * v;
  shard.sq_norms.push_back(norm);
  const auto [it, inserted] =
      label_to_id_.try_emplace(label, static_cast<int>(id_to_label_.size()));
  if (inserted) id_to_label_.push_back(label);
  shard.class_ids.push_back(it->second);
  shard.row_ids.push_back(next_row_id_++);
  ++size_;
}

void ShardedReferenceSet::add_all(const nn::Matrix& embeddings, const std::vector<int>& labels) {
  if (embeddings.rows() != labels.size())
    throw std::invalid_argument("ShardedReferenceSet::add_all: rows != labels");
  for (std::size_t i = 0; i < embeddings.rows(); ++i) add(embeddings.row_span(i), labels[i]);
}

void ShardedReferenceSet::remove_class(int label) {
  const auto found = label_to_id_.find(label);
  if (found == label_to_id_.end()) return;
  const int gone = found->second;
  for (Shard& shard : shards_) size_ -= detail::drop_class_rows(shard, dim_, gone);
  detail::drop_class_id(id_to_label_, label_to_id_, gone);
}

ShardedReferenceSet::ShardTables ShardedReferenceSet::shard_tables(std::size_t shard) const {
  const Shard& s = shards_[shard];
  return {s.data, s.labels, s.sq_norms, s.class_ids, s.row_ids};
}

ShardedReferenceSet ShardedReferenceSet::restore(std::size_t dim, std::uint64_t next_row_id,
                                                 std::vector<int> id_to_label,
                                                 std::vector<ShardTables> shards) {
  if (shards.empty()) throw std::invalid_argument("ShardedReferenceSet::restore: no shards");
  ShardedReferenceSet out(dim, shards.size());
  out.next_row_id_ = next_row_id;
  out.id_to_label_ = std::move(id_to_label);
  for (std::size_t id = 0; id < out.id_to_label_.size(); ++id)
    out.label_to_id_.emplace(out.id_to_label_[id], static_cast<int>(id));
  for (std::size_t si = 0; si < shards.size(); ++si) {
    ShardTables& t = shards[si];
    const std::size_t rows = t.labels.size();
    // Overflow-safe rows x dim check: divide instead of multiplying.
    const bool data_consistent =
        rows == 0 ? t.data.empty()
                  : (dim != 0 && t.data.size() / dim == rows && t.data.size() % dim == 0);
    if (!data_consistent || t.sq_norms.size() != rows || t.class_ids.size() != rows ||
        t.row_ids.size() != rows)
      throw std::invalid_argument("ShardedReferenceSet::restore: inconsistent shard tables");
    for (std::size_t i = 0; i < rows; ++i) {
      if (t.class_ids[i] < 0 ||
          static_cast<std::size_t>(t.class_ids[i]) >= out.id_to_label_.size() ||
          out.id_to_label_[static_cast<std::size_t>(t.class_ids[i])] != t.labels[i] ||
          t.row_ids[i] >= next_row_id)
        throw std::invalid_argument("ShardedReferenceSet::restore: corrupt id tables");
    }
    Shard& s = out.shards_[si];
    s.data = std::move(t.data);
    s.labels = std::move(t.labels);
    s.sq_norms = std::move(t.sq_norms);
    s.class_ids = std::move(t.class_ids);
    s.row_ids = std::move(t.row_ids);
    out.size_ += rows;
  }
  return out;
}

ShardView ShardedReferenceSet::shard_view(std::size_t shard) const {
  WF_CHECK(shard < shards_.size(), "shard_view: shard index out of range");
  const Shard& s = shards_[shard];
  return {s.data.data(), s.sq_norms.data(), s.class_ids.data(), s.row_ids.data(),
          s.labels.size()};
}

std::vector<int> ShardedReferenceSet::classes() const {
  std::vector<int> out = id_to_label_;
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace wf::core
