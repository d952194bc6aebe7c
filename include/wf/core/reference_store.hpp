#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

namespace wf::core {

// Read-only view of one shard's dense side tables, consumed by the k-NN and
// open-world query kernels. `class_ids` indexes the *store-global* dense
// class-id space so per-class stats merged across shards land in one flat
// array. `row_ids` carries each row's global insertion number, the distance
// tie-break key; nullptr means the local row index is already global
// (single-shard stores).
struct ShardView {
  const float* data = nullptr;             // rows x dim, row-major
  const double* sq_norms = nullptr;        // cached ‖r‖² per row
  const int* class_ids = nullptr;          // dense global class id per row
  const std::uint64_t* row_ids = nullptr;  // global tie-break id per row
  std::size_t rows = 0;
};

// Shared interface of ReferenceSet (the S = 1 degenerate case) and
// ShardedReferenceSet: the query kernels scan every shard independently and
// merge per-shard candidates, without knowing the storage layout. The merge
// contract is exact — votes, per-class nearest distances and k-th-neighbour
// distances are identical to one linear scan over the union of all shards.
class ReferenceStore {
 public:
  virtual ~ReferenceStore() = default;

  virtual std::size_t dim() const = 0;
  virtual std::size_t size() const = 0;  // rows across all shards
  virtual std::size_t shard_count() const = 0;
  virtual ShardView shard_view(std::size_t shard) const = 0;

  // Dense global class-id space shared by every shard's class_ids table.
  virtual std::size_t n_class_ids() const = 0;
  virtual int label_of_id(std::size_t id) const = 0;

  // Query-adaptive probing (wf::index IVF stores). A pruned store picks the
  // shards worth scanning per query instead of being scanned exhaustively;
  // the kernels route every query through probe_shards() when pruned() is
  // true. probe_shards must append distinct shard indices (a repeat would
  // double-count votes) deterministically for a given query. The default —
  // all shards, ascending — makes an exhaustive store answer correctly even
  // if a caller probes it anyway.
  virtual bool pruned() const { return false; }
  virtual void probe_shards(std::span<const float> query, std::vector<std::size_t>& out) const {
    (void)query;
    out.clear();
    for (std::size_t s = 0; s < shard_count(); ++s) out.push_back(s);
  }
};

namespace detail {

// The remove_class rule of the mutable stores (ShardedReferenceSet,
// IvfReferenceStore): drop class id `gone` without re-deriving the id space.
// Later ids shift down by one, so ids stay dense and the remaining classes
// keep their relative order. Nothing depends on that order — rankings break
// ties by label — but keeping it makes a removal O(rows + classes) instead
// of a rehash of every row.
//
// drop_class_rows compacts one shard's tables (any type with data, labels,
// sq_norms, class_ids and row_ids members) in place and re-maps the
// surviving rows' ids in the same pass; returns the rows dropped.
template <typename Tables>
std::size_t drop_class_rows(Tables& t, std::size_t dim, int gone) {
  const std::size_t rows = t.class_ids.size();
  std::size_t keep = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    const int id = t.class_ids[i];
    if (id == gone) continue;
    if (keep != i) {
      std::copy_n(t.data.data() + i * dim, dim, t.data.data() + keep * dim);
      t.sq_norms[keep] = t.sq_norms[i];
      t.row_ids[keep] = t.row_ids[i];
      t.labels[keep] = t.labels[i];
    }
    t.class_ids[keep] = id > gone ? id - 1 : id;
    ++keep;
  }
  t.data.resize(keep * dim);
  t.sq_norms.resize(keep);
  t.class_ids.resize(keep);
  t.row_ids.resize(keep);
  t.labels.resize(keep);
  return rows - keep;
}

// Erases `gone` from the label <-> id tables and re-points the shifted ids.
inline void drop_class_id(std::vector<int>& id_to_label,
                          std::unordered_map<int, int>& label_to_id, int gone) {
  label_to_id.erase(id_to_label[static_cast<std::size_t>(gone)]);
  id_to_label.erase(id_to_label.begin() + gone);
  for (std::size_t id = static_cast<std::size_t>(gone); id < id_to_label.size(); ++id)
    label_to_id[id_to_label[id]] = static_cast<int>(id);
}

}  // namespace detail

}  // namespace wf::core
