#pragma once

// Batch-wide, cell-major scan schedule for pruned (IVF-style) reference
// stores, shared by the k-NN and open-world kernels — the batched
// inverted-list scan of IVF systems (Jégou et al., "Product quantization for
// nearest neighbor search", TPAMI 2011; Johnson et al., "Billion-scale
// similarity search with GPUs", IEEE TBD 2019). One call runs in phases:
//
//   probe — probe_shards() for every query of the call, in parallel;
//   plan  — the (cell, query) pairs grouped by cell with a counting sort, so
//           each probed cell forms one group with every query that probes it;
//   scan  — the groups split over the pool: one GEMM per cell over all of
//           its queries, then the caller's per-group kernel keeps each
//           pair's small result (its k best, its per-class minima);
//   fold  — the caller folds each query's pairs, in parallel over queries.
//
// Each probed cell is therefore streamed once per call, not once per query
// that probes it, and per-call memory is O(pairs x per-pair result), never
// O(queries x classes).
//
// Determinism: each pair's result depends only on its query and cell, not
// on the other queries that probe the same cell. Groups are in ascending cell order, queries
// ascending within a cell, and each query's pairs ascending by cell — the
// order in which an exhaustive scan meets the same shards. The downstream
// merges are order-independent anyway (unique (dist, insertion-id) keys,
// min folds), so pruning with a probe list covering all shards stays
// bit-identical to the exhaustive scan at any pool size.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/reference_store.hpp"
#include "nn/matrix.hpp"
#include "util/thread_pool.hpp"

namespace wf::core::detail {

struct CellPlan {
  std::vector<double> qnorms;              // ‖q‖² per query
  std::vector<std::size_t> cells;          // probed non-empty cell of each group, ascending
  std::vector<std::size_t> group_begin;    // group g: pairs [group_begin[g], group_begin[g + 1])
  std::vector<std::uint32_t> pair_query;   // query of each pair (cell-major order)
  std::vector<std::uint32_t> pair_group;   // group of each pair
  std::vector<std::size_t> query_begin;    // query q: query_pairs[query_begin[q], query_begin[q + 1])
  std::vector<std::uint32_t> query_pairs;  // each query's pairs, ascending cell

  std::size_t groups() const { return cells.size(); }
  std::size_t group_size(std::size_t g) const { return group_begin[g + 1] - group_begin[g]; }
  std::span<const std::uint32_t> pairs_of(std::size_t q) const {
    return {query_pairs.data() + query_begin[q], query_begin[q + 1] - query_begin[q]};
  }
  // Position of pair p within its group: the row of its group's results.
  std::size_t slot_of(std::size_t p) const { return p - group_begin[pair_group[p]]; }
};

// Probe and plan: the rows x dim `queries` against `refs`, keeping only the
// cells s ≡ slice_index (mod slice_count) — the slice filter of a
// scatter/gather backend (0, 1 keeps every probed cell).
CellPlan plan_cells(const ReferenceStore& refs, const float* queries, std::size_t rows,
                    std::size_t dim, std::size_t slice_index, std::size_t slice_count);

// Scan: calls scan_cell(g, cell_view, dots) once per group, in parallel over
// the groups, where dots is group_size(g) x cell_view.rows: row i holds the
// dot products of the group's i-th query (plan.pair_query[group_begin[g] + i])
// against every row of the cell.
template <typename ScanCell>
void scan_cells(const ReferenceStore& refs, const CellPlan& plan, const float* queries,
                std::size_t dim, ScanCell&& scan_cell) {
  util::global_pool().parallel_for(0, plan.groups(), [&](std::size_t g) {
    thread_local std::vector<float> gathered;
    thread_local std::vector<float> dots;
    const ShardView cell = refs.shard_view(plan.cells[g]);
    const std::size_t first = plan.group_begin[g];
    const std::size_t n = plan.group_size(g);
    gathered.resize(n * dim);
    for (std::size_t i = 0; i < n; ++i)
      std::copy_n(queries + std::size_t{plan.pair_query[first + i]} * dim, dim,
                  gathered.data() + i * dim);
    dots.resize(n * cell.rows);
    nn::gemm_nt_serial(gathered.data(), n, cell.data, cell.rows, dim, dots.data());
    scan_cell(g, cell, static_cast<const float*>(dots.data()));
  });
}

}  // namespace wf::core::detail
