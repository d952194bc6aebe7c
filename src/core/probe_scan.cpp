#include "core/probe_scan.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace wf::core::detail {

CellPlan plan_cells(const ReferenceStore& refs, const float* queries, std::size_t rows,
                    std::size_t dim, std::size_t slice_index, std::size_t slice_count) {
  CellPlan plan;
  plan.qnorms.resize(rows);
  std::vector<std::vector<std::size_t>> probes(rows);
  util::global_pool().parallel_for(0, rows, [&](std::size_t q) {
    const float* query = queries + q * dim;
    plan.qnorms[q] = nn::squared_norm(query, dim);
    refs.probe_shards({query, dim}, probes[q]);
  });

  // Counting sort of the (cell, query) pairs by cell: one group per probed
  // cell. Cells outside the slice or without rows form no group.
  constexpr std::size_t kNone = ~std::size_t{0};
  const std::size_t n_shards = refs.shard_count();
  std::vector<std::size_t> count(n_shards, 0);
  for (const std::vector<std::size_t>& probed : probes)
    for (const std::size_t s : probed) {
      WF_CHECK(s < n_shards, "plan_cells: probe_shards returned an out-of-range shard");
      if (s % slice_count == slice_index) ++count[s];
    }
  std::vector<std::size_t> cursor(n_shards, kNone);  // next pair slot of each cell
  plan.group_begin.push_back(0);
  for (std::size_t s = 0; s < n_shards; ++s) {
    if (count[s] == 0 || refs.shard_view(s).rows == 0) continue;
    cursor[s] = plan.group_begin.back();
    plan.cells.push_back(s);
    plan.group_begin.push_back(cursor[s] + count[s]);
  }
  const std::size_t n_pairs = plan.group_begin.back();
  WF_CHECK(n_pairs <= std::numeric_limits<std::uint32_t>::max() &&
               rows <= std::numeric_limits<std::uint32_t>::max(),
           "plan_cells: batch too large for 32-bit pair ids");
  plan.pair_query.resize(n_pairs);
  plan.pair_group.resize(n_pairs);
  plan.query_begin.assign(rows + 1, 0);
  for (std::size_t q = 0; q < rows; ++q)
    for (const std::size_t s : probes[q]) {
      if (cursor[s] == kNone) continue;
      plan.pair_query[cursor[s]++] = static_cast<std::uint32_t>(q);
      ++plan.query_begin[q + 1];
    }
  for (std::size_t g = 0; g < plan.groups(); ++g)
    std::fill(plan.pair_group.begin() + static_cast<std::ptrdiff_t>(plan.group_begin[g]),
              plan.pair_group.begin() + static_cast<std::ptrdiff_t>(plan.group_begin[g + 1]),
              static_cast<std::uint32_t>(g));

  // Each query's pairs in cell-major order, i.e. ascending cell.
  for (std::size_t q = 0; q < rows; ++q) plan.query_begin[q + 1] += plan.query_begin[q];
  plan.query_pairs.resize(n_pairs);
  std::vector<std::size_t> next(plan.query_begin.begin(), plan.query_begin.end() - 1);
  for (std::size_t p = 0; p < n_pairs; ++p)
    plan.query_pairs[next[plan.pair_query[p]]++] = static_cast<std::uint32_t>(p);
  return plan;
}

}  // namespace wf::core::detail
