#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/reference_set.hpp"
#include "nn/matrix.hpp"

namespace wf::core {

// One entry of a classifier's ranked output: classes sorted best-first.
struct RankedLabel {
  int label = -1;
  int votes = 0;        // neighbours (or trees) voting for this class
  double distance = 0;  // tie-break: closest reference of this class
};

// One top-k candidate as exchanged between scatter/gather nodes: the
// squared distance plus a packed key carrying the row's global insertion id
// (upper bits) and its dense global class id (lower kCandidateClassBits).
// Keys are unique per row, so the pair's lexicographic < totally orders
// candidates by (dist, insertion id) — the exact merge tie-break of the
// sharded scan.
inline constexpr std::uint64_t kCandidateClassBits = 24;
using Candidate = std::pair<double, std::uint64_t>;

// The scatter half of a distributed query: one node's scan of the shards
// s ≡ slice_index (mod slice_count). Holds, per query, the per-shard k-best
// candidates and the per-class nearest distances over the slice (flat,
// query-major). Folding the slices of one store back together with
// merge_slice_scans reproduces KnnClassifier::rank_batch over the whole
// store bit-identically.
struct SliceScan {
  std::size_t n_queries = 0;
  std::size_t n_class_ids = 0;
  // Reference rows this slice's shards hold — the coordinator sums these
  // over the slices it gathered to decide whether coverage is full or the
  // answer must be flagged degraded. 0 from pre-extension peers ("unknown").
  std::uint64_t n_rows_scanned = 0;
  std::vector<std::vector<Candidate>> candidates;  // per query
  std::vector<double> best;                        // n_queries x n_class_ids

  const double* best_of(std::size_t query) const { return best.data() + query * n_class_ids; }
};

// The gather half: fold per-slice candidates (union, then keep the k
// globally smallest by the unique (dist, key) order) and per-class bests
// (elementwise min) into final rankings. `labels_by_id` maps dense class
// ids to page labels; `n_total` is the store's total row count, bounding k
// exactly as rank_batch does. Slice fold order does not affect the result.
// Like rank_batch on a pruned store, it sorts only the classes some slice
// reached and appends the rest in ascending label order.
std::vector<std::vector<RankedLabel>> merge_slice_scans(std::span<const int> labels_by_id,
                                                        int k, std::size_t n_total,
                                                        const std::vector<SliceScan>& slices);

// k-nearest-neighbour voting in embedding space. Produces a *total* ranking
// over every class in the reference store (voted classes first, the rest
// ordered by nearest-reference distance) so top-n curves and per-class
// guess counts are well defined for any n.
//
// Queries run shard-by-shard against any ReferenceStore: one blocked GEMM
// tile per shard (distances via ‖q‖² + ‖r‖² − 2·q·r with the reference
// norms cached per shard), a per-shard top-k candidate heap, and an exact
// merge of the shard candidates into the global ranking — votes and
// per-class nearest distances are identical to a single unsharded scan.
//
// On exhaustive stores rank_batch splits query blocks across the thread
// pool and the scalar rank() splits the shard scan itself. On pruned (IVF)
// stores rank, rank_batch and scan_slice run the cell-major batch schedule
// of core/probe_scan.hpp: every query is probed, each probed cell is
// streamed once through one GEMM over all the queries that probe it, and
// each query's (cell, query) pairs are folded into sparse per-class state.
// Its finalize sorts only the classes the scan touched (nearest distance
// below 1e300, or a vote) and appends the rest — 0 votes, distance 1e300 —
// in ascending label order, which is exactly where the dense sort puts
// them. rank_batch on a pruned store records the obs spans probe, scan and
// finalize once per call.
class KnnClassifier {
 public:
  explicit KnnClassifier(int k) : k_(k) {}

  int k() const { return k_; }

  std::vector<RankedLabel> rank(const ReferenceStore& references,
                                std::span<const float> query) const;

  // One ranking per row of `queries` (queries.cols() == references.dim()).
  std::vector<std::vector<RankedLabel>> rank_batch(const ReferenceStore& references,
                                                   const nn::Matrix& queries) const;

  // Scan only the shards s with s % slice_count == slice_index of
  // `references` (which must be the full store — the per-shard heap size is
  // bounded by the store's total row count, as in rank_batch). This is what
  // a scatter/gather backend computes before shipping candidates to the
  // coordinator's merge_slice_scans.
  SliceScan scan_slice(const ReferenceStore& references, const nn::Matrix& queries,
                       std::size_t slice_index, std::size_t slice_count) const;

 private:
  int k_;
};

}  // namespace wf::core
