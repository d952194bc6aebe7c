#include "core/knn.hpp"

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "core/probe_scan.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace wf::core {

namespace {

constexpr std::size_t kQueryBlock = 32;  // queries per GEMM tile / pool task (exhaustive)
constexpr double kUnreached = 1e300;     // per-class distance of a class no row reached

// Candidates (see knn.hpp): insertion ids are unique, so comparing packed
// keys compares insertion ids — pair's lexicographic < therefore orders
// candidates by (dist, gid), identical to a partial_sort over (dist, index)
// pairs of one unsharded scan, while keeping heap elements at 16 bytes.
constexpr std::uint64_t kClassBits = kCandidateClassBits;  // ~16.7M classes, ~1.1T rows
constexpr std::uint64_t kClassMask = (std::uint64_t{1} << kClassBits) - 1;

inline std::uint64_t pack_key(std::uint64_t gid, int class_id) {
  return (gid << kClassBits) | static_cast<std::uint64_t>(class_id);
}

// Reusable per-thread workspace: GEMM tile, per-shard heap, merged
// candidates and per-class stats. Thread-local so concurrent pool tasks
// never contend and the hot paths allocate nothing in steady state.
struct RankScratch {
  std::vector<float> dots;
  std::vector<double> qnorms;
  std::vector<Candidate> heap;    // bounded max-heap of one shard's k best
  std::vector<Candidate> merged;  // candidates accumulated across shards
  std::vector<double> best;       // per global class id
  std::vector<int> votes;         // per global class id
};

RankScratch& scratch() {
  thread_local RankScratch s;
  return s;
}

// Scan one shard given the query's dot products against its rows: fold the
// per-class nearest distance into `best` (a flat per-class array) and
// append the shard's k smallest (dist, gid) candidates to `merged`.
// Templated on row-id presence so the single-shard store pays no per-row
// branch for its implicit identity ids.
template <bool kHasRowIds>
void scan_shard_impl(const ShardView& shard, const float* dots, double query_norm,
                     std::size_t k, std::vector<Candidate>& heap, double* best,
                     std::vector<Candidate>& merged) {
  WF_DCHECK(shard.rows == 0 || (shard.sq_norms != nullptr && shard.class_ids != nullptr),
            "scan_shard: shard tables missing");
  const auto cmp = [](const Candidate& a, const Candidate& b) { return a < b; };
  heap.clear();
  for (std::size_t j = 0; j < shard.rows; ++j) {
    double dist = query_norm + shard.sq_norms[j] - 2.0 * static_cast<double>(dots[j]);
    if (dist < 0.0) dist = 0.0;
    const int id = shard.class_ids[j];
    if (dist < best[static_cast<std::size_t>(id)]) best[static_cast<std::size_t>(id)] = dist;
    const Candidate entry{dist, pack_key(kHasRowIds ? shard.row_ids[j] : j, id)};
    if (heap.size() < k) {
      heap.push_back(entry);
      std::push_heap(heap.begin(), heap.end(), cmp);
    } else if (k > 0 && entry < heap.front()) {
      std::pop_heap(heap.begin(), heap.end(), cmp);
      heap.back() = entry;
      std::push_heap(heap.begin(), heap.end(), cmp);
    }
  }
  merged.insert(merged.end(), heap.begin(), heap.end());
}

void scan_shard(const ShardView& shard, const float* dots, double query_norm, std::size_t k,
                std::vector<Candidate>& heap, double* best, std::vector<Candidate>& merged) {
  if (shard.row_ids != nullptr)
    scan_shard_impl<true>(shard, dots, query_norm, k, heap, best, merged);
  else
    scan_shard_impl<false>(shard, dots, query_norm, k, heap, best, merged);
}

// Keep the k globally smallest candidates. The union of per-shard k-best
// lists always contains the global k best, so this equals the unsharded
// selection; the candidate set selected by nth_element is order-independent
// because keys are unique, which is what makes the scatter/gather fold exact.
void keep_nearest(std::size_t k, std::vector<Candidate>& merged) {
  if (merged.size() <= k) return;
  std::nth_element(merged.begin(), merged.begin() + static_cast<std::ptrdiff_t>(k),
                   merged.end());
  merged.resize(k);
}

int class_of(const Candidate& c) { return static_cast<int>(c.second & kClassMask); }

// The ranking order: most votes, then nearest reference, then label.
bool ranks_before(const RankedLabel& a, const RankedLabel& b) {
  if (a.votes != b.votes) return a.votes > b.votes;
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.label < b.label;
}

// Sorts the touched classes of a sparse ranking by ranks_before. Voted
// classes rank first whatever their distance, so the (at most k) voted
// entries and the long unvoted part sort apart: the same order, with the
// votes comparison dropped from the long part.
void sort_touched(std::vector<RankedLabel>& out) {
  const auto voted = std::partition(out.begin(), out.end(),
                                    [](const RankedLabel& r) { return r.votes > 0; });
  std::sort(out.begin(), voted, ranks_before);
  std::sort(voted, out.end(), [](const RankedLabel& a, const RankedLabel& b) {
    return a.distance != b.distance ? a.distance < b.distance : a.label < b.label;
  });
}

// Dense finalize for exhaustive stores, whose scan reaches every class:
// count the k nearest candidates' votes and sort every class.
void finalize_dense(const ReferenceStore& refs, std::size_t k, std::vector<Candidate>& merged,
                    std::vector<int>& votes, const double* best,
                    std::vector<RankedLabel>& out) {
  const std::size_t n_ids = refs.n_class_ids();
  keep_nearest(k, merged);
  votes.assign(n_ids, 0);
  for (const Candidate& c : merged) {
    WF_DCHECK(static_cast<std::size_t>(class_of(c)) < n_ids,
              "finalize: candidate class id out of range");
    ++votes[static_cast<std::size_t>(class_of(c))];
  }
  out.clear();
  out.reserve(n_ids);
  for (std::size_t id = 0; id < n_ids; ++id)
    out.push_back({refs.label_of_id(id), votes[id], best[id]});
  std::sort(out.begin(), out.end(),
            [](const RankedLabel& a, const RankedLabel& b) { return ranks_before(a, b); });
}

// Per-thread dense class state for the sparse finalize, sized to the
// class-id space and kept at its neutral values (kUnreached, 0 votes,
// unmarked) between uses: only the ids a query touched are reset, so a
// query costs O(classes it reached), not O(classes).
struct ClassState {
  static constexpr std::uint8_t kTouched = 1;
  static constexpr std::uint8_t kRanked = 2;

  std::vector<double> best;
  std::vector<int> votes;
  std::vector<std::uint8_t> mark;
  std::vector<int> touched;

  void fit(std::size_t n_ids) {
    if (best.size() >= n_ids) return;
    best.resize(n_ids, kUnreached);
    votes.resize(n_ids, 0);
    mark.resize(n_ids, 0);
  }
  void touch(int id) {
    if (mark[static_cast<std::size_t>(id)] != 0) return;
    mark[static_cast<std::size_t>(id)] = kTouched;
    touched.push_back(id);
  }
  void reach(int id, double dist) {
    touch(id);
    double& b = best[static_cast<std::size_t>(id)];
    if (dist < b) b = dist;
  }
  void reset() {
    for (const int id : touched) {
      best[static_cast<std::size_t>(id)] = kUnreached;
      votes[static_cast<std::size_t>(id)] = 0;
      mark[static_cast<std::size_t>(id)] = 0;
    }
    touched.clear();
  }
};

ClassState& class_state(std::size_t n_ids) {
  thread_local ClassState s;
  s.fit(n_ids);
  return s;
}

// Class ids in ascending label order: the tail of a sparse ranking. Built
// on first use and shared by the call's queries, so a call whose queries
// reach every class never sorts labels.
class LabelOrder {
 public:
  explicit LabelOrder(std::span<const int> labels) : labels_(labels) {}

  const std::vector<int>& ids() {
    std::call_once(built_, [this] {
      ids_.resize(labels_.size());
      std::iota(ids_.begin(), ids_.end(), 0);
      std::sort(ids_.begin(), ids_.end(), [this](int a, int b) {
        return labels_[static_cast<std::size_t>(a)] < labels_[static_cast<std::size_t>(b)];
      });
    });
    return ids_;
  }

 private:
  std::span<const int> labels_;
  std::vector<int> ids_;
  std::once_flag built_;
};

// Sparse finalize: the classes the query touched (nearest distance below
// kUnreached, or a vote) are sorted; every other class follows with 0 votes
// and distance kUnreached in ascending label order. That tail is exactly
// where the dense sort puts those classes, so the ranking is bit-identical
// to finalize_dense over the same per-class state. Leaves `cs` neutral.
void finalize_sparse(std::span<const int> labels, LabelOrder& order, std::size_t k,
                     std::vector<Candidate>& merged, ClassState& cs,
                     std::vector<RankedLabel>& out) {
  keep_nearest(k, merged);
  for (const Candidate& c : merged) {
    WF_DCHECK(static_cast<std::size_t>(class_of(c)) < labels.size(),
              "finalize: candidate class id out of range");
    cs.touch(class_of(c));
    ++cs.votes[static_cast<std::size_t>(class_of(c))];
  }
  out.clear();
  out.reserve(labels.size());
  for (const int id : cs.touched) {
    const auto i = static_cast<std::size_t>(id);
    if (!(cs.best[i] < kUnreached) && cs.votes[i] == 0) continue;
    out.push_back({labels[i], cs.votes[i], cs.best[i]});
    cs.mark[i] = ClassState::kRanked;
  }
  sort_touched(out);
  if (out.size() < labels.size())
    for (const int id : order.ids())
      if (cs.mark[static_cast<std::size_t>(id)] != ClassState::kRanked)
        out.push_back({labels[static_cast<std::size_t>(id)], 0, kUnreached});
  cs.reset();
}

// One probed cell's scan for every query that probed it: the cell's
// distinct class ids (first-appearance order), then per pair (group slot)
// its nearest distance per class and its min(k, rows) best candidates.
struct CellHits {
  std::vector<int> class_ids;
  std::vector<double> best;      // slots x class_ids.size()
  std::vector<Candidate> cands;  // slots x kept
  std::size_t kept = 0;
};

// Scans probed cell `cell` (group g) for each query of its group, given
// the group's dots (slots x rows).
void scan_knn_cell(const detail::CellPlan& plan, std::size_t g, const ShardView& cell,
                   const float* dots, std::size_t k, std::size_t n_ids, CellHits& out) {
  ClassState& cs = class_state(n_ids);
  for (std::size_t j = 0; j < cell.rows; ++j) cs.touch(cell.class_ids[j]);
  out.class_ids.assign(cs.touched.begin(), cs.touched.end());
  cs.reset();
  const std::size_t slots = plan.group_size(g);
  const std::size_t n_classes = out.class_ids.size();
  out.kept = std::min(k, cell.rows);
  out.best.resize(slots * n_classes);
  out.cands.reserve(slots * out.kept);
  RankScratch& sc = scratch();
  for (std::size_t i = 0; i < slots; ++i) {
    const std::size_t q = plan.pair_query[plan.group_begin[g] + i];
    // cs.best is the dense per-pair accumulator: read the cell's classes
    // back and reset them after each pair.
    scan_shard(cell, dots + i * cell.rows, plan.qnorms[q], k, sc.heap, cs.best.data(),
               out.cands);
    double* row = out.best.data() + i * n_classes;
    for (std::size_t c = 0; c < n_classes; ++c) {
      double& b = cs.best[static_cast<std::size_t>(out.class_ids[c])];
      row[c] = b;
      b = kUnreached;
    }
  }
}

std::vector<CellHits> scan_knn_cells(const ReferenceStore& refs, const detail::CellPlan& plan,
                                     const float* queries, std::size_t k) {
  std::vector<CellHits> hits(plan.groups());
  detail::scan_cells(refs, plan, queries, refs.dim(),
                     [&](std::size_t g, const ShardView& cell, const float* dots) {
                       scan_knn_cell(plan, g, cell, dots, k, refs.n_class_ids(), hits[g]);
                     });
  return hits;
}

// Fold query q's pairs: append their candidates to `merged` and hand each
// (class id, nearest distance) to reach(id, dist), in ascending cell order.
template <typename Reach>
void fold_pairs(const detail::CellPlan& plan, const std::vector<CellHits>& hits, std::size_t q,
                std::vector<Candidate>& merged, Reach&& reach) {
  for (const std::uint32_t p : plan.pairs_of(q)) {
    const CellHits& h = hits[plan.pair_group[p]];
    const std::size_t slot = plan.slot_of(p);
    const auto first = h.cands.begin() + static_cast<std::ptrdiff_t>(slot * h.kept);
    merged.insert(merged.end(), first, first + static_cast<std::ptrdiff_t>(h.kept));
    const double* row = h.best.data() + slot * h.class_ids.size();
    for (std::size_t c = 0; c < h.class_ids.size(); ++c) reach(h.class_ids[c], row[c]);
  }
}

}  // namespace

std::vector<RankedLabel> KnnClassifier::rank(const ReferenceStore& references,
                                             std::span<const float> query) const {
  const std::size_t n = references.size();
  if (n == 0) return {};
  if (query.size() != references.dim())
    throw std::invalid_argument("KnnClassifier::rank: query width mismatch");
  if (references.pruned()) {
    // IVF-style store: the batch schedule over a batch of one.
    nn::Matrix one(1, query.size());
    one.set_row(0, query);
    return std::move(rank_batch(references, one).front());
  }
  const std::size_t n_shards = references.shard_count();
  const std::size_t n_ids = references.n_class_ids();
  const std::size_t k = std::min<std::size_t>(static_cast<std::size_t>(std::max(0, k_)), n);
  const double qnorm = nn::squared_norm(query.data(), query.size());

  RankScratch& sc = scratch();
  sc.merged.clear();
  sc.best.assign(n_ids, kUnreached);
  if (n_shards == 1) {
    // Zero-allocation steady state on the per-trace latency path.
    const ShardView shard = references.shard_view(0);
    sc.dots.resize(shard.rows);
    nn::gemm_nt_serial(query.data(), 1, shard.data, shard.rows, references.dim(),
                       sc.dots.data());
    scan_shard(shard, sc.dots.data(), qnorm, k, sc.heap, sc.best.data(), sc.merged);
  } else {
    // Per-shard candidate heaps in parallel over the pool, folded into the
    // caller's accumulators under a mutex. Fold order doesn't matter: the
    // per-class fold is min() and finalize selects the k smallest by the
    // unique (dist, gid) key, so the result is schedule-independent.
    std::mutex fold_mutex;
    util::global_pool().parallel_for(0, n_shards, [&](std::size_t s) {
      const ShardView shard = references.shard_view(s);
      if (shard.rows == 0) return;
      thread_local std::vector<float> dots;
      thread_local std::vector<Candidate> heap;
      thread_local std::vector<Candidate> cands;
      thread_local std::vector<double> best;
      dots.resize(shard.rows);
      nn::gemm_nt_serial(query.data(), 1, shard.data, shard.rows, references.dim(),
                         dots.data());
      cands.clear();
      best.assign(n_ids, kUnreached);
      scan_shard(shard, dots.data(), qnorm, k, heap, best.data(), cands);
      const std::scoped_lock lock(fold_mutex);
      sc.merged.insert(sc.merged.end(), cands.begin(), cands.end());
      for (std::size_t id = 0; id < n_ids; ++id) sc.best[id] = std::min(sc.best[id], best[id]);
    });
  }
  std::vector<RankedLabel> ranking;
  finalize_dense(references, k, sc.merged, sc.votes, sc.best.data(), ranking);
  return ranking;
}

std::vector<std::vector<RankedLabel>> KnnClassifier::rank_batch(
    const ReferenceStore& references, const nn::Matrix& queries) const {
  const std::size_t m = queries.rows();
  std::vector<std::vector<RankedLabel>> rankings(m);
  const std::size_t n = references.size();
  if (m == 0 || n == 0) return rankings;
  if (queries.cols() != references.dim())
    throw std::invalid_argument("KnnClassifier::rank_batch: query width mismatch");
  const std::size_t dim = references.dim();
  const std::size_t n_shards = references.shard_count();
  const std::size_t n_ids = references.n_class_ids();
  const std::size_t k = std::min<std::size_t>(static_cast<std::size_t>(std::max(0, k_)), n);

  if (references.pruned()) {
    // Cell-major batch scan (core/probe_scan.hpp), then each query's pairs
    // folded into sparse class state and finalized, in parallel over queries.
    detail::CellPlan plan;
    {
      const obs::Span span("rank.probe");
      plan = detail::plan_cells(references, queries.data(), m, dim, 0, 1);
    }
    std::vector<CellHits> hits;
    {
      const obs::Span span("rank.scan");
      hits = scan_knn_cells(references, plan, queries.data(), k);
    }
    const obs::Span span("rank.finalize");
    std::vector<int> labels(n_ids);
    for (std::size_t id = 0; id < n_ids; ++id) labels[id] = references.label_of_id(id);
    LabelOrder order(labels);
    util::global_pool().parallel_for(0, m, [&](std::size_t q) {
      ClassState& cs = class_state(n_ids);
      RankScratch& sc = scratch();
      sc.merged.clear();
      fold_pairs(plan, hits, q, sc.merged, [&](int id, double dist) { cs.reach(id, dist); });
      finalize_sparse(labels, order, k, sc.merged, cs, rankings[q]);
    });
    return rankings;
  }

  util::global_pool().parallel_blocks(0, m, kQueryBlock, [&](std::size_t lo, std::size_t hi) {
    // Per-query accumulators for the current tile, reused (capacity intact)
    // across tiles; shards are scanned one after another, each contributing
    // one GEMM tile and its candidates. best is flat: query q owns
    // [q * n_ids, (q + 1) * n_ids).
    std::vector<std::vector<Candidate>> merged(kQueryBlock);
    std::vector<double> best;
    for (std::size_t t0 = lo; t0 < hi; t0 += kQueryBlock) {
      const std::size_t t1 = std::min(hi, t0 + kQueryBlock);
      const std::size_t rows = t1 - t0;
      RankScratch& sc = scratch();
      sc.qnorms.resize(rows);
      for (std::size_t q = 0; q < rows; ++q)
        sc.qnorms[q] = nn::squared_norm(queries.data() + (t0 + q) * dim, dim);
      for (std::size_t q = 0; q < rows; ++q) merged[q].clear();
      best.assign(rows * n_ids, kUnreached);
      for (std::size_t s = 0; s < n_shards; ++s) {
        const ShardView shard = references.shard_view(s);
        if (shard.rows == 0) continue;
        sc.dots.resize(rows * shard.rows);
        nn::gemm_nt_serial(queries.data() + t0 * dim, rows, shard.data, shard.rows, dim,
                           sc.dots.data());
        for (std::size_t q = 0; q < rows; ++q)
          scan_shard(shard, sc.dots.data() + q * shard.rows, sc.qnorms[q], k, sc.heap,
                     best.data() + q * n_ids, merged[q]);
      }
      for (std::size_t q = 0; q < rows; ++q)
        finalize_dense(references, k, merged[q], sc.votes, best.data() + q * n_ids,
                       rankings[t0 + q]);
    }
  });
  return rankings;
}

SliceScan KnnClassifier::scan_slice(const ReferenceStore& references, const nn::Matrix& queries,
                                    std::size_t slice_index, std::size_t slice_count) const {
  if (slice_count == 0 || slice_index >= slice_count)
    throw std::invalid_argument("KnnClassifier::scan_slice: slice index out of range");
  const std::size_t m = queries.rows();
  const std::size_t n = references.size();
  SliceScan out;
  out.n_queries = m;
  out.n_class_ids = references.n_class_ids();
  out.candidates.resize(m);
  out.best.assign(m * out.n_class_ids, kUnreached);
  for (std::size_t s = slice_index; s < references.shard_count(); s += slice_count)
    out.n_rows_scanned += references.shard_view(s).rows;
  if (m == 0 || n == 0) return out;
  if (queries.cols() != references.dim())
    throw std::invalid_argument("KnnClassifier::scan_slice: query width mismatch");
  const std::size_t dim = references.dim();
  const std::size_t n_shards = references.shard_count();
  const std::size_t n_ids = out.n_class_ids;
  // k is bounded by the *whole* store's row count, exactly as in rank_batch:
  // the slice is a partition of one store, not a smaller store.
  const std::size_t k = std::min<std::size_t>(static_cast<std::size_t>(std::max(0, k_)), n);

  if (references.pruned()) {
    // The rank_batch schedule restricted to the slice's cells; the fold
    // writes each query's row of the dense per-class table PART carries.
    const detail::CellPlan plan =
        detail::plan_cells(references, queries.data(), m, dim, slice_index, slice_count);
    const std::vector<CellHits> hits = scan_knn_cells(references, plan, queries.data(), k);
    util::global_pool().parallel_for(0, m, [&](std::size_t q) {
      double* best = out.best.data() + q * n_ids;
      fold_pairs(plan, hits, q, out.candidates[q], [best](int id, double dist) {
        double& b = best[static_cast<std::size_t>(id)];
        if (dist < b) b = dist;
      });
    });
    return out;
  }

  util::global_pool().parallel_blocks(0, m, kQueryBlock, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t t0 = lo; t0 < hi; t0 += kQueryBlock) {
      const std::size_t t1 = std::min(hi, t0 + kQueryBlock);
      const std::size_t rows = t1 - t0;
      RankScratch& sc = scratch();
      sc.qnorms.resize(rows);
      for (std::size_t q = 0; q < rows; ++q)
        sc.qnorms[q] = nn::squared_norm(queries.data() + (t0 + q) * dim, dim);
      for (std::size_t s = slice_index; s < n_shards; s += slice_count) {
        const ShardView shard = references.shard_view(s);
        if (shard.rows == 0) continue;
        sc.dots.resize(rows * shard.rows);
        nn::gemm_nt_serial(queries.data() + t0 * dim, rows, shard.data, shard.rows, dim,
                           sc.dots.data());
        for (std::size_t q = 0; q < rows; ++q)
          scan_shard(shard, sc.dots.data() + q * shard.rows, sc.qnorms[q], k, sc.heap,
                     out.best.data() + (t0 + q) * n_ids, out.candidates[t0 + q]);
      }
    }
  });
  return out;
}

std::vector<std::vector<RankedLabel>> merge_slice_scans(std::span<const int> labels_by_id,
                                                        int k, std::size_t n_total,
                                                        const std::vector<SliceScan>& slices) {
  const std::size_t n_ids = labels_by_id.size();
  const std::size_t m = slices.empty() ? 0 : slices.front().n_queries;
  for (const SliceScan& slice : slices) {
    if (slice.n_class_ids != n_ids)
      throw std::invalid_argument("merge_slice_scans: class-id space mismatch");
    if (slice.n_queries != m)
      throw std::invalid_argument("merge_slice_scans: query count mismatch");
  }
  std::vector<std::vector<RankedLabel>> rankings(m);
  if (n_total == 0) return rankings;
  const std::size_t kk =
      std::min<std::size_t>(static_cast<std::size_t>(std::max(0, k)), n_total);
  // The touched classes of a query are those some slice reached (folded
  // best below kUnreached); the sparse finalize sorts only those.
  LabelOrder order(labels_by_id);
  std::vector<Candidate> merged;
  ClassState& cs = class_state(n_ids);
  for (std::size_t q = 0; q < m; ++q) {
    merged.clear();
    for (const SliceScan& slice : slices) {
      merged.insert(merged.end(), slice.candidates[q].begin(), slice.candidates[q].end());
      const double* slice_best = slice.best_of(q);
      for (std::size_t id = 0; id < n_ids; ++id)
        if (slice_best[id] < kUnreached) cs.reach(static_cast<int>(id), slice_best[id]);
    }
    finalize_sparse(labels_by_id, order, kk, merged, cs, rankings[q]);
  }
  return rankings;
}

}  // namespace wf::core
