#include "core/openworld.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/probe_scan.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace wf::core {

namespace {

constexpr std::size_t kQueryBlock = 32;  // queries per GEMM tile / pool task (exhaustive)

// Append this shard's `count` smallest squared distances to `merged`, given
// the query's dot products against the shard's rows.
void shard_smallest(const ShardView& shard, const float* dots, double qnorm, std::size_t count,
                    std::vector<double>& scratch, std::vector<double>& merged) {
  scratch.resize(shard.rows);
  for (std::size_t j = 0; j < shard.rows; ++j) {
    const double dist = qnorm + shard.sq_norms[j] - 2.0 * static_cast<double>(dots[j]);
    scratch[j] = dist < 0.0 ? 0.0 : dist;
  }
  const std::size_t keep = std::min(count, shard.rows);
  if (keep < shard.rows)
    std::nth_element(scratch.begin(), scratch.begin() + static_cast<std::ptrdiff_t>(keep),
                     scratch.end());
  merged.insert(merged.end(), scratch.begin(),
                scratch.begin() + static_cast<std::ptrdiff_t>(keep));
}

// k-th smallest (0-based) of the merged per-shard lists. Each shard kept at
// least min(k + 1, rows) values, so the union contains the global k + 1
// smallest and the selected value equals an unsharded nth_element.
double merged_kth(std::vector<double>& merged, std::size_t k) {
  // Exhaustive scans always merge at least k + 1 values; a pruned probe can
  // cover fewer rows than that, in which case the farthest covered
  // neighbour stands in (and an empty probe means "nowhere near": 1e300).
  if (merged.empty()) return 1e300;
  if (k >= merged.size()) k = merged.size() - 1;
  std::nth_element(merged.begin(), merged.begin() + static_cast<std::ptrdiff_t>(k),
                   merged.end());
  return merged[k];
}

}  // namespace

void OpenWorldDetector::require_calibrated(const char* what) const {
  if (!calibrated_)
    throw std::logic_error(std::string("OpenWorldDetector::") + what +
                           ": calibrate() must run first (an uncalibrated threshold would "
                           "accept every sample as monitored)");
}

void OpenWorldDetector::note_neighbour_clamp(std::size_t rows) const {
  if (!clamp_fired_.exchange(true))
    util::log_warn() << "OpenWorldDetector: reference set has " << rows
                     << " row(s), fewer than neighbour=" << config_.neighbour
                     << "; clamping to the farthest available neighbour "
                        "(metrics will report neighbour_clamped)";
}

double OpenWorldDetector::kth_distance(const ReferenceStore& references,
                                       std::span<const float> embedding) const {
  if (references.pruned()) {
    // IVF-style store: the batch schedule over a batch of one.
    nn::Matrix one(1, embedding.size());
    one.set_row(0, embedding);
    return kth_distances(references, one).front();
  }
  const std::size_t n = references.size();
  const std::size_t neighbour = static_cast<std::size_t>(std::max(1, config_.neighbour));
  if (n < neighbour) note_neighbour_clamp(n);
  if (n == 0) return 1e300;
  const std::size_t k = std::min(neighbour, n) - 1;
  const std::size_t n_shards = references.shard_count();
  const double qnorm = nn::squared_norm(embedding.data(), embedding.size());

  // Bound through a local reference so the pool lambda below captures the
  // caller's buffer (thread_local names resolve per executing thread).
  thread_local std::vector<double> merged_tls;
  std::vector<double>& merged = merged_tls;
  merged.clear();
  if (n_shards == 1) {
    const ShardView shard = references.shard_view(0);
    thread_local std::vector<float> dots;
    thread_local std::vector<double> dist_scratch;
    dots.resize(shard.rows);
    nn::gemm_nt_serial(embedding.data(), 1, shard.data, shard.rows, references.dim(),
                       dots.data());
    shard_smallest(shard, dots.data(), qnorm, k + 1, dist_scratch, merged);
    return std::sqrt(merged_kth(merged, k));
  }
  // Per-shard k-smallest lists in parallel over the pool, folded under a
  // mutex; the k-th order statistic is fold-order-independent.
  std::mutex fold_mutex;
  util::global_pool().parallel_for(0, n_shards, [&](std::size_t s) {
    const ShardView shard = references.shard_view(s);
    if (shard.rows == 0) return;
    thread_local std::vector<float> dots;
    thread_local std::vector<double> dist_scratch;
    thread_local std::vector<double> list;
    dots.resize(shard.rows);
    nn::gemm_nt_serial(embedding.data(), 1, shard.data, shard.rows, references.dim(),
                       dots.data());
    list.clear();
    shard_smallest(shard, dots.data(), qnorm, k + 1, dist_scratch, list);
    const std::scoped_lock lock(fold_mutex);
    merged.insert(merged.end(), list.begin(), list.end());
  });
  return std::sqrt(merged_kth(merged, k));
}

std::vector<double> OpenWorldDetector::kth_distances(const ReferenceStore& references,
                                                     const nn::Matrix& embeddings) const {
  const std::size_t m = embeddings.rows();
  const std::size_t n = references.size();
  std::vector<double> result(m, 1e300);
  if (m == 0) return result;
  const std::size_t neighbour = static_cast<std::size_t>(std::max(1, config_.neighbour));
  if (n < neighbour) note_neighbour_clamp(n);
  if (n == 0) return result;
  if (embeddings.cols() != references.dim())
    throw std::invalid_argument("OpenWorldDetector::kth_distances: width mismatch");
  const std::size_t dim = references.dim();
  const std::size_t n_shards = references.shard_count();
  const std::size_t k = std::min(neighbour, n) - 1;

  if (references.pruned()) {
    // Cell-major batch scan (core/probe_scan.hpp): each pair keeps its
    // cell's min(k + 1, rows) smallest distances, then each query's lists
    // are merged, in parallel over queries.
    const detail::CellPlan plan = detail::plan_cells(references, embeddings.data(), m, dim, 0, 1);
    std::vector<std::vector<double>> smallest(plan.groups());  // slots x kept, per group
    detail::scan_cells(references, plan, embeddings.data(), dim,
                       [&](std::size_t g, const ShardView& cell, const float* dots) {
                         thread_local std::vector<double> dist_scratch;
                         for (std::size_t i = 0; i < plan.group_size(g); ++i) {
                           const std::size_t q = plan.pair_query[plan.group_begin[g] + i];
                           shard_smallest(cell, dots + i * cell.rows, plan.qnorms[q], k + 1,
                                          dist_scratch, smallest[g]);
                         }
                       });
    util::global_pool().parallel_for(0, m, [&](std::size_t q) {
      thread_local std::vector<double> merged;
      merged.clear();
      for (const std::uint32_t p : plan.pairs_of(q)) {
        const std::size_t g = plan.pair_group[p];
        const std::size_t kept = smallest[g].size() / plan.group_size(g);
        const auto first = smallest[g].begin() + static_cast<std::ptrdiff_t>(plan.slot_of(p) * kept);
        merged.insert(merged.end(), first, first + static_cast<std::ptrdiff_t>(kept));
      }
      result[q] = std::sqrt(merged_kth(merged, k));
    });
    return result;
  }

  util::global_pool().parallel_blocks(0, m, kQueryBlock, [&](std::size_t lo, std::size_t hi) {
    thread_local std::vector<float> dots;
    thread_local std::vector<double> dist_scratch;
    // Per-query accumulators for the current tile, reused (capacity intact)
    // across tiles; query norms computed once per tile, not once per shard.
    std::vector<std::vector<double>> merged(kQueryBlock);
    std::vector<double> qnorms(kQueryBlock);
    for (std::size_t t0 = lo; t0 < hi; t0 += kQueryBlock) {
      const std::size_t t1 = std::min(hi, t0 + kQueryBlock);
      const std::size_t rows = t1 - t0;
      for (std::size_t q = 0; q < rows; ++q) {
        merged[q].clear();
        qnorms[q] = nn::squared_norm(embeddings.data() + (t0 + q) * dim, dim);
      }
      for (std::size_t s = 0; s < n_shards; ++s) {
        const ShardView shard = references.shard_view(s);
        if (shard.rows == 0) continue;
        dots.resize(rows * shard.rows);
        nn::gemm_nt_serial(embeddings.data() + t0 * dim, rows, shard.data, shard.rows, dim,
                           dots.data());
        for (std::size_t q = 0; q < rows; ++q)
          shard_smallest(shard, dots.data() + q * shard.rows, qnorms[q], k + 1, dist_scratch,
                         merged[q]);
      }
      for (std::size_t q = 0; q < rows; ++q)
        result[t0 + q] = std::sqrt(merged_kth(merged[q], k));
    }
  });
  return result;
}

void OpenWorldDetector::calibrate(const ReferenceStore& references,
                                  const nn::Matrix& monitored_samples) {
  if (monitored_samples.rows() == 0)
    throw std::invalid_argument("OpenWorldDetector::calibrate: no monitored samples");
  std::vector<double> distances = kth_distances(references, monitored_samples);
  std::sort(distances.begin(), distances.end());
  // Smallest threshold accepting at least target_tpr of the monitored set.
  // ceil(tpr * n) computed naively overshoots whenever the product rounds
  // just above an integer (0.07 * 100 = 7.0000000000000009 → ceil 8), which
  // silently raises the operating point and inflates FPR; the epsilon keeps
  // exactly-representable boundaries exact.
  const double tpr = std::clamp(config_.target_tpr, 0.0, 1.0);
  const std::size_t n = distances.size();
  std::size_t idx = static_cast<std::size_t>(
      std::ceil(tpr * static_cast<double>(n) - 1e-9));
  idx = std::clamp<std::size_t>(idx, 1, n);
  threshold_ = distances[idx - 1] * (1.0 + 1e-9);
  calibrated_ = true;
}

bool OpenWorldDetector::is_monitored(const ReferenceStore& references,
                                     std::span<const float> embedding) const {
  require_calibrated("is_monitored");
  return kth_distance(references, embedding) <= threshold_;
}

std::vector<PrPoint> OpenWorldDetector::precision_recall_sweep(
    const ReferenceStore& references, const nn::Matrix& monitored,
    const nn::Matrix& unmonitored, std::size_t max_points) const {
  std::vector<double> dm = kth_distances(references, monitored);
  std::vector<double> du = kth_distances(references, unmonitored);
  std::sort(dm.begin(), dm.end());
  std::sort(du.begin(), du.end());

  // Candidate thresholds: the union of both distance sets, subsampled
  // evenly — every achievable operating point lies on one of them.
  std::vector<double> candidates;
  candidates.reserve(dm.size() + du.size());
  candidates.insert(candidates.end(), dm.begin(), dm.end());
  candidates.insert(candidates.end(), du.begin(), du.end());
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
  if (candidates.empty()) return {};

  const std::size_t n_points = std::max<std::size_t>(1, std::min(max_points, candidates.size()));
  std::vector<PrPoint> points;
  points.reserve(n_points);
  for (std::size_t i = 0; i < n_points; ++i) {
    // Evenly spaced ranks, always including the largest candidate.
    const std::size_t rank =
        n_points == 1 ? candidates.size() - 1
                      : i * (candidates.size() - 1) / (n_points - 1);
    PrPoint p;
    p.threshold = candidates[rank];
    const auto tp = static_cast<std::size_t>(
        std::upper_bound(dm.begin(), dm.end(), p.threshold) - dm.begin());
    const auto fp = static_cast<std::size_t>(
        std::upper_bound(du.begin(), du.end(), p.threshold) - du.begin());
    if (!dm.empty()) p.recall = static_cast<double>(tp) / static_cast<double>(dm.size());
    if (!du.empty())
      p.false_positive_rate = static_cast<double>(fp) / static_cast<double>(du.size());
    if (tp + fp > 0) p.precision = static_cast<double>(tp) / static_cast<double>(tp + fp);
    points.push_back(p);
  }
  return points;
}

OpenWorldMetrics OpenWorldDetector::evaluate(const ReferenceStore& references,
                                             const nn::Matrix& monitored,
                                             const nn::Matrix& unmonitored) const {
  require_calibrated("evaluate");
  OpenWorldMetrics metrics;
  metrics.threshold = threshold_;
  std::size_t tp = 0, fp = 0;
  for (const double d : kth_distances(references, monitored))
    if (d <= threshold_) ++tp;
  for (const double d : kth_distances(references, unmonitored))
    if (d <= threshold_) ++fp;
  if (monitored.rows() > 0)
    metrics.true_positive_rate = static_cast<double>(tp) / static_cast<double>(monitored.rows());
  if (unmonitored.rows() > 0)
    metrics.false_positive_rate =
        static_cast<double>(fp) / static_cast<double>(unmonitored.rows());
  if (tp + fp > 0)
    metrics.precision = static_cast<double>(tp) / static_cast<double>(tp + fp);
  metrics.neighbour_clamped = clamp_fired_.load();
  return metrics;
}

}  // namespace wf::core
