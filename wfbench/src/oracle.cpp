#include "oracle.hpp"

#include <algorithm>
#include <map>
#include <thread>

namespace wfbench {

std::vector<std::vector<Neighbour>> exact_neighbours(const wf::core::ReferenceStore& store,
                                                     const wf::nn::Matrix& queries,
                                                     std::size_t k) {
  const std::size_t dim = store.dim();
  const std::size_t keep = k + 1;
  std::vector<std::vector<Neighbour>> out(queries.rows());
  const auto worker = [&](std::size_t first, std::size_t step) {
    std::vector<Neighbour> best;
    for (std::size_t q = first; q < queries.rows(); q += step) {
      const std::span<const float> query = queries.row_span(q);
      best.clear();
      const auto worse = [](const Neighbour& a, const Neighbour& b) {
        return a.dist != b.dist ? a.dist < b.dist : a.row_id < b.row_id;
      };
      for (std::size_t s = 0; s < store.shard_count(); ++s) {
        const wf::core::ShardView shard = store.shard_view(s);
        for (std::size_t r = 0; r < shard.rows; ++r) {
          const float* row = shard.data + r * dim;
          double dist = 0.0;
          for (std::size_t d = 0; d < dim; ++d) {
            const double diff = static_cast<double>(query[d]) - static_cast<double>(row[d]);
            dist += diff * diff;
          }
          const Neighbour n{dist, shard.row_ids != nullptr ? shard.row_ids[r] : r,
                            store.label_of_id(static_cast<std::size_t>(shard.class_ids[r]))};
          if (best.size() < keep) {
            best.push_back(n);
            std::push_heap(best.begin(), best.end(), worse);
          } else if (worse(n, best.front())) {
            std::pop_heap(best.begin(), best.end(), worse);
            best.back() = n;
            std::push_heap(best.begin(), best.end(), worse);
          }
        }
      }
      std::sort(best.begin(), best.end(), worse);
      out[q] = best;
    }
  };
  const std::size_t n_threads = std::max<std::size_t>(
      1, std::min<std::size_t>(4, std::thread::hardware_concurrency()));
  std::vector<std::thread> threads;
  for (std::size_t t = 1; t < n_threads; ++t) threads.emplace_back(worker, t, n_threads);
  worker(0, n_threads);
  for (std::thread& t : threads) t.join();
  return out;
}

std::vector<ClassVote> class_votes(const std::vector<Neighbour>& neighbours, std::size_t k) {
  std::map<int, ClassVote> by_label;
  for (std::size_t i = 0; i < std::min(k, neighbours.size()); ++i) {
    // Neighbours come sorted, so a class's first row is its nearest.
    auto [it, fresh] = by_label.try_emplace(neighbours[i].label,
                                            ClassVote{neighbours[i].label, 0, neighbours[i].dist});
    ++it->second.votes;
  }
  std::vector<ClassVote> votes;
  for (const auto& [label, vote] : by_label) votes.push_back(vote);
  std::sort(votes.begin(), votes.end(), [](const ClassVote& a, const ClassVote& b) {
    if (a.votes != b.votes) return a.votes > b.votes;
    if (a.nearest != b.nearest) return a.nearest < b.nearest;
    return a.label < b.label;
  });
  return votes;
}

bool rounding_tie(const std::vector<Neighbour>& neighbours, std::size_t k, double eps) {
  if (neighbours.size() > k && neighbours[k].dist - neighbours[k - 1].dist <= eps) return true;
  const std::vector<ClassVote> votes = class_votes(neighbours, k);
  return votes.size() > 1 && votes[0].votes == votes[1].votes &&
         votes[1].nearest - votes[0].nearest <= eps;
}

double recall_at_10(const wf::core::KnnClassifier& knn, const wf::core::ReferenceStore& store,
                    const wf::nn::Matrix& embeddings) {
  const std::vector<std::vector<Neighbour>> exact = exact_neighbours(store, embeddings, 10);
  const wf::core::SliceScan scan = knn.scan_slice(store, embeddings, 0, 1);
  double recall = 0.0;
  for (std::size_t q = 0; q < embeddings.rows(); ++q) {
    std::vector<wf::core::Candidate> scanned = scan.candidates[q];
    std::sort(scanned.begin(), scanned.end());
    scanned.resize(std::min<std::size_t>(10, scanned.size()));
    std::size_t found = 0;
    for (std::size_t e = 0; e < std::min<std::size_t>(10, exact[q].size()); ++e)
      for (const wf::core::Candidate& c : scanned)
        found += (c.second >> wf::core::kCandidateClassBits) == exact[q][e].row_id;
    recall += static_cast<double>(found) / 10.0;
  }
  return embeddings.rows() == 0 ? 0.0 : recall / static_cast<double>(embeddings.rows());
}

bool same_rankings(const std::vector<std::vector<wf::core::RankedLabel>>& a,
                   const std::vector<std::vector<wf::core::RankedLabel>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t q = 0; q < a.size(); ++q) {
    if (a[q].size() != b[q].size()) return false;
    for (std::size_t i = 0; i < a[q].size(); ++i)
      if (a[q][i].label != b[q][i].label || a[q][i].votes != b[q][i].votes ||
          a[q][i].distance != b[q][i].distance)
        return false;
  }
  return true;
}

}  // namespace wfbench
