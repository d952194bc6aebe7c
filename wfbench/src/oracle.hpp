#pragma once

// Reference answers computed apart from the program: float64 brute-force
// nearest neighbours straight off a store's rows, with none of the
// program's GEMM, heap, probe or merge code in between.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/knn.hpp"
#include "core/reference_store.hpp"
#include "nn/matrix.hpp"

namespace wfbench {

struct Neighbour {
  double dist = 0.0;  // squared L2, accumulated in float64
  std::uint64_t row_id = 0;
  int label = 0;
};

// The k + 1 nearest rows of every query over every row of `store` (all
// shards, no probing), sorted by (dist, row_id). The extra neighbour lets a
// caller see whether the k-th place is a near-tie. Runs on a few threads.
std::vector<std::vector<Neighbour>> exact_neighbours(const wf::core::ReferenceStore& store,
                                                     const wf::nn::Matrix& queries,
                                                     std::size_t k);

struct ClassVote {
  int label = 0;
  int votes = 0;
  double nearest = 0.0;  // distance of the class's nearest voting row
};

// The k-NN vote of the float64 neighbours, best first: most votes, then the
// nearest row, then the smaller label.
std::vector<ClassVote> class_votes(const std::vector<Neighbour>& neighbours, std::size_t k);

// Whether a top-1 disagreement can come from float rounding: the k-th and
// (k+1)-th neighbours, or the two leading classes' nearest rows, lie within
// `eps` of each other.
bool rounding_tie(const std::vector<Neighbour>& neighbours, std::size_t k, double eps);

// Row-level recall@10 of a one-slice scan of `store` (the rows the program
// would vote with) against the float64 exact 10 nearest rows.
double recall_at_10(const wf::core::KnnClassifier& knn, const wf::core::ReferenceStore& store,
                    const wf::nn::Matrix& embeddings);

bool same_rankings(const std::vector<std::vector<wf::core::RankedLabel>>& a,
                   const std::vector<std::vector<wf::core::RankedLabel>>& b);

}  // namespace wfbench
