// Output checks made apart from the program: every expected value here is
// recomputed by the benchmark from its own inputs (its own copy of the item
// vectors, its own edge multiset, its own relevance arithmetic), or is a
// property the method must have. None compares against stored output.
// RunSelfTest() feeds each check a deliberately corrupted output and
// confirms it is rejected.
#ifndef E2EBENCH_CHECKS_H_
#define E2EBENCH_CHECKS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/roi_sampler.h"
#include "graph/hetero_graph.h"
#include "serving/ann_index.h"
#include "streaming/dynamic_hetero_graph.h"

namespace e2ebench {

/// Candidate-pool membership by node id, safe to grow (set) while handler
/// threads read it.
class PoolMembership {
 public:
  explicit PoolMembership(int64_t capacity) : in_(capacity) {}
  void Add(int64_t id) {
    if (id >= 0 && id < static_cast<int64_t>(in_.size())) {
      in_[id].store(1, std::memory_order_release);
    }
  }
  bool Contains(int64_t id) const {
    return id >= 0 && id < static_cast<int64_t>(in_.size()) &&
           in_[id].load(std::memory_order_acquire) != 0;
  }

 private:
  std::vector<std::atomic<uint8_t>> in_;
};

/// Serving response: exactly `top_n` distinct pool items with finite,
/// non-increasing cosine scores. Returns "" or the first violation.
std::string CheckResponse(const std::vector<zoomer::serving::AnnResult>& items,
                          int top_n, const PoolMembership& pool);

/// The benchmark's own copy of the indexed item vectors (L2-normalized),
/// for brute-force recall.
class ItemVectors {
 public:
  explicit ItemVectors(int dim) : dim_(dim) {}
  void Add(int64_t id, const float* v);
  /// Exact top-k ids by cosine against `q`.
  std::vector<int64_t> ExactTopK(const float* q, int k) const;

 private:
  int dim_;
  std::vector<int64_t> ids_;
  std::vector<float> data_;
};

/// |got ∩ exact| / |exact|.
double Recall(const std::vector<zoomer::serving::AnnResult>& got,
              const std::vector<int64_t>& exact);

/// Mean recall@k of index.Search over `queries`; "" if it reaches `floor`.
std::string CheckAnnRecall(const zoomer::serving::AnnIndex& index,
                           const ItemVectors& items,
                           const std::vector<std::vector<float>>& queries,
                           int k, double floor, double* mean_recall);

/// ROI tree over the CSR graph: every child is a CSR neighbor of its
/// parent, no node has more than k children, depth <= hops, and each
/// expanded node's children are the top-k of its neighbors (parent
/// excluded) by a Tanimoto relevance recomputed here from content vectors.
std::string CheckRoi(const zoomer::graph::HeteroGraph& g,
                     const zoomer::core::RoiSubgraph& roi,
                     const std::vector<float>& fc, int k, int hops);

/// Tanimoto (extended Jaccard) relevance, recomputed independently.
double Tanimoto(const float* a, const float* b, int dim);

/// The benchmark's own edge multiset: the base CSR plus every edge event it
/// offered. Compares coalesced neighborhoods, i.e. per node the distinct
/// (neighbor, kind) set (the degree the check uses), per-pair weight sums
/// and the node's total weight.
class EdgeOracle {
 public:
  explicit EdgeOracle(const zoomer::graph::HeteroGraph* base) : base_(base) {}
  /// One undirected edge event (two half-edges). Single writer.
  void AddEdge(int64_t src, int64_t dst, zoomer::graph::RelationKind kind,
               float weight);
  /// Compares every node id below `num_nodes` of `g` at its current
  /// snapshot; "" when all match.
  std::string Compare(const zoomer::streaming::DynamicHeteroGraph& g,
                      int64_t num_nodes) const;
  /// Distinct neighbor ids of `node` (sorted).
  std::vector<int64_t> NeighborIds(int64_t node) const;
  int64_t events() const { return events_; }

 private:
  using Row = std::vector<std::pair<int64_t, double>>;  // key -> weight
  Row Expected(int64_t node) const;
  const zoomer::graph::HeteroGraph* base_;
  std::unordered_map<int64_t, std::unordered_map<int64_t, double>> delta_;
  int64_t events_ = 0;
};

/// Mean binary cross-entropy of logits against labels, computed here.
double MeanBce(const std::vector<float>& logits,
               const std::vector<float>& labels);

/// Training check: the fixed minibatch's loss after the steps must be
/// below its loss before them.
std::string CheckLossDecreased(double before, double after);

/// Feeds every check above a valid and a deliberately corrupted output;
/// returns the list of checks that failed to tell them apart.
std::vector<std::string> RunSelfTest();

}  // namespace e2ebench

#endif  // E2EBENCH_CHECKS_H_
