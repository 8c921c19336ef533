#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_set>

#include "graph/graph_view.h"
#include "streaming/graph_delta_log.h"

namespace e2ebench {

using zoomer::graph::NodeId;
using zoomer::graph::RelationKind;
using zoomer::serving::AnnResult;

namespace {
std::string Fmt(const char* fmt, double a = 0, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

int64_t Key(int64_t nbr, RelationKind kind) {
  return nbr * zoomer::graph::kNumRelationKinds + static_cast<int>(kind);
}

bool Near(double a, double b) {
  return std::fabs(a - b) <= 1e-4 * std::max(1.0, std::fabs(b));
}
}  // namespace

std::string CheckResponse(const std::vector<AnnResult>& items, int top_n,
                          const PoolMembership& pool) {
  if (static_cast<int>(items.size()) != top_n) {
    return Fmt("response holds %.0f items, want %.0f", items.size(), top_n);
  }
  std::unordered_set<int64_t> seen;
  for (size_t i = 0; i < items.size(); ++i) {
    const AnnResult& r = items[i];
    if (!pool.Contains(r.id)) return Fmt("item %.0f is not in the pool", r.id);
    if (!seen.insert(r.id).second) return Fmt("item %.0f repeated", r.id);
    if (!std::isfinite(r.score) || std::fabs(r.score) > 1.0001f) {
      return Fmt("score %.4f of item %.0f is not a cosine", r.score, r.id);
    }
    if (i > 0 && r.score > items[i - 1].score) {
      return Fmt("scores increase at rank %.0f (%.6f > %.6f)", i, r.score,
                 items[i - 1].score);
    }
  }
  return "";
}

void ItemVectors::Add(int64_t id, const float* v) {
  double n = 0.0;
  for (int j = 0; j < dim_; ++j) n += static_cast<double>(v[j]) * v[j];
  const double inv = n > 0.0 ? 1.0 / std::sqrt(n) : 0.0;
  ids_.push_back(id);
  for (int j = 0; j < dim_; ++j) data_.push_back(static_cast<float>(v[j] * inv));
}

std::vector<int64_t> ItemVectors::ExactTopK(const float* q, int k) const {
  double qn = 0.0;
  for (int j = 0; j < dim_; ++j) qn += static_cast<double>(q[j]) * q[j];
  const double qinv = qn > 0.0 ? 1.0 / std::sqrt(qn) : 0.0;
  std::vector<std::pair<double, int64_t>> scored(ids_.size());
  for (size_t i = 0; i < ids_.size(); ++i) {
    const float* row = data_.data() + i * dim_;
    double dot = 0.0;
    for (int j = 0; j < dim_; ++j) dot += static_cast<double>(row[j]) * q[j];
    scored[i] = {dot * qinv, ids_[i]};
  }
  const size_t take = std::min<size_t>(k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + take, scored.end(),
                    [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<int64_t> out;
  for (size_t i = 0; i < take; ++i) out.push_back(scored[i].second);
  return out;
}

double Recall(const std::vector<AnnResult>& got,
              const std::vector<int64_t>& exact) {
  if (exact.empty()) return 1.0;
  std::unordered_set<int64_t> want(exact.begin(), exact.end());
  int64_t hit = 0;
  for (const AnnResult& r : got) hit += want.erase(r.id);
  return static_cast<double>(hit) / static_cast<double>(exact.size());
}

std::string CheckAnnRecall(const zoomer::serving::AnnIndex& index,
                           const ItemVectors& items,
                           const std::vector<std::vector<float>>& queries,
                           int k, double floor, double* mean_recall) {
  double sum = 0.0;
  for (const auto& q : queries) {
    sum += Recall(index.Search(q.data(), k), items.ExactTopK(q.data(), k));
  }
  *mean_recall = queries.empty() ? 0.0 : sum / static_cast<double>(queries.size());
  if (*mean_recall < floor) {
    return Fmt("ANN recall@%.0f %.3f below the floor %.2f", k, *mean_recall,
               floor);
  }
  return "";
}

double Tanimoto(const float* a, const float* b, int dim) {
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (int i = 0; i < dim; ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  const double denom = na + nb - dot;
  return denom <= 1e-12 ? 0.0 : dot / denom;
}

std::string CheckRoi(const zoomer::graph::HeteroGraph& g,
                     const zoomer::core::RoiSubgraph& roi,
                     const std::vector<float>& fc, int k, int hops) {
  const auto& nodes = roi.nodes;
  if (nodes.empty()) return "empty ROI";
  if (nodes[0].depth != 0 || nodes[0].parent != -1) return "ROI root is not the ego";
  const int dim = g.content_dim();
  std::vector<int> nchild(nodes.size(), 0);
  for (size_t i = 1; i < nodes.size(); ++i) {
    const auto& c = nodes[i];
    if (c.parent < 0 || c.parent >= static_cast<int>(i)) {
      return Fmt("ROI node %.0f has parent index %.0f", i, c.parent);
    }
    const auto& p = nodes[c.parent];
    if (c.depth != p.depth + 1) return Fmt("ROI node %.0f depth %.0f", i, c.depth);
    if (c.depth > hops) return Fmt("ROI node %.0f deeper than %.0f hops", i, hops);
    if (++nchild[c.parent] > k) {
      return Fmt("ROI node %.0f has more than %.0f children", c.parent, k);
    }
    const auto ids = g.neighbor_ids(p.id);
    const auto kinds = g.neighbor_kinds(p.id);
    bool adjacent = false;
    for (size_t j = 0; j < ids.size(); ++j) {
      adjacent |= ids[j] == c.id && kinds[j] == c.kind;
    }
    if (!adjacent) {
      return Fmt("ROI child %.0f is not a CSR neighbor of %.0f", c.id, p.id);
    }
  }
  if (roi.size() >= 4096) return "";  // sampler budget guard truncated it
  // Focal top-k: for each expanded node, its children are the k most
  // relevant neighbors (the node's own parent excluded).
  for (size_t pi = 0; pi < nodes.size(); ++pi) {
    const auto& p = nodes[pi];
    if (p.depth >= hops) continue;
    const NodeId grand = p.parent >= 0 ? nodes[p.parent].id : -1;
    const auto ids = g.neighbor_ids(p.id);
    const auto kinds = g.neighbor_kinds(p.id);
    std::map<int64_t, int> chosen;  // (id, kind) key -> multiplicity
    double min_chosen = 1e300;
    for (size_t i = 1; i < nodes.size(); ++i) {
      if (nodes[i].parent != static_cast<int>(pi)) continue;
      ++chosen[Key(nodes[i].id, nodes[i].kind)];
      const double s = Tanimoto(fc.data(), g.content(nodes[i].id), dim);
      if (!Near(nodes[i].relevance, s)) {
        return Fmt("ROI child %.0f relevance %.6f, recomputed %.6f",
                   nodes[i].id, nodes[i].relevance, s);
      }
      min_chosen = std::min(min_chosen, s);
    }
    int64_t candidates = 0;
    double max_unchosen = -1e300;
    for (size_t j = 0; j < ids.size(); ++j) {
      if (ids[j] == grand) continue;
      ++candidates;
      auto it = chosen.find(Key(ids[j], kinds[j]));
      if (it != chosen.end() && it->second > 0) {
        --it->second;
        continue;
      }
      max_unchosen =
          std::max(max_unchosen, Tanimoto(fc.data(), g.content(ids[j]), dim));
    }
    const int64_t want = std::min<int64_t>(k, candidates);
    if (nchild[pi] != want) {
      return Fmt("ROI node %.0f has %.0f children, want %.0f", p.id, nchild[pi],
                 want);
    }
    if (nchild[pi] > 0 && max_unchosen > min_chosen + 1e-9) {
      return Fmt("ROI node %.0f skipped a neighbor of relevance %.6f above a "
                 "chosen %.6f",
                 p.id, max_unchosen, min_chosen);
    }
  }
  return "";
}

void EdgeOracle::AddEdge(int64_t src, int64_t dst, RelationKind kind,
                         float weight) {
  delta_[src][Key(dst, kind)] += weight;
  delta_[dst][Key(src, kind)] += weight;
  ++events_;
}

EdgeOracle::Row EdgeOracle::Expected(int64_t node) const {
  std::unordered_map<int64_t, double> acc;
  if (node < base_->num_nodes()) {
    const auto ids = base_->neighbor_ids(node);
    const auto ws = base_->neighbor_weights(node);
    const auto ks = base_->neighbor_kinds(node);
    for (size_t j = 0; j < ids.size(); ++j) acc[Key(ids[j], ks[j])] += ws[j];
  }
  if (auto it = delta_.find(node); it != delta_.end()) {
    for (const auto& [key, w] : it->second) acc[key] += w;
  }
  Row row(acc.begin(), acc.end());
  std::sort(row.begin(), row.end());
  return row;
}

std::vector<int64_t> EdgeOracle::NeighborIds(int64_t node) const {
  std::vector<int64_t> ids;
  for (const auto& [key, w] : Expected(node)) {
    ids.push_back(key / zoomer::graph::kNumRelationKinds);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

std::string EdgeOracle::Compare(const zoomer::streaming::DynamicHeteroGraph& g,
                                int64_t num_nodes) const {
  auto snap = g.MakeSnapshot();
  std::vector<zoomer::graph::NeighborEntry> got;
  int64_t bad = 0;
  std::string first;
  for (int64_t v = 0; v < num_nodes; ++v) {
    got.clear();
    snap.Neighbors(v, &got);
    std::unordered_map<int64_t, double> acc;
    for (const auto& e : got) acc[Key(e.neighbor, e.kind)] += e.weight;
    Row actual(acc.begin(), acc.end());
    std::sort(actual.begin(), actual.end());
    const Row want = Expected(v);
    std::string why;
    if (actual.size() != want.size()) {
      why = Fmt("node %.0f degree %.0f, oracle %.0f", v, actual.size(),
                want.size());
    } else {
      double wa = 0.0, ww = 0.0;
      for (size_t i = 0; i < want.size() && why.empty(); ++i) {
        wa += actual[i].second;
        ww += want[i].second;
        if (actual[i].first != want[i].first) {
          why = Fmt("node %.0f neighbor set differs at %.0f", v,
                    want[i].first / zoomer::graph::kNumRelationKinds);
        } else if (!Near(actual[i].second, want[i].second)) {
          why = Fmt("node %.0f weight %.6f, oracle %.6f", v, actual[i].second,
                    want[i].second) +
                Fmt(" towards %.0f (kind %.0f)",
                    want[i].first / zoomer::graph::kNumRelationKinds,
                    want[i].first % zoomer::graph::kNumRelationKinds);
        }
      }
      if (why.empty() && !Near(wa, ww)) {
        why = Fmt("node %.0f weight sum %.6f, oracle %.6f", v, wa, ww);
      }
    }
    if (!why.empty() && bad++ == 0) first = why;
  }
  if (bad == 0) return "";
  return first + Fmt(" (%.0f of %.0f nodes differ)", bad, num_nodes);
}

double MeanBce(const std::vector<float>& logits,
               const std::vector<float>& labels) {
  double sum = 0.0;
  for (size_t i = 0; i < logits.size(); ++i) {
    const double z = logits[i], y = labels[i];
    sum += std::max(z, 0.0) - z * y + std::log1p(std::exp(-std::fabs(z)));
  }
  return logits.empty() ? 0.0 : sum / static_cast<double>(logits.size());
}

std::string CheckLossDecreased(double before, double after) {
  if (!(after < before)) {
    return Fmt("minibatch loss did not fall: %.6f -> %.6f", before, after);
  }
  return "";
}

// ------------------------------------------------------------ self-test ---

namespace {

/// Tiny hand-made graph: ego 0 (query) with six item neighbors whose
/// content leans towards or away from the focal direction, and a second
/// hop under item 1.
zoomer::graph::HeteroGraph TinyGraph() {
  using zoomer::graph::NodeType;
  zoomer::graph::HeteroGraphBuilder b(4);
  b.AddNode(NodeType::kQuery, {1, 0, 0, 0}, {1});
  const float lean[6] = {0.9f, 0.7f, 0.5f, 0.3f, 0.1f, -0.2f};
  for (float x : lean) b.AddNode(NodeType::kItem, {1, x, 0, 0}, {2});
  b.AddNode(NodeType::kUser, {0.5f, 0.5f, 0, 0}, {3});
  for (NodeId v = 1; v <= 6; ++v) {
    (void)b.AddEdge(0, v, RelationKind::kClick, 1.0f);
  }
  (void)b.AddEdge(1, 2, RelationKind::kSession, 2.0f);
  (void)b.AddEdge(1, 3, RelationKind::kSession, 1.0f);
  (void)b.AddEdge(7, 0, RelationKind::kClick, 1.0f);
  return b.Build();
}

}  // namespace

std::vector<std::string> RunSelfTest() {
  std::vector<std::string> missed;
  auto expect_reject = [&missed](const std::string& verdict,
                                 const char* what) {
    if (verdict.empty()) missed.push_back(what);
  };
  auto expect_accept = [&missed](const std::string& verdict,
                                 const char* what) {
    if (!verdict.empty()) missed.push_back(std::string(what) + ": " + verdict);
  };

  // Responses.
  PoolMembership pool(16);
  for (int64_t id = 1; id <= 6; ++id) pool.Add(id);
  const std::vector<AnnResult> good = {{1, 0.9f}, {2, 0.8f}, {3, 0.8f}};
  expect_accept(CheckResponse(good, 3, pool), "response: valid list");
  auto dup = good;
  dup[2].id = 1;
  expect_reject(CheckResponse(dup, 3, pool), "response: repeated item");
  auto rising = good;
  rising[2].score = 0.95f;
  expect_reject(CheckResponse(rising, 3, pool), "response: rising scores");
  auto outside = good;
  outside[1].id = 9;
  expect_reject(CheckResponse(outside, 3, pool), "response: item not in pool");
  expect_reject(CheckResponse({good[0], good[1]}, 3, pool),
                "response: short list");

  // ANN recall.
  ItemVectors items(2);
  zoomer::serving::AnnIndexOptions aopt;
  aopt.nlist = 1;
  aopt.nprobe = 1;
  zoomer::serving::AnnIndex index(aopt);
  std::vector<float> vecs;
  std::vector<int64_t> ids;
  for (int i = 0; i < 8; ++i) {
    const float v[2] = {std::cos(0.2f * i), std::sin(0.2f * i)};
    items.Add(100 + i, v);
    vecs.insert(vecs.end(), v, v + 2);
    ids.push_back(100 + i);
  }
  (void)index.Build(vecs, 8, 2, ids);
  const std::vector<std::vector<float>> queries = {{1.0f, 0.1f}, {0.5f, 0.9f}};
  double recall = 0.0;
  expect_accept(CheckAnnRecall(index, items, queries, 3, 0.99, &recall),
                "recall: exact index");
  const auto exact = items.ExactTopK(queries[0].data(), 3);
  const std::vector<AnnResult> wrong = {{105, 0.f}, {106, 0.f}, {107, 0.f}};
  if (Recall(wrong, exact) >= 0.5) missed.push_back("recall: wrong ids");

  // ROI.
  const auto g = TinyGraph();
  zoomer::core::RoiSamplerOptions sopt;
  sopt.k = 3;
  sopt.num_hops = 2;
  zoomer::core::RoiSampler sampler(sopt);
  std::vector<float> fc(4, 0.0f);
  for (NodeId f : {NodeId{7}, NodeId{0}}) {
    for (int d = 0; d < 4; ++d) fc[d] += g.content(f)[d];
  }
  zoomer::Rng rng(5);
  const auto roi = sampler.Sample(g, 0, fc, &rng);
  expect_accept(CheckRoi(g, roi, fc, 3, 2), "roi: sampled tree");
  auto not_adjacent = roi;
  not_adjacent.nodes.back().id = 7 == not_adjacent.nodes.back().id ? 5 : 7;
  not_adjacent.nodes.back().kind = RelationKind::kSimilarity;
  expect_reject(CheckRoi(g, not_adjacent, fc, 3, 2), "roi: non-neighbor child");
  auto too_many = roi;
  too_many.nodes.push_back(roi.nodes[1]);
  expect_reject(CheckRoi(g, too_many, fc, 3, 2), "roi: more than k children");
  expect_reject(CheckRoi(g, roi, fc, 3, 1), "roi: deeper than the hop count");
  auto worse_pick = roi;
  for (auto& n : worse_pick.nodes) {
    if (n.depth == 1) {
      n.id = 6;  // the ego's least relevant neighbor
      n.kind = RelationKind::kClick;
      n.relevance = Tanimoto(fc.data(), g.content(6), 4);
      break;
    }
  }
  expect_reject(CheckRoi(g, worse_pick, fc, 3, 2), "roi: not the focal top-k");

  // Edge multiset against a live dynamic graph.
  zoomer::streaming::DynamicHeteroGraph dyn(&g);
  zoomer::streaming::GraphDeltaLog log(1);
  zoomer::streaming::DeltaBatch batch;
  batch.events = {{2, 5, RelationKind::kSession, 1.0f, 0},
                  {0, 1, RelationKind::kClick, 1.0f, 0}};
  batch.epoch = log.Append(0, batch.events,
                           [&dyn](uint64_t e) { dyn.NoteEpochIssued(e); });
  if (!dyn.ApplyBatch(batch).ok()) missed.push_back("oracle: apply failed");
  EdgeOracle oracle(&g);
  oracle.AddEdge(2, 5, RelationKind::kSession, 1.0f);
  oracle.AddEdge(0, 1, RelationKind::kClick, 1.0f);
  expect_accept(oracle.Compare(dyn, g.num_nodes()), "oracle: same edges");
  EdgeOracle extra = oracle;
  extra.AddEdge(3, 4, RelationKind::kSession, 1.0f);
  expect_reject(extra.Compare(dyn, g.num_nodes()), "oracle: missing edge");
  EdgeOracle heavier = oracle;
  heavier.AddEdge(0, 1, RelationKind::kClick, 0.5f);
  expect_reject(heavier.Compare(dyn, g.num_nodes()), "oracle: wrong weight");

  // Training.
  expect_accept(CheckLossDecreased(0.7, 0.6), "training: falling loss");
  expect_reject(CheckLossDecreased(0.7, 0.7), "training: flat loss");
  if (!(std::fabs(MeanBce({0.0f}, {1.0f}) - std::log(2.0)) < 1e-9)) {
    missed.push_back("training: BCE of logit 0 is not ln 2");
  }
  return missed;
}

}  // namespace e2ebench
