// train_roi: Zoomer training on focal top-k ROIs (k = 10, 2 hops) over the
// Taobao stand-in, the paper's Fig. 12 efficiency path. The sampler, the
// model and autograd do all the work; no serving layer runs.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "checks.h"
#include "common/random.h"
#include "core/trainer.h"
#include "core/zoomer_model.h"
#include "data/taobao_generator.h"
#include "graph/graph_view.h"
#include "tensor/optimizer.h"
#include "tensor/tensor.h"
#include "workloads.h"

namespace e2ebench {
namespace {

using zoomer::graph::NodeId;

// Nominal training throughput used to size the training work to the run
// length (the run then takes longer or shorter as the program slows down
// or speeds up; the throughput metric is what moves).
constexpr double kNominalExamplesPerSecond = 180.0;
constexpr int kBatch = 128;
constexpr int kExamplesPerEpoch = 256;
// Set-up takes ~0.05 s, so many rounds are cheap and steady the median.
constexpr int kSetupRounds = 15;
constexpr int kTrainChunks = 4;

zoomer::data::TaobaoGeneratorOptions TrainDataOptions(uint64_t seed) {
  zoomer::data::TaobaoGeneratorOptions opt;
  opt.seed = seed;
  opt.p_click_in_category = 0.7;
  opt.p_interest_drift = 0.25;
  opt.max_user_interests = 5;
  opt.hard_negative_fraction = 0.25;
  opt.taste_tournament = 4;
  opt.num_users = 800;
  opt.num_queries = 800;
  opt.num_items = 1600;
  opt.num_sessions = 6000;
  opt.num_categories = 16;
  return opt;
}

zoomer::core::ZoomerConfig ModelConfig(uint64_t seed) {
  zoomer::core::ZoomerConfig zc;
  zc.hidden_dim = 16;
  zc.sampler.k = 10;
  zc.sampler.num_hops = 2;
  zc.sampler.kind = zoomer::core::SamplerKind::kFocalTopK;
  zc.seed = seed;
  return zc;
}

std::vector<float> FocalOf(const zoomer::graph::HeteroGraph& g, NodeId user,
                           NodeId query) {
  std::vector<float> fc(g.content_dim(), 0.0f);
  for (NodeId f : {user, query}) {
    for (int d = 0; d < g.content_dim(); ++d) fc[d] += g.content(f)[d];
  }
  return fc;
}

}  // namespace

void RunTrainRoi(const RunConfig& cfg, RunResult* result) {
  // ---- setup: kSetupRounds rounds, the last one's objects are used ----
  std::vector<double> setup_total, setup_gen;
  std::unique_ptr<zoomer::data::RetrievalDataset> ds;
  std::unique_ptr<zoomer::core::ZoomerModel> model;
  for (int round = 0; round < kSetupRounds; ++round) {
    model.reset();
    ds.reset();
    const int64_t t0 = NowNs();
    ds = std::make_unique<zoomer::data::RetrievalDataset>(
        zoomer::data::GenerateTaobaoDataset(TrainDataOptions(cfg.seed)));
    const int64_t t1 = NowNs();
    model = std::make_unique<zoomer::core::ZoomerModel>(&ds->graph, ModelConfig(cfg.seed));
    setup_total.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    setup_gen.push_back(static_cast<double>(t1 - t0) / 1e9);
  }
  ReportSetup(setup_total, setup_gen, result);
  const auto& g = ds->graph;
  Tracer::Get().Enable(cfg.trace);

  // ---- training, with held-out scoring and the user-query tower ----
  // Training runs in kTrainChunks calls to Train() on one trainer (each call
  // replays the same shuffled example order). Scoring and tower requests,
  // one at a time, are cut into slices before, between and after the
  // chunks, so their medians sample the whole run: the shared host's speed
  // drifts over tens of seconds, and one 5 s block of requests moved 32%
  // between quartiles of ten runs. ScoreLogit's cost does not depend on the
  // weights, so slices before training time the same work.
  const int chunk_epochs = std::max(
      1, static_cast<int>(std::lround(kNominalExamplesPerSecond * 0.7 * cfg.seconds /
                                      kExamplesPerEpoch / kTrainChunks)));
  zoomer::core::TrainOptions topt;
  topt.epochs = chunk_epochs;
  topt.batch_size = kBatch;
  topt.max_examples_per_epoch = kExamplesPerEpoch;
  topt.seed = cfg.seed;
  zoomer::core::ZoomerTrainer trainer(model.get(), topt);
  const size_t n_slice =
      std::max<size_t>(40, static_cast<size_t>(75.0 * cfg.seconds / (kTrainChunks + 1)));
  zoomer::Rng rng(cfg.seed + 17);
  Samples score_ms, tower_ms;
  auto& scores = result->Op("score_request");
  auto& towers = result->Op("tower_request");
  auto& steps = result->Op("training_step");
  size_t next_score = 0, next_tower = 0;
  auto eval_slice = [&] {
    for (size_t i = 0; i < n_slice; ++i, ++next_score) {
      const auto& ex = ds->test[next_score % ds->test.size()];
      scores.attempted.fetch_add(1);
      const int64_t t0 = NowNs();
      const float logit = model->ScoreLogit(ex, &rng).item();
      const int64_t t1 = NowNs();
      RecordSpan("model.score", t0, t1);
      score_ms.Add(static_cast<double>(t1 - t0) / 1e6);
      if (!std::isfinite(logit)) scores.failed.fetch_add(1);
    }
    for (size_t i = 0; i < n_slice; ++i, ++next_tower) {
      const auto& ex = ds->test[(next_tower * 13 + 5) % ds->test.size()];
      towers.attempted.fetch_add(1);
      const int64_t t0 = NowNs();
      const auto emb = model->UserQueryEmbeddingInference(ex.user, ex.query, &rng);
      const int64_t t1 = NowNs();
      RecordSpan("model.tower", t0, t1);
      tower_ms.Add(static_cast<double>(t1 - t0) / 1e6);
      bool finite = !emb.empty();
      for (float x : emb) finite &= std::isfinite(x);
      if (!finite) towers.failed.fetch_add(1);
    }
  };
  double wall_s = 0.0, sampler_s = 0.0, final_loss = 0.0;
  int64_t examples = 0;
  for (int c = 0; c < kTrainChunks; ++c) {
    eval_slice();
    const auto before = SnapshotGlobal();
    const int64_t f0 = NowNs();
    const auto train = trainer.Train(*ds);
    const int64_t f1 = NowNs();
    const auto after = SnapshotGlobal();
    RecordSpan("train.fit", f0, f1);
    wall_s += static_cast<double>(f1 - f0) / 1e9;
    sampler_s += RegistryDelta(before, after).HistSum("sampler.batch_latency_us") / 1e6;
    examples += train.examples_seen;
    steps.attempted.fetch_add(chunk_epochs * ((kExamplesPerEpoch + kBatch - 1) / kBatch));
    for (const auto& e : train.epochs) {
      if (!std::isfinite(e.mean_loss)) steps.failed.fetch_add(1);
      final_loss = e.mean_loss;
    }
  }
  eval_slice();
  const double examples_per_s = static_cast<double>(examples) / wall_s;
  result->SetE2E("rate_per_s", examples_per_s, "1/s");
  result->SetLayer("train.sampler_share", sampler_s / wall_s, "ratio");
  std::printf("training: %lld examples in %.2f s = %.1f examples/s (final epoch loss %.4f)\n",
              static_cast<long long>(examples), wall_s, examples_per_s, final_loss);
  result->SetE2E("p50_ms", score_ms.Percentile(50), "ms");
  result->SetLayer("request.aux_p50_ms", tower_ms.Percentile(50), "ms");
  result->SetLayer("request.p90_ms", score_ms.Percentile(90), "ms");
  result->SetLayer("request.p99_ms", score_ms.Percentile(99), "ms");
  result->SetLayer("request.aux_p90_ms", tower_ms.Percentile(90), "ms");
  result->SetLayer("request.aux_p99_ms", tower_ms.Percentile(99), "ms");
  std::printf("scoring: p50 %.3f ms p90 %.3f ms p99 %.3f ms; tower: p50 %.3f ms p90 %.3f ms "
              "p99 %.3f ms (%zu each)\n",
              score_ms.Percentile(50), score_ms.Percentile(90), score_ms.Percentile(99),
              tower_ms.Percentile(50), tower_ms.Percentile(90), tower_ms.Percentile(99),
              score_ms.size());

  // ---- per-layer probes (traced runs) ----
  const auto& sampler = model->sampler();
  zoomer::graph::CsrGraphView csr(&g);
  if (cfg.trace) {
    Samples roi_us, fwd_us, bwd_us;
    double roi_nodes = 0.0;
    for (int i = 0; i < 300; ++i) {
      const auto& ex = ds->test[(i * 7) % ds->test.size()];
      const auto fc = FocalOf(g, ex.user, ex.query);
      const NodeId egos[2] = {ex.user, ex.query};
      const int64_t t0 = NowNs();
      const auto rois = sampler.SampleBatch(csr, egos, fc, &rng);
      const int64_t t1 = NowNs();
      RecordSpan("sampler.roi", t0, t1);
      roi_us.Add(static_cast<double>(t1 - t0) / 1e3);
      for (const auto& r : rois) roi_nodes += r.size();
    }
    for (int i = 0; i < 64; ++i) {
      const auto& ex = ds->train[(i * 11) % ds->train.size()];
      const int64_t t0 = NowNs();
      auto logit = model->ScoreLogit(ex, &rng);
      auto loss = zoomer::tensor::BceWithLogits(logit, zoomer::tensor::Tensor::Scalar(ex.label));
      const int64_t t1 = NowNs();
      loss.Backward();
      const int64_t t2 = NowNs();
      RecordSpan("model.forward", t0, t1);
      RecordSpan("model.backward", t1, t2);
      fwd_us.Add(static_cast<double>(t1 - t0) / 1e3);
      bwd_us.Add(static_cast<double>(t2 - t1) / 1e3);
    }
    for (auto& p : model->Parameters()) p.ZeroGrad();
    result->SetLayer("graph.draw_ns.static",
                     DrawNs(csr, DrawProbeNodes(g.num_nodes(), 4096), 10, cfg.seed), "ns");
    result->SetLayer("sampler.roi_us.p50", roi_us.Percentile(50), "us");
    result->SetLayer("sampler.roi_nodes.mean", roi_nodes / 600.0, "count");
    result->SetLayer("model.forward_us.p50", fwd_us.Percentile(50), "us");
    result->SetLayer("model.backward_us.p50", bwd_us.Percentile(50), "us");
    PrintSpanTable(AnalyzeSpans(Tracer::Get().Collect()));
  }
  Tracer::Get().Enable(false);
  result->SetE2E("peak_rss_mib", PeakRssMib(), "MiB");

  // ---- checks ----
  int64_t bad_rois = 0;
  std::string first;
  for (int i = 0; i < 200; ++i) {
    const auto& ex = ds->test[(i * 29 + 3) % ds->test.size()];
    const auto fc = FocalOf(g, ex.user, ex.query);
    const NodeId egos[2] = {ex.user, ex.query};
    for (const auto& roi : sampler.SampleBatch(csr, egos, fc, &rng)) {
      const std::string why = CheckRoi(g, roi, fc, 10, 2);
      if (!why.empty() && bad_rois++ == 0) first = why;
    }
  }
  if (bad_rois > 0) {
    result->CheckFailed(std::to_string(bad_rois) + " of 400 ROIs failed: " + first);
  }
  // A few optimizer steps on one fixed minibatch must lower its loss.
  zoomer::core::ZoomerModel fresh(&g, ModelConfig(cfg.seed + 1));
  zoomer::tensor::Adam adam(fresh.Parameters(), 0.01f);
  std::vector<zoomer::data::Example> batch(ds->train.begin(), ds->train.begin() + 32);
  auto batch_loss = [&] {
    std::vector<float> logits, labels;
    for (const auto& ex : batch) {
      logits.push_back(fresh.ScoreLogit(ex, &rng).item());
      labels.push_back(ex.label);
    }
    return MeanBce(logits, labels);
  };
  const double loss0 = batch_loss();
  for (int step = 0; step < 5; ++step) {
    adam.ZeroGrad();
    for (const auto& ex : batch) {
      auto loss = zoomer::tensor::BceWithLogits(fresh.ScoreLogit(ex, &rng),
                                                zoomer::tensor::Tensor::Scalar(ex.label));
      zoomer::tensor::Scale(loss, 1.0f / batch.size()).Backward();
    }
    adam.Step();
  }
  const double loss1 = batch_loss();
  std::printf("fixed-minibatch loss over 5 Adam steps: %.5f -> %.5f\n", loss0, loss1);
  if (auto why = CheckLossDecreased(loss0, loss1); !why.empty()) result->CheckFailed(why);
}

}  // namespace e2ebench
