// serve_static and serve_live: the paper's Fig. 9 serving path (warmed
// neighbor cache -> edge-attention aggregation -> IVF ANN top-N) driven by
// the open-loop generator, over a static graph and under live ingest.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include "checks.h"
#include "common/random.h"
#include "data/session_stream.h"
#include "data/taobao_generator.h"
#include "engine/distributed_graph_engine.h"
#include "graph/graph_view.h"
#include "loadgen.h"
#include "maintenance/checkpoint_policy.h"
#include "maintenance/compaction_policy.h"
#include "maintenance/hot_node_cache.h"
#include "maintenance/maintenance_scheduler.h"
#include "persist/checkpoint.h"
#include "persist/wal.h"
#include "serving/online_server.h"
#include "streaming/dynamic_graph_view.h"
#include "streaming/dynamic_hetero_graph.h"
#include "streaming/graph_delta_log.h"
#include "streaming/ingest_pipeline.h"
#include "workloads.h"

namespace e2ebench {
namespace {

namespace fs = std::filesystem;
using zoomer::Rng;
using zoomer::graph::NodeId;
using zoomer::graph::RelationKind;
using zoomer::serving::OnlineServer;
using zoomer::serving::ServingRequest;

// Graph scale: the 8x Taobao stand-in (25.6k nodes, 12.8k items), where one
// request costs ~0.1 ms and ANN search is a large share of it.
constexpr int kScale = 8;
constexpr int kDim = 32;
constexpr int kTopN = 100;
constexpr int kRequestPool = 4000;
constexpr int kSetupRounds = 5;  // setup_s is the median round
// Offered rates (requests/s). A request costs ~0.12-0.2 ms, so the handler
// saturates near 5000/s. The nominal rate is a moderate load: at low rates
// handler wake-up, not the serving path, dominates the median.
constexpr double kStaticNominalRate = 1000.0;
constexpr double kStaticHighRate = 2000.0;
// End-to-end latencies are medians. On a shared VM whose vCPUs lose 1-5% of
// their time to the hypervisor in gaps of up to ~18 ms, p90 and p99 measure
// those gaps rather than the program: across runs of one commit they moved
// 60-300%. Tails are kept as per-layer diagnostics (request.*).
// Capacity is the median throughput of saturated slices (a fixed batch
// served back to back). An offered-rate ladder with a latency limit put the
// knee 27% apart between quartiles of ten runs: host stalls decide where a
// latency limit is first crossed.
constexpr double kCapacityRequestsPerSecond = 6000.0;  // sizes the slices
constexpr int kCapacitySlices = 5;
// Generator p99 lateness limit. Lateness already counts in every latency
// (requests are timed from their due time); past this limit the offered
// load is no longer the nominal one and the run is refused.
constexpr double kLatenessLimitMs = 20.0;
// The live mix. Plain requests replay the held-out log's example rows. The
// Taobao stand-in writes 1 + negatives_per_positive (= 4) rows per click and
// 1-4 clicks (mean 2.5) per session, so its log holds ~10 request rows per
// session (the run prints the measured figure). The write stream keeps that
// proportion: one live session per 10 requests.
constexpr double kLiveRate = 1000.0;
constexpr double kRequestRowsPerSession = 10.0;
constexpr double kSessionRate = kLiveRate / kRequestRowsPerSession;
// One cold-start item per 20 sessions: the proportion of the synthesizers'
// defaults (LiveSessionOptions: 1000 sessions, ColdStartOptions: 50 items).
constexpr int kMintEvery = 20;
// Every 5th live request is session-pinned. This share is an assumption:
// neither the paper nor the data gives a read-your-writes share. The README
// compares the per-layer figures at a second mix.
constexpr int kPinnedEvery = 5;
// Saturation work: sessions per second of the saturation phase's nominal
// length (~5 edge events each; the pipeline applies ~90k events/s here).
constexpr double kSaturationSessionsPerSecond = 15000.0;
constexpr int kSaturationBursts = 9;
constexpr int kShards = 2;
constexpr int kReplicas = 2;
constexpr int kIngestBatch = 64;
constexpr int kCheckEvery = 8;            // validate every 8th response
// IVF with 8 of 32 lists probed; ~0.73 recall@100 on this data.
constexpr double kRecallFloor = 0.6;

zoomer::data::TaobaoGeneratorOptions ServeDataOptions(uint64_t seed) {
  zoomer::data::TaobaoGeneratorOptions opt;
  opt.seed = seed;
  opt.p_click_in_category = 0.7;
  opt.p_interest_drift = 0.25;
  opt.max_user_interests = 5;
  opt.hard_negative_fraction = 0.25;
  opt.taste_tournament = 4;
  opt.num_users = 800 * kScale;
  opt.num_queries = 800 * kScale;
  opt.num_items = 1600 * kScale;
  opt.num_sessions = 6000 * kScale;
  opt.num_categories = 16;
  return opt;
}

/// Trained-model export stand-in: content vectors plus small noise (the
/// latency path does not depend on embedding quality).
std::vector<float> ExportRow(const float* content, int content_dim, Rng* rng) {
  std::vector<float> row(kDim, 0.0f);
  for (int j = 0; j < kDim && j < content_dim; ++j) {
    row[j] = content[j] + 0.1f * static_cast<float>(rng->Normal());
  }
  return row;
}

struct ServeData {
  zoomer::data::RetrievalDataset ds;
  std::vector<float> node_emb;  // num_nodes x kDim
  std::vector<ServingRequest> requests;
  std::vector<NodeId> warm;
  double generate_s = 0.0;
};

std::unique_ptr<ServeData> MakeServeData(uint64_t seed) {
  auto data = std::make_unique<ServeData>();
  const int64_t t0 = NowNs();
  data->ds = zoomer::data::GenerateTaobaoDataset(ServeDataOptions(seed));
  data->generate_s = static_cast<double>(NowNs() - t0) / 1e9;
  const auto& g = data->ds.graph;
  Rng rng(seed * 31 + 55);
  data->node_emb.resize(g.num_nodes() * kDim);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto row = ExportRow(g.content(v), g.content_dim(), &rng);
    std::copy(row.begin(), row.end(), data->node_emb.begin() + v * kDim);
  }
  for (size_t i = 0; i < data->ds.test.size() &&
                     data->requests.size() < static_cast<size_t>(kRequestPool);
       ++i) {
    data->requests.push_back({data->ds.test[i].user, data->ds.test[i].query});
    data->warm.push_back(data->ds.test[i].user);
    data->warm.push_back(data->ds.test[i].query);
  }
  return data;
}

std::unique_ptr<OnlineServer> MakeServer(const ServeData& data) {
  zoomer::serving::OnlineServerOptions opt;
  opt.embedding_dim = kDim;
  opt.top_n = kTopN;
  opt.cache.k = 30;
  opt.ann.nlist = 32;
  opt.ann.nprobe = 8;
  const auto& items = data.ds.all_items;
  std::vector<float> item_emb(items.size() * kDim);
  for (size_t i = 0; i < items.size(); ++i) {
    std::copy(data.node_emb.begin() + items[i] * kDim,
              data.node_emb.begin() + (items[i] + 1) * kDim,
              item_emb.begin() + static_cast<int64_t>(i) * kDim);
  }
  return std::make_unique<OnlineServer>(&data.ds.graph, opt, data.node_emb,
                                        items, item_emb);
}

/// The benchmark's own copy of the indexed vectors and candidate pool.
void CopyItems(const ServeData& data, ItemVectors* vecs, PoolMembership* pool) {
  for (NodeId id : data.ds.all_items) {
    vecs->Add(id, data.node_emb.data() + id * kDim);
    pool->Add(id);
  }
}

std::vector<std::vector<float>> RecallQueries(const ServeData& data, int n) {
  std::vector<std::vector<float>> qs;
  for (int i = 0; i < n && i < static_cast<int>(data.requests.size()); ++i) {
    const auto& r = data.requests[i * 7 % data.requests.size()];
    std::vector<float> q(kDim);
    for (int j = 0; j < kDim; ++j) {
      q[j] = data.node_emb[r.user * kDim + j] + data.node_emb[r.query * kDim + j];
    }
    qs.push_back(std::move(q));
  }
  return qs;
}

/// Latencies of one phase, per request kind, in completion order. Each
/// field is written by one handler thread only (serve_live's pinned
/// requests have their own) and read after Handler::WaitIdle().
struct Recorder {
  Samples plain;
  Samples pinned;
  Samples queue_wait;  // plain requests, microseconds
};

/// Runs requests on the handler thread: Handle (plain or session-pinned),
/// latency from the due time, spans, and sampled response checks.
class RequestRunner {
 public:
  RequestRunner(OnlineServer* server, const std::vector<ServingRequest>* pool,
                const PoolMembership* items, RunResult* result)
      : server_(server),
        pool_(pool),
        items_(items),
        result_(result),
        plain_op_(&result->Op("plain_request")),
        pinned_op_(&result->Op("pinned_request")) {}

  void set_recorder(Recorder* r) { recorder_.store(r, std::memory_order_release); }

  void Handle(const Job& job, int64_t start_ns) {
    Recorder* rec = recorder_.load(std::memory_order_acquire);
    const bool pinned = job.kind == 1;
    ServingRequest req;
    zoomer::serving::SessionToken token;
    if (pinned) {
      req = {job.payload[0], job.payload[1]};
      token.Observe(static_cast<uint64_t>(job.payload[2]));
    } else {
      req = (*pool_)[job.payload[0]];
    }
    (pinned ? pinned_op_ : plain_op_)->attempted.fetch_add(1, std::memory_order_relaxed);
    const auto resp = server_->Handle(req, token);
    const int64_t end = NowNs();
    const double ms = static_cast<double>(end - job.due_ns) / 1e6;
    if (pinned) {
      rec->pinned.Add(ms);
    } else {
      rec->plain.Add(ms);
      rec->queue_wait.Add(static_cast<double>(start_ns - job.enqueue_ns) / 1e3);
    }
    if (job.span_id != 0) {
      RecordSpan("loadgen.queue_wait", job.enqueue_ns, start_ns, job.span_id,
                 job.span_id);
      RecordSpan(pinned ? "serving.handle_pinned" : "serving.handle", start_ns,
                 end, job.span_id, job.span_id);
      RecordSpan("request", job.due_ns, end, 0, job.span_id, job.span_id);
    }
    if (job.index % kCheckEvery == 0) {
      const std::string why = CheckResponse(resp.items, kTopN, *items_);
      if (!why.empty() && bad_responses_.fetch_add(1) == 0) {
        result_->CheckFailed("serving response: " + why);
      }
    }
  }

  int64_t bad_responses() const { return bad_responses_.load(); }

 private:
  OnlineServer* server_;
  const std::vector<ServingRequest>* pool_;
  const PoolMembership* items_;
  RunResult* result_;
  OpCount* plain_op_;
  OpCount* pinned_op_;
  std::atomic<Recorder*> recorder_{nullptr};
  std::atomic<int64_t> bad_responses_{0};
};

/// Plain request i of a phase: a fixed pseudo-random walk over the pool.
void FillPlain(int64_t i, uint64_t salt, size_t pool_size, Job* job) {
  job->kind = 0;
  job->payload[0] = static_cast<int64_t>(
      (static_cast<uint64_t>(i) * 2654435761ull + salt) % pool_size);
  if (Tracer::Get().enabled()) job->span_id = Tracer::Get().NewId();
}

void CheckLateness(const PhaseStats& phase, const char* name,
                   RunResult* result) {
  const double p99 = phase.lateness_ms.Percentile(99);
  if (p99 > kLatenessLimitMs) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "generator p99 lateness %.3f ms in phase %s exceeds %.1f ms",
                  p99, name, kLatenessLimitMs);
    result->PreconditionFailed(buf);
  }
}

/// The generator is the dispatcher, one handler and `extra` threads
/// (serve_live: the pinned-request handler and the session producer); it
/// may not use more threads than nproc. Plain requests have one handler,
/// because on a shared 4-vCPU machine the throughput of two handlers varied
/// +-14% between back-to-back runs against +-3% for one.
void CheckThreadBudget(const RunConfig& cfg, int extra, RunResult* result) {
  const int total = 2 + extra;
  if (total > cfg.nproc) {
    result->PreconditionFailed("load generator needs " + std::to_string(total) +
                               " threads but nproc is " +
                               std::to_string(cfg.nproc));
  }
}

/// Serving-layer metrics from the registry over one phase.
/// The unattributed remainder compares like with like: the handle,
/// embed and search histograms all cover every Handle() of the phase.
void ReportServingLayer(const RegistryDelta& d, RunResult* result) {
  const double handle_mean_us = d.HistMean("serving.request_latency_us");
  const double embed = d.HistMean("serving.embed_latency_us");
  const double search = d.HistMean("serving.ann_search_latency_us");
  result->SetLayer("serving.embed_us.mean", embed, "us");
  result->SetLayer("serving.ann_search_us.mean", search, "us");
  result->SetLayer("serving.ann_insert_us.mean",
                   d.HistMean("serving.ann_insert_latency_us"), "us");
  result->SetLayer("serving.unattributed_us.mean",
                   handle_mean_us - embed - search, "us");
  result->SetLayer("cache.fills", d.Counter("serving.neighbor_cache.completed_fills"),
                   "count");
  result->SetLayer("cache.fill_us.p50",
                   d.HistPercentile("serving.neighbor_cache.fill_latency_us", 50),
                   "us");
  result->SetLayer("cache.invalidations",
                   d.Counter("serving.neighbor_cache.invalidations"), "count");
  const double hits = d.Counter("serving.neighbor_cache.hits");
  const double misses = d.Counter("serving.neighbor_cache.misses");
  result->SetLayer("cache.hit_ratio",
                   hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
}

/// Span-derived serving metrics (traced runs; zeros otherwise).
void ReportServingSpans(const std::vector<SpanStats>& spans, RunResult* result) {
  const SpanStats qw = FindSpan(spans, "loadgen.queue_wait");
  const SpanStats h = FindSpan(spans, "serving.handle");
  result->SetLayer("serving.queue_wait_us.p50", qw.p50_us, "us");
  result->SetLayer("serving.queue_wait_us.p99", qw.p99_us, "us");
  result->SetLayer("serving.handle_us.p50", h.p50_us, "us");
  result->SetLayer("serving.handle_us.p99", h.p99_us, "us");
}

// ============================================================ serve_static

void PrintLatency(const char* phase, double rate, const LatencySummary& s) {
  std::printf("%-8s %6.0f req/s: p50 %.4f ms  p90 %.4f ms  p99 %.4f ms  (%zu requests)\n",
              phase, rate, s.p50, s.p90, s.p99, s.count);
}

/// The tails of the two latencies a workload reports, as diagnostics.
void ReportTails(const LatencySummary& main, const LatencySummary& aux,
                 RunResult* result) {
  result->SetLayer("request.p90_ms", main.p90, "ms");
  result->SetLayer("request.p99_ms", main.p99, "ms");
  result->SetLayer("request.aux_p90_ms", aux.p90, "ms");
  result->SetLayer("request.aux_p99_ms", aux.p99, "ms");
}

}  // namespace

void RunServeStatic(const RunConfig& cfg, RunResult* result) {
  CheckThreadBudget(cfg, 0, result);
  if (!result->precondition_failures().empty()) return;

  // ---- setup: kSetupRounds rounds, the last one's objects are used ----
  std::vector<double> setup_total, setup_gen;
  std::unique_ptr<ServeData> data;
  std::unique_ptr<OnlineServer> server;
  for (int round = 0; round < kSetupRounds; ++round) {
    server.reset();
    data.reset();
    const int64_t t0 = NowNs();
    data = MakeServeData(cfg.seed);
    server = MakeServer(*data);
    server->WarmCache(data->warm);
    setup_total.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    setup_gen.push_back(data->generate_s);
  }
  ReportSetup(setup_total, setup_gen, result);

  ItemVectors item_copy(kDim);
  PoolMembership pool(data->ds.graph.num_nodes());
  CopyItems(*data, &item_copy, &pool);
  RequestRunner runner(server.get(), &data->requests, &pool, result);
  Handler handler([&](const Job& j, int64_t s) { runner.Handle(j, s); });
  TightenTimerSlack();
  const size_t npool = data->requests.size();

  // ---- nominal rate: p50/p99, per-layer registry deltas and spans ----
  const double t_nominal = 0.35 * cfg.seconds;
  const double t_high = 0.2 * cfg.seconds;
  const double t_capacity = cfg.seconds - t_nominal - t_high;
  Recorder nominal, high;
  runner.set_recorder(&nominal);
  Tracer::Get().Enable(cfg.trace);
  const auto before = SnapshotGlobal();
  auto phase = RunPhase(&handler, kStaticNominalRate, t_nominal,
                        [&](int64_t i, Job* j) { FillPlain(i, cfg.seed, npool, j); });
  handler.WaitIdle();
  const auto after = SnapshotGlobal();
  Tracer::Get().Enable(false);
  CheckLateness(phase, "nominal", result);
  const auto lat = Summarize(nominal.plain, 5);

  // ---- 2x nominal rate ----
  runner.set_recorder(&high);
  auto phase_high = RunPhase(&handler, kStaticHighRate, t_high,
                             [&](int64_t i, Job* j) { FillPlain(i, cfg.seed + 1, npool, j); });
  handler.WaitIdle();
  CheckLateness(phase_high, "high", result);
  const auto lat_high = Summarize(high.plain, 5);
  const Samples& qw_high = high.queue_wait;

  // ---- capacity: saturated slices, median throughput ----
  // Each slice submits a fixed batch at once and times until the handler
  // has served it all.
  Recorder saturated;
  runner.set_recorder(&saturated);
  const int64_t slice_requests =
      static_cast<int64_t>(kCapacityRequestsPerSecond * t_capacity / kCapacitySlices);
  std::vector<double> slice_rates;
  for (int s = 0; s < kCapacitySlices; ++s) {
    const int64_t t0 = NowNs();
    for (int64_t i = 0; i < slice_requests; ++i) {
      Job job;
      job.index = i;
      FillPlain(i, cfg.seed + 2 + s, npool, &job);
      job.span_id = 0;
      job.due_ns = job.enqueue_ns = NowNs();
      handler.Submit(job);
    }
    handler.WaitIdle();
    slice_rates.push_back(static_cast<double>(slice_requests) /
                          (static_cast<double>(NowNs() - t0) / 1e9));
  }
  const double capacity = Median(slice_rates);
  runner.set_recorder(nullptr);

  PrintLatency("nominal", kStaticNominalRate, lat);
  PrintLatency("high", kStaticHighRate, lat_high);
  std::printf("capacity (saturated, median of %d slices):", kCapacitySlices);
  for (double r : slice_rates) std::printf(" %.0f", r);
  std::printf(" -> %.0f req/s\n", capacity);

  result->SetE2E("p50_ms", lat.p50, "ms");
  result->SetLayer("request.aux_p50_ms", lat_high.p50, "ms");
  result->SetE2E("rate_per_s", capacity, "1/s");
  ReportTails(lat, lat_high, result);

  // ---- per-layer ----
  const RegistryDelta d(before, after);
  const auto spans = Tracer::Get().Collect();
  const auto stats = AnalyzeSpans(spans);
  ReportServingLayer(d, result);
  ReportServingSpans(stats, result);
  result->SetLayer("serving.queue_wait_us.p99_high", qw_high.Percentile(99), "us");
  result->SetLayer("loadgen.lateness_us.p99",
                   phase.lateness_ms.Percentile(99) * 1e3, "us");
  if (cfg.trace) {
    zoomer::graph::CsrGraphView csr(&data->ds.graph);
    result->SetLayer("graph.draw_ns.static",
                     DrawNs(csr, DrawProbeNodes(data->ds.graph.num_nodes(), 4096), 10,
                            cfg.seed),
                     "ns");
    PrintSpanTable(stats);
  }

  result->SetE2E("peak_rss_mib", PeakRssMib(), "MiB");

  // ---- checks ----
  double recall = 0.0;
  const std::string why = CheckAnnRecall(server->index(), item_copy,
                                         RecallQueries(*data, 64), kTopN,
                                         kRecallFloor, &recall);
  std::printf("ANN recall@%d vs brute force: %.3f (floor %.2f)\n", kTopN, recall,
              kRecallFloor);
  if (!why.empty()) result->CheckFailed(why);
}

// ============================================================== serve_live

namespace {

struct Ev {
  NodeId src, dst;
  RelationKind kind;
};

/// A session's edge events, derived here from the documented wiring:
/// user-query and query-item click edges, session edges between adjacent
/// distinct clicks.
std::vector<Ev> SessionEdges(const zoomer::graph::SessionRecord& s) {
  std::vector<Ev> out;
  if (s.user >= 0 && s.query >= 0) out.push_back({s.user, s.query, RelationKind::kClick});
  for (size_t i = 0; i < s.clicks.size(); ++i) {
    if (s.query >= 0 && s.clicks[i] >= 0) {
      out.push_back({s.query, s.clicks[i], RelationKind::kClick});
    }
    if (i + 1 < s.clicks.size() && s.clicks[i] != s.clicks[i + 1]) {
      out.push_back({s.clicks[i], s.clicks[i + 1], RelationKind::kSession});
    }
  }
  return out;
}

/// Offer -> applied-on-primary visibility, from the pipeline's update
/// listener. Each shard applies its queue in FIFO batches, and a listener
/// call carries the batch's distinct touched nodes, so a batch is matched
/// to the longest prefix (at most one batch) of some shard's pending events
/// whose endpoints cover exactly those nodes.
class VisibilityTracker {
 public:
  VisibilityTracker(int shards, int batch_size, int64_t base_nodes)
      : mirror_(shards), batch_size_(batch_size), base_nodes_(base_nodes) {}

  /// Producer, before Offer().
  void Expect(const std::vector<Ev>& evs, NodeId user, NodeId query,
              bool measure) {
    std::lock_guard<std::mutex> lock(mu_);
    const int64_t id = next_session_++;
    sessions_[id] = {NowNs(), static_cast<int>(evs.size()), 0, user, query, measure};
    for (const Ev& e : evs) {
      mirror_[zoomer::engine::GraphShard::NodeShard(e.src, mirror_.size())]
          .push_back({e.src, e.dst, id});
    }
  }

  /// Pipeline update listener (shard consumer threads).
  void OnBatch(uint64_t epoch, const std::vector<NodeId>& touched) {
    for (NodeId n : touched) {
      if (n >= base_nodes_) return;  // a node-mint batch, not a session's
    }
    auto in = [&touched](NodeId n) {
      return std::binary_search(touched.begin(), touched.end(), n);
    };
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    // Prefer a shard whose matched prefix covers the touched set exactly;
    // otherwise take the longest prefix inside it (an earlier batch was
    // matched one event too long and already took this batch's head).
    int exact = -1, longest = -1;
    size_t exact_n = 0, longest_n = 0;
    for (size_t s = 0; s < mirror_.size(); ++s) {
      const auto& q = mirror_[s];
      size_t n = 0;
      std::vector<NodeId> cover;
      while (n < q.size() && n < static_cast<size_t>(batch_size_) &&
             in(q[n].src) && in(q[n].dst)) {
        cover.push_back(q[n].src);
        cover.push_back(q[n].dst);
        ++n;
      }
      if (n == 0) continue;
      std::sort(cover.begin(), cover.end());
      cover.erase(std::unique(cover.begin(), cover.end()), cover.end());
      if (cover == touched && exact < 0) {
        exact = static_cast<int>(s);
        exact_n = n;
      } else if (n > longest_n) {
        longest = static_cast<int>(s);
        longest_n = n;
      }
    }
    if (exact < 0) {
      ++unmatched_;
      if (longest < 0) return;
      exact = longest;
      exact_n = longest_n;
    }
    auto& q = mirror_[exact];
    for (size_t i = 0; i < exact_n; ++i) {
      auto it = sessions_.find(q.front().session);
      q.pop_front();
      Session& s = it->second;
      s.epoch = std::max(s.epoch, epoch);
      if (--s.remaining == 0) {
        if (s.measure) visible_ms_.Add(static_cast<double>(now - s.offer_ns) / 1e6);
        recent_[recent_pos_++ % recent_.size()] = {s.user, s.query, s.epoch};
        sessions_.erase(it);
      }
    }
  }

  /// The most recently visible session, for a read-your-writes request.
  bool Latest(NodeId* user, NodeId* query, uint64_t* epoch) {
    std::lock_guard<std::mutex> lock(mu_);
    if (recent_pos_ == 0) return false;
    const Recent& r = recent_[(recent_pos_ - 1) % recent_.size()];
    *user = r.user;
    *query = r.query;
    *epoch = r.epoch;
    return true;
  }

  int64_t pending_events() {
    std::lock_guard<std::mutex> lock(mu_);
    int64_t n = 0;
    for (const auto& q : mirror_) n += static_cast<int64_t>(q.size());
    return n;
  }
  int64_t unmatched() {
    std::lock_guard<std::mutex> lock(mu_);
    return unmatched_;
  }
  Samples visible_ms() {
    std::lock_guard<std::mutex> lock(mu_);
    return visible_ms_;
  }

 private:
  struct Session {
    int64_t offer_ns;
    int remaining;
    uint64_t epoch;
    NodeId user, query;
    bool measure;
  };
  struct Pending {
    NodeId src, dst;
    int64_t session;
  };
  struct Recent {
    NodeId user = -1, query = -1;
    uint64_t epoch = 0;
  };
  std::mutex mu_;
  std::vector<std::deque<Pending>> mirror_;
  std::unordered_map<int64_t, Session> sessions_;
  int64_t next_session_ = 0;
  Samples visible_ms_;
  int64_t unmatched_ = 0;
  std::vector<Recent> recent_ = std::vector<Recent>(64);
  size_t recent_pos_ = 0;
  const int batch_size_;
  const int64_t base_nodes_;
};

/// The full write path wired around one server: primary graph, delta log
/// with WAL tee, checkpoints, a 2-shard x 2-replica engine, the ingest
/// pipeline and the janitor (folds, checkpoints, hot-node refresh).
struct LiveStack {
  std::string dir;
  zoomer::streaming::DynamicHeteroGraphOptions graph_options;
  std::unique_ptr<zoomer::streaming::DynamicHeteroGraph> primary;
  std::unique_ptr<zoomer::streaming::GraphDeltaLog> log;
  std::unique_ptr<zoomer::persist::DeltaLogPersister> persister;
  std::unique_ptr<zoomer::persist::CheckpointWriter> writer;
  std::unique_ptr<zoomer::engine::DistributedGraphEngine> engine;
  std::unique_ptr<zoomer::maintenance::HotNodeOverlayCache> hot;
  std::unique_ptr<zoomer::streaming::IngestPipeline> pipe;
  std::unique_ptr<zoomer::maintenance::MaintenanceScheduler> janitor;
  zoomer::maintenance::CompactionPolicy* compaction = nullptr;
  zoomer::maintenance::CheckpointPolicy* checkpoints = nullptr;
  OnlineServer* server = nullptr;
  std::unique_ptr<VisibilityTracker> tracker;

  /// Stops the janitor and the pipeline (idempotent).
  void StopWriters() {
    if (janitor) janitor->Stop();
    if (pipe) pipe->Stop();
  }

  ~LiveStack() {
    StopWriters();
    janitor.reset();
    pipe.reset();
    engine.reset();
    if (persister) (void)persister->Stop();
    if (primary && hot) primary->DetachHotNodeCache(hot.get());
    hot.reset();
    writer.reset();
    persister.reset();
    log.reset();
    primary.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

std::unique_ptr<LiveStack> BuildLive(const ServeData& data, OnlineServer* server,
                                     const std::string& dir, int64_t node_capacity,
                                     RunResult* result) {
  auto st = std::make_unique<LiveStack>();
  st->dir = dir;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  const auto& g = data.ds.graph;
  st->primary = std::make_unique<zoomer::streaming::DynamicHeteroGraph>(&g, st->graph_options);
  st->log = std::make_unique<zoomer::streaming::GraphDeltaLog>(kShards);
  zoomer::persist::DeltaLogPersisterOptions popt;
  popt.fsync_every_batches = 32;  // group commit; fsyncs here take 1-5 ms
  st->persister = std::make_unique<zoomer::persist::DeltaLogPersister>(st->log.get(), dir, popt);
  if (auto s = st->persister->Start(0); !s.ok()) {
    result->PreconditionFailed("WAL start: " + s.ToString());
  }
  zoomer::persist::CheckpointWriterOptions copt;
  copt.wal_shards = kShards;
  st->writer = std::make_unique<zoomer::persist::CheckpointWriter>(st->primary.get(), dir, copt);
  zoomer::engine::EngineOptions eopt;
  eopt.num_shards = kShards;
  eopt.replication_factor = kReplicas;
  st->engine = std::make_unique<zoomer::engine::DistributedGraphEngine>(&g, eopt);
  st->engine->ConnectUpdateFanout(st->log.get(), st->primary.get());
  st->hot = std::make_unique<zoomer::maintenance::HotNodeOverlayCache>(node_capacity);
  st->primary->AttachHotNodeCache(st->hot.get());
  server->AttachDynamicGraph(st->primary.get());
  server->AttachEngine(st->engine.get());
  st->server = server;
  st->tracker = std::make_unique<VisibilityTracker>(kShards, kIngestBatch, g.num_nodes());

  zoomer::streaming::IngestOptions iopt;
  iopt.num_shards = kShards;
  iopt.batch_size = kIngestBatch;
  st->pipe = std::make_unique<zoomer::streaming::IngestPipeline>(
      st->log.get(), st->primary.get(), iopt, st->engine.get());
  VisibilityTracker* tracker = st->tracker.get();
  st->pipe->AddUpdateListener([server, tracker](uint64_t epoch, const std::vector<NodeId>& nodes) {
    server->OnGraphUpdate(epoch, nodes);
    tracker->OnBatch(epoch, nodes);
  });

  st->janitor = std::make_unique<zoomer::maintenance::MaintenanceScheduler>();
  zoomer::maintenance::CompactionPolicyOptions fold;
  // Incremental folds only: a segment folds once its overlay passes the
  // budget. The global full-fold trigger (max_delta_entries) is off; under
  // write saturation it fired every janitor tick and each full fold parked
  // ingestion for ~0.3 s.
  fold.segment_entry_budget = 512;
  fold.max_delta_entries = 0;
  auto compaction = std::make_unique<zoomer::maintenance::CompactionPolicy>(
      st->primary.get(), st->log.get(), nullptr, fold);
  st->compaction = compaction.get();
  st->janitor->AddPolicy(std::move(compaction), {100, 0.2});
  auto ckpt = std::make_unique<zoomer::maintenance::CheckpointPolicy>(
      st->primary.get(), st->writer.get(), st->persister.get());
  st->checkpoints = ckpt.get();
  st->janitor->AddPolicy(std::move(ckpt), {2000, 0.2});
  st->janitor->AddPolicy(std::make_unique<zoomer::maintenance::HotNodeRefreshPolicy>(
                             st->primary.get(), st->hot.get()),
                         {200, 0.2});
  server->AttachMaintenance(st->janitor.get());
  st->pipe->Start();
  st->janitor->Start();
  return st;
}

/// Tears a live setup down writers first, then the server (its cache
/// refresher reads the primary), then the rest of the stack.
void TeardownLive(std::unique_ptr<LiveStack>* stack,
                  std::unique_ptr<OnlineServer>* server) {
  if (*stack) (*stack)->StopWriters();
  server->reset();
  stack->reset();
}

}  // namespace

void RunServeLive(const RunConfig& cfg, RunResult* result) {
  CheckThreadBudget(cfg, 2, result);
  if (!result->precondition_failures().empty()) return;
  const std::string dir_prefix =
      cfg.out_dir + "/live-" + std::to_string(static_cast<long>(getpid()));

  // ---- setup: kSetupRounds rounds, the last one's objects are used ----
  std::vector<double> setup_total, setup_gen;
  std::unique_ptr<ServeData> data;
  std::unique_ptr<OnlineServer> server;
  std::unique_ptr<LiveStack> stack;
  std::vector<zoomer::data::ColdStartArrival> arrivals;
  zoomer::graph::SessionLog sessions;
  for (int round = 0; round < kSetupRounds; ++round) {
    TeardownLive(&stack, &server);
    data.reset();
    const int64_t t0 = NowNs();
    data = MakeServeData(cfg.seed);
    zoomer::data::LiveSessionOptions lopt;
    lopt.num_sessions = 20000;
    lopt.seed = cfg.seed + 7;
    sessions = zoomer::data::SynthesizeLiveSessions(data->ds, lopt);
    zoomer::data::ColdStartOptions copt;
    copt.num_new_items = 400;
    copt.seed = cfg.seed + 13;
    arrivals = zoomer::data::SynthesizeColdStartArrivals(data->ds, copt);
    server = MakeServer(*data);
    const int64_t capacity = data->ds.graph.num_nodes() +
                             static_cast<int64_t>(arrivals.size()) + 16;
    stack = BuildLive(*data, server.get(), dir_prefix + "-" + std::to_string(round),
                      capacity, result);
    server->WarmCache(data->warm);
    setup_total.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    setup_gen.push_back(data->generate_s);
  }
  ReportSetup(setup_total, setup_gen, result);
  if (!result->precondition_failures().empty()) return;
  {
    const size_t logged = data->ds.log.size();
    const size_t held_out =
        logged - static_cast<size_t>(static_cast<double>(logged) *
                                     ServeDataOptions(cfg.seed).train_fraction);
    std::printf("held-out log: %.2f request rows per session (the live mix uses %.0f)\n",
                static_cast<double>(data->ds.test.size()) / static_cast<double>(held_out),
                kRequestRowsPerSession);
  }

  const auto& g = data->ds.graph;
  const int64_t capacity = g.num_nodes() + static_cast<int64_t>(arrivals.size()) + 16;
  ItemVectors item_copy(kDim);
  PoolMembership pool(capacity);
  CopyItems(*data, &item_copy, &pool);
  EdgeOracle oracle(&g);
  RequestRunner runner(server.get(), &data->requests, &pool, result);
  Handler handler([&](const Job& j, int64_t s) { runner.Handle(j, s); });
  // Session-pinned requests wait for a replica to reach the session's
  // epoch (the engine's freshness wait, up to 5 ms). On the plain handler
  // they held up the plain requests queued behind them: with one busy
  // process beside the benchmark the plain median rose from ~0.3 ms to
  // 0.42-1.86 ms, and on a shared host it moved 14-33% between runs.
  Handler pinned_handler([&](const Job& j, int64_t s) { runner.Handle(j, s); });
  TightenTimerSlack();
  VisibilityTracker& tracker = *stack->tracker;
  const size_t npool = data->requests.size();

  const double t_live = 0.7 * cfg.seconds;
  const double t_sat = cfg.seconds - t_live;
  std::atomic<double> ingest_rate{0.0};       // events per CPU-second
  std::atomic<double> ingest_wall_rate{0.0};  // events per second
  std::atomic<double> live_cpu_rate{0.0};     // live phase, events per CPU-second
  int64_t max_lag = 0;
  size_t max_overlay = 0;
  Samples offer_us;
  Rng emb_rng(cfg.seed * 17 + 3);
  std::mutex item_mu;  // guards item_copy against the recall check
  // Times each pooled session was offered; folded into the oracle after
  // the run (an edge offered c times carries weight c).
  std::vector<int64_t> offered_times(sessions.size(), 0);

  // ---- producer: live sessions and cold-start items, then saturation ----
  const int64_t t_start = NowNs() + 2'000'000;
  std::thread producer([&] {
    TightenTimerSlack();
    auto& offers = result->Op("session_offer");
    auto& mints = result->Op("node_mint");
    size_t next = 0;
    size_t next_arrival = 0;
    int64_t next_sample = 0;
    auto sample_state = [&] {
      const int64_t now = NowNs();
      if (now < next_sample) return;
      next_sample = now + 100'000'000;  // every 100 ms
      const uint64_t wm = stack->primary->watermark_epoch();
      for (int s = 0; s < kShards; ++s) {
        for (int r = 0; r < kReplicas; ++r) {
          const uint64_t rw = stack->engine->ReplicaWatermark(s, r);
          max_lag = std::max<int64_t>(max_lag, wm > rw ? static_cast<int64_t>(wm - rw) : 0);
        }
      }
      max_overlay = std::max(max_overlay, stack->primary->OverlayMemoryBytes());
    };
    auto offer = [&](bool measure) {
      const size_t idx = next++ % sessions.size();
      const auto& s = sessions[idx];
      tracker.Expect(SessionEdges(s), s.user, s.query, measure);
      ++offered_times[idx];
      offers.attempted.fetch_add(1);
      const int64_t t0 = NowNs();
      const bool ok = stack->pipe->Offer(s);
      const int64_t t1 = NowNs();
      if (measure) offer_us.Add(static_cast<double>(t1 - t0) / 1e3);
      RecordSpan("streaming.offer", t0, t1);
      if (!ok) offers.failed.fetch_add(1);
    };
    auto mint = [&] {
      if (next_arrival >= arrivals.size()) return;
      const auto& a = arrivals[next_arrival++];
      mints.attempted.fetch_add(1);
      const int64_t t0 = NowNs();
      auto id = stack->pipe->OfferNewNode(a.item, a.edges);
      const int64_t t1 = NowNs();
      RecordSpan("streaming.mint", t0, t1);
      if (!id.ok()) {
        mints.failed.fetch_add(1);
        return;
      }
      const NodeId nid = id.value();
      for (const auto& e : a.edges) {
        oracle.AddEdge(e.src < 0 ? nid : e.src, e.dst < 0 ? nid : e.dst, e.kind, e.weight);
      }
      auto row = ExportRow(a.item.content.data(), g.content_dim(), &emb_rng);
      {
        std::lock_guard<std::mutex> lock(item_mu);
        item_copy.Add(nid, row.data());
      }
      pool.Add(nid);
      const int64_t t2 = NowNs();
      if (!server->IngestNode(nid, std::move(row), true).ok()) mints.failed.fetch_add(1);
      RecordSpan("serving.ingest_node", t2, NowNs());
    };
    // Live phase: sessions on a fixed schedule, one mint per kMintEvery.
    const int64_t live_end = t_start + static_cast<int64_t>(t_live * 1e9);
    const double live_cpu0 = ProcessCpuSeconds();
    const int64_t live_applied0 = stack->pipe->Stats().events_applied;
    for (int64_t j = 0;; ++j) {
      const int64_t due = t_start + static_cast<int64_t>(static_cast<double>(j) * 1e9 / kSessionRate);
      if (due >= live_end) break;
      const int64_t now = NowNs();
      if (due > now) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      offer(true);
      if (j % kMintEvery == kMintEvery - 1) mint();
      sample_state();
    }
    live_cpu_rate.store(
        static_cast<double>(stack->pipe->Stats().events_applied - live_applied0) /
        (ProcessCpuSeconds() - live_cpu0));
    // Saturation: one producer offers a fixed number of sessions as fast as
    // the bounded queues accept (fixed work, so memory does not depend on
    // how fast the run went).
    // The work is cut into bursts and the median burst rate is reported, as
    // edge events per CPU-second of the whole process: on the shared VM the
    // wall-clock rate of one burst moved 50k-190k events/s within a run (host
    // steal and 15 program threads on 4 vCPUs), the CPU-normalized rate
    // +-15%. The wall-clock rate is kept as a per-layer diagnostic.
    const int64_t burst_sessions =
        static_cast<int64_t>(kSaturationSessionsPerSecond * t_sat) / kSaturationBursts;
    std::vector<double> burst_rates, cpu_rates;
    for (int b = 0; b < kSaturationBursts; ++b) {
      const int64_t b0 = NowNs();
      const double c0 = ProcessCpuSeconds();
      const int64_t applied0 = stack->pipe->Stats().events_applied;
      for (int64_t k = 0; k < burst_sessions; ++k) {
        offer(false);
        sample_state();
      }
      // A write completes when the primary and every replica hold it.
      stack->pipe->Flush();
      for (int s = 0; s < kShards; ++s) {
        for (int r = 0; r < kReplicas; ++r) {
          stack->engine->AwaitReplicaCatchUp(s, r, 30'000'000);
        }
      }
      const int64_t applied1 = stack->pipe->Stats().events_applied;
      burst_rates.push_back(static_cast<double>(applied1 - applied0) /
                            (static_cast<double>(NowNs() - b0) / 1e9));
      cpu_rates.push_back(static_cast<double>(applied1 - applied0) /
                          (ProcessCpuSeconds() - c0));
    }
    std::printf("saturation bursts (events/s):");
    for (double r : burst_rates) std::printf(" %.0f", r);
    std::printf("\nsaturation bursts (events per CPU-second):");
    for (double r : cpu_rates) std::printf(" %.0f", r);
    std::printf("\n");
    ingest_wall_rate.store(Median(burst_rates));
    ingest_rate.store(Median(cpu_rates));
  });

  // ---- requests: plain + session-pinned at the nominal live rate ----
  Recorder live, sat;
  runner.set_recorder(&live);
  {
    const int64_t now = NowNs();
    if (t_start > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t_start - now));
  }
  Tracer::Get().Enable(cfg.trace);
  const auto before = SnapshotGlobal();
  const auto fill_live = [&](int64_t i, Job* j) {
    FillPlain(i, cfg.seed, npool, j);
    NodeId u, q;
    uint64_t e;
    if (i % kPinnedEvery == kPinnedEvery - 1 && tracker.Latest(&u, &q, &e)) {
      j->kind = 1;
      j->payload[0] = u;
      j->payload[1] = q;
      j->payload[2] = static_cast<int64_t>(e);
    }
  };
  auto phase = RunPhase(&handler, kLiveRate, t_live, fill_live, &pinned_handler);
  handler.WaitIdle();
  pinned_handler.WaitIdle();
  const auto after = SnapshotGlobal();
  Tracer::Get().Enable(false);
  CheckLateness(phase, "live", result);
  runner.set_recorder(&sat);
  auto phase_sat = RunPhase(&handler, kLiveRate, t_sat, fill_live, &pinned_handler);
  handler.WaitIdle();
  pinned_handler.WaitIdle();
  producer.join();
  runner.set_recorder(nullptr);
  const auto after_all = SnapshotGlobal();

  // ---- drain: every replica must catch up with the primary ----
  stack->pipe->Flush();
  for (int s = 0; s < kShards; ++s) {
    for (int r = 0; r < kReplicas; ++r) {
      if (!stack->engine->AwaitReplicaCatchUp(s, r, 30'000'000)) {
        result->PreconditionFailed("replica " + std::to_string(s) + "." +
                                   std::to_string(r) + " lag did not drain to 0");
      }
    }
  }
  // Peak memory of the program's stack, read before the checks build the
  // oracle's session edges and a recovered second graph.
  result->SetE2E("peak_rss_mib", PeakRssMib(), "MiB");

  const auto lat = Summarize(live.plain, 5);
  const auto pinned = Summarize(live.pinned, 5);
  const auto sat_lat = Summarize(sat.plain, 5);
  const Samples visible = tracker.visible_ms();
  PrintLatency("plain", kLiveRate * (kPinnedEvery - 1) / kPinnedEvery, lat);
  PrintLatency("pinned", kLiveRate / kPinnedEvery, pinned);
  PrintLatency("plain during saturation", kLiveRate, sat_lat);
  std::printf("live phase: %.0f edge events per CPU-second\n", live_cpu_rate.load());
  std::printf("saturation: ingest %.0f events per CPU-second (%.0f events/s)\n",
              ingest_rate.load(), ingest_wall_rate.load());
  std::printf("visibility offer->applied: p50 %.3f ms p90 %.3f ms p99 %.3f ms (%zu sessions)\n",
              visible.Percentile(50), visible.Percentile(90), visible.Percentile(99),
              visible.size());
  result->SetE2E("p50_ms", lat.p50, "ms");
  result->SetLayer("request.aux_p50_ms", pinned.p50, "ms");
  ReportTails(lat, pinned, result);
  result->SetE2E("rate_per_s", live_cpu_rate.load(), "1/s");
  result->SetLayer("streaming.ingest_cpu_events_per_s", ingest_rate.load(), "1/s");
  result->SetLayer("streaming.ingest_wall_events_per_s", ingest_wall_rate.load(), "1/s");
  std::printf("generator p99 lateness: live %.3f ms, saturation %.3f ms\n",
              phase.lateness_ms.Percentile(99), phase_sat.lateness_ms.Percentile(99));

  // ---- per-layer ----
  const RegistryDelta d(before, after);
  const RegistryDelta dall(before, after_all);
  const auto stats = AnalyzeSpans(Tracer::Get().Collect());
  ReportServingLayer(d, result);
  ReportServingSpans(stats, result);
  result->SetLayer("loadgen.lateness_us.p99", phase.lateness_ms.Percentile(99) * 1e3, "us");
  const auto es_final = stack->engine->Stats();
  result->SetLayer("engine.request_us.p50", d.HistPercentile("engine.request_latency_us", 50), "us");
  result->SetLayer("engine.request_us.p99", d.HistPercentile("engine.request_latency_us", 99), "us");
  result->SetLayer("engine.stale_fallback_reads", d.Counter("engine.stale_fallback_reads"), "count");
  result->SetLayer("engine.replica_lag_epochs.max", static_cast<double>(max_lag), "epochs");
  result->SetLayer("engine.sample_us.p50", d.HistPercentile("engine.sample_latency_us", 50), "us");
  result->SetLayer("engine.sample_batch_size.mean", d.HistMean("engine.sample_batch_size"), "count");
  result->SetLayer("streaming.offer_us.p99", offer_us.Percentile(99), "us");
  result->SetLayer("streaming.events_applied", dall.Counter("streaming.events_applied"), "count");
  result->SetLayer("streaming.batch_us.p50", d.HistPercentile("streaming.ingest_batch_latency_us", 50), "us");
  result->SetLayer("streaming.batch_us.p99", d.HistPercentile("streaming.ingest_batch_latency_us", 99), "us");
  result->SetLayer("streaming.node_mint_us.p50", d.HistPercentile("streaming.node_mint_latency_us", 50), "us");
  result->SetLayer("streaming.overlay_mib", static_cast<double>(max_overlay) / (1 << 20), "MiB");
  result->SetLayer("streaming.visible_ms.p50", visible.Percentile(50), "ms");
  result->SetLayer("streaming.visible_ms.p99", visible.Percentile(99), "ms");
  result->SetLayer("streaming.unmatched_batches", static_cast<double>(tracker.unmatched()), "count");
  result->SetLayer("streaming.unreported_events", static_cast<double>(tracker.pending_events()), "count");
  const int64_t folds = stack->compaction->compactions();
  const int64_t ckpts = stack->checkpoints->checkpoints();
  result->SetLayer("maintenance.folds", static_cast<double>(folds), "count");
  result->SetLayer("maintenance.fold_pause_us.p99", dall.HistPercentile("maintenance.fold_pause_us", 99), "us");
  const double hh = dall.Counter("maintenance.hot_cache.hits");
  const double hm = dall.Counter("maintenance.hot_cache.misses");
  result->SetLayer("maintenance.hot_cache.hit_ratio", hh + hm > 0 ? hh / (hh + hm) : 0.0, "ratio");
  result->SetLayer("persist.wal_fsync_us.p99", dall.HistPercentile("persist.wal_fsync_latency_us", 99), "us");
  result->SetLayer("persist.checkpoints", static_cast<double>(ckpts), "count");
  result->SetLayer("persist.checkpoint_us.p50", dall.HistPercentile("persist.checkpoint_latency_us", 50), "us");
  result->SetLayer("persist.checkpoint_mib", dall.HistMean("persist.checkpoint_bytes") / (1 << 20), "MiB");
  if (cfg.trace) {
    const auto nodes = DrawProbeNodes(g.num_nodes(), 4096);
    zoomer::graph::CsrGraphView csr(&g);
    zoomer::streaming::DynamicGraphView dyn(stack->primary.get());
    result->SetLayer("graph.draw_ns.static", DrawNs(csr, nodes, 10, cfg.seed), "ns");
    result->SetLayer("graph.draw_ns.dynamic", DrawNs(dyn, nodes, 10, cfg.seed), "ns");
    PrintSpanTable(stats);
  }
  std::printf("janitor: %lld folds, %lld checkpoints; engine stale-fallback reads %lld; "
              "max replica lag %lld epochs; primary overlay peak %.2f MiB\n",
              static_cast<long long>(folds), static_cast<long long>(ckpts),
              static_cast<long long>(es_final.stale_fallback_reads),
              static_cast<long long>(max_lag), static_cast<double>(max_overlay) / (1 << 20));

  // ---- preconditions ----
  if (folds == 0) result->PreconditionFailed("maintenance.folds = 0");
  if (ckpts == 0) result->PreconditionFailed("persist.checkpoints = 0");
  for (const auto& rs : es_final.replicas) {
    if (rs.watermark != es_final.primary_watermark) {
      result->PreconditionFailed("replica lag is not 0 at the end");
      break;
    }
  }

  // ---- checks ----
  for (size_t i = 0; i < sessions.size(); ++i) {
    if (offered_times[i] == 0) continue;
    for (const Ev& e : SessionEdges(sessions[i])) {
      oracle.AddEdge(e.src, e.dst, e.kind, static_cast<float>(offered_times[i]));
    }
  }
  // The final state is read at rest: a snapshot that spans a concurrent
  // fold reads the pre-fold base without the folded overlay entries (see
  // CHANGES.md), so the janitor and the pipeline stop first.
  stack->StopWriters();
  const int64_t n_alloc = stack->primary->num_nodes_allocated();
  if (auto why = oracle.Compare(*stack->primary, n_alloc); !why.empty()) {
    result->CheckFailed("primary vs edge oracle: " + why);
  }
  // Engine draws at the final watermark lie inside the oracle's neighbor sets.
  int64_t bad_draws = 0;
  for (int i = 0; i < 600; ++i) {
    const NodeId node = i < 100 && g.num_nodes() + i < n_alloc
                            ? g.num_nodes() + i
                            : static_cast<NodeId>((static_cast<uint64_t>(i) * 104729) % g.num_nodes());
    zoomer::engine::SampleRequest sr;
    sr.node = node;
    sr.k = 10;
    sr.rng_seed = cfg.seed + i;
    auto resp = stack->engine->Sample(sr);
    if (!resp.ok()) {
      ++bad_draws;
      continue;
    }
    const auto nbrs = oracle.NeighborIds(node);
    for (NodeId n : resp.value().neighbors) {
      if (!std::binary_search(nbrs.begin(), nbrs.end(), n)) {
        ++bad_draws;
        break;
      }
    }
  }
  if (bad_draws > 0) {
    result->CheckFailed(std::to_string(bad_draws) +
                        " engine draws fell outside the oracle's neighbor sets");
  }
  double recall = 0.0;
  std::string why;
  {
    std::lock_guard<std::mutex> lock(item_mu);
    why = CheckAnnRecall(server->index(), item_copy, RecallQueries(*data, 64), kTopN,
                         kRecallFloor, &recall);
  }
  std::printf("ANN recall@%d vs brute force: %.3f (floor %.2f)\n", kTopN, recall, kRecallFloor);
  if (!why.empty()) result->CheckFailed(why);

  // Recovery from the WAL/checkpoint directory must rebuild the same graph.
  if (auto s = stack->persister->Stop(); !s.ok()) result->CheckFailed("WAL stop: " + s.ToString());
  zoomer::persist::RecoverOptions ropt;
  ropt.graph_options = stack->graph_options;
  const int64_t r0 = NowNs();
  auto recovered = zoomer::persist::RecoverFrom(stack->dir, ropt);
  const double recover_ms = static_cast<double>(NowNs() - r0) / 1e6;
  result->SetLayer("persist.recover_ms", recover_ms, "ms");
  if (!recovered.ok()) {
    result->CheckFailed("RecoverFrom: " + recovered.status().ToString());
  } else if (auto w = oracle.Compare(*recovered.value().graph, n_alloc); !w.empty()) {
    result->CheckFailed("recovered graph vs edge oracle: " + w);
  }
  std::printf("recovery: %.1f ms; oracle holds %lld edge events\n", recover_ms,
              static_cast<long long>(oracle.events()));
  TeardownLive(&stack, &server);
}

}  // namespace e2ebench
