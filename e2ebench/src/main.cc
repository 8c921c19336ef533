// End-to-end benchmark binary. Usage:
//   e2ebench --workload serve_static|serve_live|train_roi --seed N
//            --seconds S [--trace 0|1] [--out-dir DIR]
//   e2ebench --selftest
// Prints human-readable tables, then one line "RESULT {json}" holding the
// correctness verdict, operation counts, every end-to-end metric and every
// per-layer metric. Exits 3 without a RESULT line when a run precondition
// fails (no folds, no checkpoints, undrained replica lag, late generator,
// too many generator threads), 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_core.h"
#include "checks.h"
#include "workloads.h"

namespace e2ebench {

/// Every per-layer metric, with its unit. A workload that does not
/// exercise a layer reports it as measured: zero work.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"setup.generate_s", "s"},
    {"setup.build_s", "s"},
    {"loadgen.lateness_us.p99", "us"},
    {"request.p90_ms", "ms"},
    {"request.p99_ms", "ms"},
    {"request.aux_p50_ms", "ms"},
    {"request.aux_p90_ms", "ms"},
    {"request.aux_p99_ms", "ms"},
    {"serving.queue_wait_us.p50", "us"},
    {"serving.queue_wait_us.p99", "us"},
    {"serving.queue_wait_us.p99_high", "us"},
    {"serving.handle_us.p50", "us"},
    {"serving.handle_us.p99", "us"},
    {"serving.embed_us.mean", "us"},
    {"serving.ann_search_us.mean", "us"},
    {"serving.ann_insert_us.mean", "us"},
    {"serving.unattributed_us.mean", "us"},
    {"cache.hit_ratio", "ratio"},
    {"cache.fills", "count"},
    {"cache.fill_us.p50", "us"},
    {"cache.invalidations", "count"},
    {"engine.request_us.p50", "us"},
    {"engine.request_us.p99", "us"},
    {"engine.stale_fallback_reads", "count"},
    {"engine.replica_lag_epochs.max", "epochs"},
    {"engine.sample_us.p50", "us"},
    {"engine.sample_batch_size.mean", "count"},
    {"streaming.offer_us.p99", "us"},
    {"streaming.events_applied", "count"},
    {"streaming.ingest_cpu_events_per_s", "1/s"},
    {"streaming.ingest_wall_events_per_s", "1/s"},
    {"streaming.batch_us.p50", "us"},
    {"streaming.batch_us.p99", "us"},
    {"streaming.node_mint_us.p50", "us"},
    {"streaming.overlay_mib", "MiB"},
    {"streaming.visible_ms.p50", "ms"},
    {"streaming.visible_ms.p99", "ms"},
    {"streaming.unmatched_batches", "count"},
    {"streaming.unreported_events", "count"},
    {"maintenance.folds", "count"},
    {"maintenance.fold_pause_us.p99", "us"},
    {"maintenance.hot_cache.hit_ratio", "ratio"},
    {"persist.wal_fsync_us.p99", "us"},
    {"persist.checkpoints", "count"},
    {"persist.checkpoint_us.p50", "us"},
    {"persist.checkpoint_mib", "MiB"},
    {"persist.recover_ms", "ms"},
    {"graph.draw_ns.static", "ns"},
    {"graph.draw_ns.dynamic", "ns"},
    {"sampler.roi_us.p50", "us"},
    {"sampler.roi_nodes.mean", "count"},
    {"model.forward_us.p50", "us"},
    {"model.backward_us.p50", "us"},
    {"train.sampler_share", "ratio"},
};

SpanStats FindSpan(const std::vector<SpanStats>& stats, const char* name) {
  for (const auto& s : stats) {
    if (s.name == name) return s;
  }
  SpanStats none;
  none.name = name;
  return none;
}

void PrintSpanTable(const std::vector<SpanStats>& stats) {
  std::printf("\nspans (benchmark-side, around calls into each layer)\n");
  std::printf("%-24s %9s %11s %11s %10s %10s\n", "span", "count", "total ms",
              "self ms", "p50 us", "p99 us");
  for (const auto& s : stats) {
    std::printf("%-24s %9lld %11.1f %11.1f %10.1f %10.1f\n", s.name.c_str(),
                static_cast<long long>(s.count), s.total_ms, s.self_ms, s.p50_us,
                s.p99_us);
  }
}

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload serve_static|serve_live|train_roi --seed N "
               "--seconds S [--trace 0|1] [--out-dir DIR]\n       %s --selftest\n",
               argv0, argv0);
  return 2;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  using namespace e2ebench;
  RunConfig cfg;
  bool selftest_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--selftest") {
      selftest_only = true;
    } else if (a == "--workload" && (v = next())) {
      cfg.workload = v;
    } else if (a == "--seed" && (v = next())) {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds" && (v = next())) {
      cfg.seconds = std::atof(v);
    } else if (a == "--trace" && (v = next())) {
      cfg.trace = std::atoi(v) != 0;
    } else if (a == "--out-dir" && (v = next())) {
      cfg.out_dir = v;
    } else {
      return Usage(argv[0]);
    }
  }
  cfg.nproc = static_cast<int>(std::thread::hardware_concurrency());

  // Every run first confirms each check rejects a corrupted output.
  const auto missed = RunSelfTest();
  std::printf("self-test: %s\n", missed.empty() ? "every check rejects its corrupted "
                                                  "output"
                                                : "FAILED");
  for (const auto& m : missed) std::printf("  self-test miss: %s\n", m.c_str());
  if (selftest_only) return missed.empty() ? 0 : 1;
  if (cfg.seconds <= 0.0) return Usage(argv[0]);

  RunResult result;
  for (const auto& m : missed) result.CheckFailed("self-test: " + m);
  std::printf("workload %s, seed %llu, %.1f s, trace %d, nproc %d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, cfg.nproc);
  if (cfg.workload == "serve_static") {
    RunServeStatic(cfg, &result);
  } else if (cfg.workload == "serve_live") {
    RunServeLive(cfg, &result);
  } else if (cfg.workload == "train_roi") {
    RunTrainRoi(cfg, &result);
  } else {
    return Usage(argv[0]);
  }
  if (!result.precondition_failures().empty()) {
    std::printf("run rejected: %zu precondition(s) failed\n",
                result.precondition_failures().size());
    return 3;
  }
  result.FillMissingLayers(kLayerMetrics);
  if (cfg.trace) {
    const std::string path =
        cfg.out_dir + "/spans-" + cfg.workload + ".csv";
    if (Tracer::Get().WriteCsv(path)) std::printf("spans written to %s\n", path.c_str());
  }
  result.PrintOps();
  std::printf("RESULT %s\n", result.Json().c_str());
  std::fflush(stdout);
  return 0;
}
