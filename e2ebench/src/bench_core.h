// Shared pieces of the end-to-end benchmark: monotonic clock, latency sample
// sets, the span recorder used by traced runs, registry-snapshot deltas, the
// per-run result (metrics, operation counts, check failures) and small
// helpers. Everything here is benchmark-side; the program under test is only
// called through its public headers.
#ifndef E2EBENCH_BENCH_CORE_H_
#define E2EBENCH_BENCH_CORE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/graph_view.h"
#include "obs/metrics.h"

namespace e2ebench {

/// Nanoseconds on the steady clock.
int64_t NowNs();

/// Latency samples in milliseconds with exact percentiles.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  size_t size() const { return v_.size(); }
  /// Nearest-rank percentile, p in [0, 100]; 0 when empty.
  double Percentile(double p) const;
  const std::vector<double>& values() const { return v_; }

 private:
  std::vector<double> v_;
};

/// p50 and windowed tails: the run is cut into `windows` equal slices by
/// sample order, p90 and p99 are taken per slice, and the median slice
/// value is reported, which keeps one stall from deciding a whole run.
struct LatencySummary {
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  size_t count = 0;
};
LatencySummary Summarize(const Samples& s, int windows);

// ---------------------------------------------------------------- spans ---

/// One recorded span. `parent` is the id of the enclosing span (0 = root);
/// `request` groups the spans of one operation.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span recorder for traced runs. Disabled recorders cost one
/// branch per call. Each thread appends to its own buffer; buffers are
/// merged and written out when the run ends.
class Tracer {
 public:
  static Tracer& Get();
  void Enable(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(const SpanRecord& span);
  std::vector<SpanRecord> Collect() const;
  /// Writes `id,parent,request,name,start_ns,end_ns` lines.
  bool WriteCsv(const std::string& path) const;

 private:
  struct Buffer {
    std::vector<SpanRecord> spans;
  };
  Buffer* LocalBuffer();
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Records [start, end] under `name` when tracing is on.
inline void RecordSpan(const char* name, int64_t start_ns, int64_t end_ns,
                       uint64_t parent = 0, uint64_t request = 0,
                       uint64_t id = 0) {
  Tracer& t = Tracer::Get();
  if (!t.enabled()) return;
  t.Record({id != 0 ? id : t.NewId(), parent, request, name, start_ns,
            end_ns});
}

/// Per-name span statistics: count, total and self time (duration minus
/// the time covered by child spans), duration percentiles.
struct SpanStats {
  std::string name;
  int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};
std::vector<SpanStats> AnalyzeSpans(const std::vector<SpanRecord>& spans);

// ------------------------------------------------------ registry deltas ---

/// Difference of two registry snapshots (after - before), for instruments
/// that outlive one measured phase.
class RegistryDelta {
 public:
  RegistryDelta(const zoomer::obs::RegistrySnapshot& before,
                const zoomer::obs::RegistrySnapshot& after)
      : before_(before), after_(after) {}
  double Counter(const std::string& name) const;
  double HistMean(const std::string& name) const;
  double HistPercentile(const std::string& name, double p) const;
  double HistSum(const std::string& name) const;

 private:
  std::vector<int64_t> Buckets(const std::string& name, int64_t* count,
                               int64_t* sum) const;
  zoomer::obs::RegistrySnapshot before_;
  zoomer::obs::RegistrySnapshot after_;
};

zoomer::obs::RegistrySnapshot SnapshotGlobal();

// --------------------------------------------------------------- result ---

/// Attempted/failed counts of one operation kind.
struct OpCount {
  std::atomic<int64_t> attempted{0};
  std::atomic<int64_t> failed{0};
};

/// Everything one workload run reports.
class RunResult {
 public:
  void SetE2E(const std::string& name, double v, const std::string& unit);
  void SetLayer(const std::string& name, double v, const std::string& unit);
  OpCount& Op(const std::string& kind);
  /// Sets every listed per-layer metric the workload left unset to 0.
  void FillMissingLayers(
      const std::vector<std::pair<const char*, const char*>>& names);
  /// Records a failed correctness check (the run then reports
  /// correct = false) and prints it.
  void CheckFailed(const std::string& what);
  /// Records a failed precondition: the run exits non-zero without a
  /// result line.
  void PreconditionFailed(const std::string& what);

  bool correct() const { return check_failures_.empty(); }
  const std::vector<std::string>& precondition_failures() const {
    return precondition_failures_;
  }
  int64_t Attempted() const;
  int64_t Failed() const;
  void PrintOps() const;
  /// One JSON object: {"correct", "attempted", "failed", "ops",
  /// "e2e": {...}, "layer": {...}}.
  std::string Json() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  mutable std::mutex mu_;
  std::map<std::string, Metric> e2e_;
  std::map<std::string, Metric> layer_;
  std::map<std::string, std::unique_ptr<OpCount>> ops_;
  std::vector<std::string> check_failures_;
  std::vector<std::string> precondition_failures_;
};

/// Run-wide settings parsed from the command line.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string out_dir = ".";  // scratch files (WAL, span dumps)
  int nproc = 1;
};

/// Peak resident set size of this process, MiB.
double PeakRssMib();

/// User + system CPU time of this process so far, seconds.
double ProcessCpuSeconds();

/// Median of a small vector (copy).
double Median(std::vector<double> v);

/// Reports setup_s and its generate/build split as the medians of the
/// set-up rounds (seconds per round).
void ReportSetup(const std::vector<double>& total,
                 const std::vector<double>& generate, RunResult* result);

/// Times SampleManyNeighbors on a graph view after one warm-up call: ns per
/// draw over five batches of `nodes` x `k` draws.
double DrawNs(const zoomer::graph::GraphView& view,
              const std::vector<zoomer::graph::NodeId>& nodes, int k,
              uint64_t seed);

/// `n` node ids spread over [0, num_nodes) by a fixed stride.
std::vector<zoomer::graph::NodeId> DrawProbeNodes(int64_t num_nodes, int n);

}  // namespace e2ebench

#endif  // E2EBENCH_BENCH_CORE_H_
