#include "bench_core.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "common/random.h"

namespace e2ebench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Samples::Percentile(double p) const {
  if (v_.empty()) return 0.0;
  std::vector<double> c = v_;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * c.size()));
  rank = std::clamp<size_t>(rank, 1, c.size());
  std::nth_element(c.begin(), c.begin() + (rank - 1), c.end());
  return c[rank - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

LatencySummary Summarize(const Samples& s, int windows) {
  LatencySummary out;
  out.count = s.size();
  out.p50 = s.Percentile(50);
  const auto& v = s.values();
  // A slice needs >= 1000 samples for its p99 to have ten beyond it.
  windows = std::max(1, std::min<int>(windows, static_cast<int>(v.size() / 1000)));
  std::vector<double> p90s, p99s;
  for (int w = 0; w < windows; ++w) {
    const size_t lo = v.size() * w / windows;
    const size_t hi = v.size() * (w + 1) / windows;
    Samples slice;
    for (size_t i = lo; i < hi; ++i) slice.Add(v[i]);
    p90s.push_back(slice.Percentile(90));
    p99s.push_back(slice.Percentile(99));
  }
  out.p90 = Median(p90s);
  out.p99 = Median(p99s);
  return out;
}

// ---------------------------------------------------------------- spans ---

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();  // leaked: threads may outlive main
  return *tracer;
}

Tracer::Buffer* Tracer::LocalBuffer() {
  thread_local Buffer* local = nullptr;
  if (local == nullptr) {
    auto buf = std::make_unique<Buffer>();
    buf->spans.reserve(1 << 14);
    local = buf.get();
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(buf));
  }
  return local;
}

void Tracer::Record(const SpanRecord& span) {
  LocalBuffer()->spans.push_back(span);
}

std::vector<SpanRecord> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> all;
  for (const auto& b : buffers_) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  return all;
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,request,name,start_ns,end_ns\n");
  for (const SpanRecord& s : Collect()) {
    std::fprintf(f, "%llu,%llu,%llu,%s,%lld,%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

std::vector<SpanStats> AnalyzeSpans(const std::vector<SpanRecord>& spans) {
  // Child time per parent id, clipped to the parent's interval.
  std::unordered_map<uint64_t, size_t> by_id;
  by_id.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const SpanRecord& s : spans) {
    if (s.parent == 0) continue;
    auto it = by_id.find(s.parent);
    if (it == by_id.end()) continue;
    const SpanRecord& p = spans[it->second];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) child_ns[it->second] += static_cast<double>(hi - lo);
  }
  std::map<std::string, std::vector<size_t>> groups;
  for (size_t i = 0; i < spans.size(); ++i) groups[spans[i].name].push_back(i);
  std::vector<SpanStats> out;
  for (const auto& [name, idx] : groups) {
    SpanStats st;
    st.name = name;
    st.count = static_cast<int64_t>(idx.size());
    Samples durs;
    for (size_t i : idx) {
      const double d = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      st.total_ms += d / 1e6;
      st.self_ms += std::max(0.0, d - child_ns[i]) / 1e6;
      durs.Add(d / 1e3);
    }
    st.p50_us = durs.Percentile(50);
    st.p99_us = durs.Percentile(99);
    out.push_back(st);
  }
  return out;
}

// ------------------------------------------------------ registry deltas ---

zoomer::obs::RegistrySnapshot SnapshotGlobal() {
  return zoomer::obs::MetricsRegistry::Global()->Snapshot();
}

double RegistryDelta::Counter(const std::string& name) const {
  const auto* a = after_.Find(name);
  const auto* b = before_.Find(name);
  return (a != nullptr ? a->value : 0.0) - (b != nullptr ? b->value : 0.0);
}

std::vector<int64_t> RegistryDelta::Buckets(const std::string& name,
                                            int64_t* count,
                                            int64_t* sum) const {
  std::vector<int64_t> out(zoomer::obs::Histogram::kNumBuckets, 0);
  *count = 0;
  *sum = 0;
  const auto* a = after_.Find(name);
  if (a == nullptr) return out;
  const auto& ac = a->hist.bucket_counts();
  for (size_t i = 0; i < ac.size() && i < out.size(); ++i) out[i] = ac[i];
  *count = a->hist.count();
  *sum = a->hist.sum();
  if (const auto* b = before_.Find(name)) {
    const auto& bc = b->hist.bucket_counts();
    for (size_t i = 0; i < bc.size() && i < out.size(); ++i) out[i] -= bc[i];
    *count -= b->hist.count();
    *sum -= b->hist.sum();
  }
  return out;
}

double RegistryDelta::HistSum(const std::string& name) const {
  int64_t count = 0, sum = 0;
  Buckets(name, &count, &sum);
  return static_cast<double>(sum);
}

double RegistryDelta::HistMean(const std::string& name) const {
  int64_t count = 0, sum = 0;
  Buckets(name, &count, &sum);
  return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                   : 0.0;
}

double RegistryDelta::HistPercentile(const std::string& name,
                                     double p) const {
  int64_t count = 0, sum = 0;
  const auto buckets = Buckets(name, &count, &sum);
  if (count <= 0) return 0.0;
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(p / 100.0 * static_cast<double>(count))));
  int64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      return static_cast<double>(
          zoomer::obs::Histogram::BucketMidpoint(static_cast<int>(i)));
    }
  }
  return 0.0;
}

// --------------------------------------------------------------- result ---

void RunResult::SetE2E(const std::string& name, double v,
                       const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  e2e_[name] = {v, unit};
}

void RunResult::SetLayer(const std::string& name, double v,
                         const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  layer_[name] = {v, unit};
}

void RunResult::FillMissingLayers(
    const std::vector<std::pair<const char*, const char*>>& names) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, unit] : names) {
    if (layer_.count(name) == 0) layer_[name] = {0.0, unit};
  }
}

OpCount& RunResult::Op(const std::string& kind) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = ops_[kind];
  if (!slot) slot = std::make_unique<OpCount>();
  return *slot;
}

void RunResult::CheckFailed(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  std::printf("CHECK FAILED: %s\n", what.c_str());
  std::fflush(stdout);
  check_failures_.push_back(what);
}

void RunResult::PreconditionFailed(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  std::printf("PRECONDITION FAILED: %s\n", what.c_str());
  std::fflush(stdout);
  precondition_failures_.push_back(what);
}

int64_t RunResult::Attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t n = 0;
  for (const auto& [k, op] : ops_) n += op->attempted.load();
  return n;
}

int64_t RunResult::Failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t n = 0;
  for (const auto& [k, op] : ops_) n += op->failed.load();
  return n;
}

void RunResult::PrintOps() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::printf("\n%-18s %12s %8s\n", "operation", "attempted", "failed");
  for (const auto& [k, op] : ops_) {
    std::printf("%-18s %12lld %8lld\n", k.c_str(),
                static_cast<long long>(op->attempted.load()),
                static_cast<long long>(op->failed.load()));
  }
}

namespace {
void AppendMetrics(
    std::string* out,
    const std::map<std::string, std::pair<double, std::string>>& m) {
  bool first = true;
  *out += "{";
  for (const auto& [name, vu] : m) {
    char buf[512];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(),
                  std::isfinite(vu.first) ? vu.first : 0.0, vu.second.c_str());
    *out += buf;
    first = false;
  }
  *out += "}";
}
}  // namespace

std::string RunResult::Json() const {
  const int64_t attempted = Attempted();
  const int64_t failed = Failed();
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::pair<double, std::string>> e2e, layer;
  for (const auto& [k, m] : e2e_) e2e[k] = {m.value, m.unit};
  for (const auto& [k, m] : layer_) layer[k] = {m.value, m.unit};
  std::string out = "{\"correct\": ";
  out += check_failures_.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"ops\": {";
  bool first = true;
  for (const auto& [k, op] : ops_) {
    out += (first ? "\"" : ", \"") + k + "\": [" +
           std::to_string(op->attempted.load()) + ", " +
           std::to_string(op->failed.load()) + "]";
    first = false;
  }
  out += "}, \"e2e\": ";
  AppendMetrics(&out, e2e);
  out += ", \"layer\": ";
  AppendMetrics(&out, layer);
  out += "}";
  return out;
}

double ProcessCpuSeconds() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

void ReportSetup(const std::vector<double>& total,
                 const std::vector<double>& generate, RunResult* result) {
  std::vector<double> build;
  for (size_t i = 0; i < total.size(); ++i) build.push_back(total[i] - generate[i]);
  result->SetE2E("setup_s", Median(total), "s");
  result->SetLayer("setup.generate_s", Median(generate), "s");
  result->SetLayer("setup.build_s", Median(build), "s");
  std::printf("setup: %zu rounds, median %.3f s (generate %.3f s, build %.3f s)\n",
              total.size(), Median(total), Median(generate), Median(build));
}

double DrawNs(const zoomer::graph::GraphView& view,
              const std::vector<zoomer::graph::NodeId>& nodes, int k,
              uint64_t seed) {
  zoomer::Rng rng(seed);
  std::vector<zoomer::graph::NodeId> out;
  view.SampleManyNeighbors(nodes, k, &rng, &out);  // warm
  const int64_t t0 = NowNs();
  int64_t draws = 0;
  for (int rep = 0; rep < 5; ++rep) {
    view.SampleManyNeighbors(nodes, k, &rng, &out);
    draws += static_cast<int64_t>(nodes.size()) * k;
  }
  return static_cast<double>(NowNs() - t0) / static_cast<double>(draws);
}

std::vector<zoomer::graph::NodeId> DrawProbeNodes(int64_t num_nodes, int n) {
  std::vector<zoomer::graph::NodeId> nodes;
  for (int i = 0; i < n; ++i) {
    nodes.push_back(static_cast<zoomer::graph::NodeId>(
        (static_cast<uint64_t>(i) * 7919) % num_nodes));
  }
  return nodes;
}

double PeakRssMib() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace e2ebench
