// The benchmark's three workloads. Each builds its inputs from the run's
// seed, sets itself up several times (setup_s is the median), measures for
// the configured seconds, checks the program's outputs, and fills a
// RunResult with every end-to-end metric and the per-layer metrics of the
// layers it exercises.
#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include "bench_core.h"

namespace e2ebench {

void RunServeStatic(const RunConfig& cfg, RunResult* result);
void RunServeLive(const RunConfig& cfg, RunResult* result);
void RunTrainRoi(const RunConfig& cfg, RunResult* result);

/// Span-derived per-layer table (traced runs): prints count, total, self
/// time and duration percentiles per span name.
void PrintSpanTable(const std::vector<SpanStats>& stats);

/// Looks up one span name's statistics (zeros when absent).
SpanStats FindSpan(const std::vector<SpanStats>& stats, const char* name);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
