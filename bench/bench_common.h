// Shared machinery for the figure/table benches: builds a workload,
// profiles it, produces each system's plan (Baseline, Stubby, Vertical-only,
// Horizontal-only, Starfish, YSmart, MRShare), executes plans on the
// simulated cluster, and reports speedups — the evaluation loop of
// Section 7.

#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "baselines/mrshare.h"
#include "baselines/pig_baseline.h"
#include "baselines/starfish.h"
#include "baselines/ysmart.h"
#include "common/json.h"
#include "common/result.h"
#include "common/threading.h"
#include "exec/workflow_runner.h"
#include "optimizer/stubby.h"
#include "profiler/profiler.h"
#include "workloads/registry.h"

namespace stubby::bench {

/// Parses an integer `--name N` command-line flag.
inline int IntFlag(int argc, char** argv, const char* name, int fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (!std::strcmp(argv[i], name)) return std::atoi(argv[i + 1]);
  }
  return fallback;
}

/// Parses a string `--name VALUE` command-line flag.
inline std::string StringFlag(int argc, char** argv, const char* name,
                              const std::string& fallback = "") {
  for (int i = 1; i + 1 < argc; ++i) {
    if (!std::strcmp(argv[i], name)) return argv[i + 1];
  }
  return fallback;
}

/// `--threads N` (default: all hardware threads). Any value produces
/// bit-identical bench results; it only moves wall time.
inline int ThreadsFlag(int argc, char** argv) {
  return std::max(1, IntFlag(argc, argv, "--threads",
                             ThreadPool::HardwareThreads()));
}

/// Wall-clock seconds since `t0`.
inline double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One workload, profiled and ready for plan comparisons.
struct PreparedWorkload {
  Workload workload;  ///< plan carries profile annotations
  WorkloadOptions options;
};

inline Result<PreparedWorkload> Prepare(const std::string& abbr,
                                        int sample_rows, uint64_t seed = 7) {
  WorkloadOptions options;
  options.sample_rows = sample_rows;
  options.seed = seed;
  STUBBY_ASSIGN_OR_RETURN(Workload w, MakeWorkload(abbr, options));
  Profiler profiler(options.cluster);
  Dfs profiling_dfs = w.dfs;
  STUBBY_RETURN_NOT_OK(profiler.ProfilePlan(&w.plan, &profiling_dfs));
  return PreparedWorkload{std::move(w), options};
}

/// Simulated wall-clock of a plan, run on a fresh copy of the base data.
/// The pool, when given, parallelizes the executor's map/reduce tasks; the
/// simulated makespan is bit-identical either way.
inline Result<double> Execute(const PreparedWorkload& pw, const Plan& plan,
                              ThreadPool* pool = nullptr) {
  WorkflowRunner runner(pw.options.cluster, pool);
  Dfs dfs = pw.workload.dfs;
  STUBBY_ASSIGN_OR_RETURN(WorkflowDataflow flow, runner.Run(plan, &dfs));
  return flow.makespan_sec;
}

/// Stubby with a transformation-group selection (Figure 11's Stubby /
/// Vertical / Horizontal configurations), returning the full report so
/// benches can emit the costing instrumentation.
inline Result<OptimizeReport> RunStubbyReport(const PreparedWorkload& pw,
                                              bool vertical, bool horizontal,
                                              uint64_t seed = 17,
                                              ThreadPool* pool = nullptr) {
  StubbyOptions opts;
  opts.enable_intra_vertical = vertical;
  opts.enable_inter_vertical = vertical;
  opts.enable_horizontal = horizontal;
  // The partition-function and configuration transformations belong to both
  // groups (Section 4).
  opts.enable_partition_function = vertical || horizontal;
  opts.enable_configuration = true;
  opts.unit.seed = seed;
  opts.pool = pool;
  StubbyOptimizer optimizer(opts);
  return optimizer.Optimize(pw.workload.plan);
}

inline Result<Plan> RunStubby(const PreparedWorkload& pw, bool vertical,
                              bool horizontal, uint64_t seed = 17) {
  STUBBY_ASSIGN_OR_RETURN(OptimizeReport report,
                          RunStubbyReport(pw, vertical, horizontal, seed));
  return std::move(report.plan);
}

/// Costing-layer counters as a JSON object (for the BENCH_*.json files).
inline Json InstrumentationJson(const CostInstrumentation& c) {
  Json j = Json::Object();
  j["whatif_invocations"] = c.whatif_invocations;
  j["plan_cache_hits"] = c.plan_cache_hits;
  j["plan_cache_misses"] = c.plan_cache_misses;
  j["full_predictions"] = c.full_predictions;
  j["job_predictions"] = c.job_predictions;
  j["rrs_evaluations"] = c.rrs_evaluations;
  return j;
}

/// Optimizer-run summary (cost, wall time, counters, per-phase slices).
inline Json ReportJson(const OptimizeReport& r) {
  Json j = Json::Object();
  j["estimated_cost"] = r.estimated_cost;
  j["fallback"] = r.fallback;
  j["optimization_time_sec"] = r.optimization_time_sec;
  j["units_processed"] = r.units_processed;
  j["subplans_enumerated"] = r.subplans_enumerated;
  j["costing"] = InstrumentationJson(r.costing);
  Json phases = Json::Array();
  for (const PhaseReport& p : r.phases) {
    Json pj = Json::Object();
    pj["name"] = p.name;
    pj["wall_sec"] = p.wall_sec;
    pj["units_processed"] = p.units_processed;
    pj["subplans_enumerated"] = p.subplans_enumerated;
    phases.Append(std::move(pj));
  }
  j["phases"] = std::move(phases);
  return j;
}

/// Writes a bench result document next to the working directory.
inline void WriteBenchJson(const std::string& path, const Json& doc) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
    return;
  }
  std::string text = doc.Dump(2);
  std::fwrite(text.data(), 1, text.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

/// Prints one speedup row: `label  v1 v2 ...`.
inline void PrintRow(const std::string& label,
                     const std::vector<double>& values) {
  std::printf("%-22s", label.c_str());
  for (double v : values) std::printf(" %8.2f", v);
  std::printf("\n");
}

}  // namespace stubby::bench
