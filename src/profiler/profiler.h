// Profiler: the reproduction's counterpart of Starfish's Profiler [8],
// which the paper uses to generate profile annotations through dynamic
// instrumentation of unmodified MapReduce workflows. Here it runs each job
// of a plan over the (sample) data in the DFS, measures per-stage record/
// byte selectivities, CPU weights, group counts, and key histograms, and
// writes them into the plan as annotations.
//
// Profiling is measurement, not magic: statistics are collected on the
// physical sample under the plan's current configuration, so the what-if
// engine's later predictions for other configurations and transformed plans
// carry realistic estimation error (Figure 14).

#pragma once

#include "common/result.h"
#include "dfs/dfs.h"
#include "mr/cluster.h"
#include "workflow/plan.h"

namespace stubby {

/// Profiling knobs.
struct ProfilerOptions {
  /// Number of buckets in collected key histograms.
  int histogram_buckets = 32;

  /// Deterministic relative perturbation applied to measured statistics
  /// (models instrumentation/measurement error; 0 = exact measurements).
  double noise = 0.0;
};

/// Collects profile annotations by instrumented execution.
class Profiler {
 public:
  explicit Profiler(ClusterSpec cluster, ProfilerOptions options = {})
      : cluster_(std::move(cluster)), options_(options) {}

  /// Profiles every job of `plan` in topological order: measures statistics
  /// for each stage against the current DFS contents, records them into the
  /// plan (stage stats + branch profile annotations), then executes the job
  /// so downstream jobs can be profiled against its real output. The DFS
  /// ends up holding all intermediate and final datasets.
  Status ProfilePlan(Plan* plan, Dfs* dfs) const;

  /// Profiles a single job in place (without executing it). Inputs must
  /// already exist in the DFS.
  Status ProfileJob(const Plan& plan, JobVertex* job, const Dfs& dfs) const;

 private:
  ClusterSpec cluster_;
  ProfilerOptions options_;
};

}  // namespace stubby
