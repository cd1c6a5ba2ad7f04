// Profiler: the reproduction's counterpart of Starfish's Profiler [8],
// which the paper uses to generate profile annotations through dynamic
// instrumentation of unmodified MapReduce workflows. Here it runs each job
// of a plan once on the simulator with counters enabled (JobRunner's
// observation): every pipeline stage counts the records and bytes it sees
// and the groups it flushes, and every task hands over its map output's
// group hashes and field values. The profiler turns those counts into
// per-stage record/byte selectivities, CPU weights, group counts, and key
// histograms, and writes them into the plan as annotations. It runs no
// pipeline of its own: only the executor decides how a job's stages run
// over its input.
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
  /// Deterministic relative perturbation applied to measured statistics
  /// (models instrumentation/measurement error; 0 = exact measurements).
  double noise = 0.0;
};

/// Collects profile annotations by instrumented execution.
class Profiler {
 public:
  explicit Profiler(ClusterSpec cluster, ProfilerOptions options = {})
      : cluster_(std::move(cluster)), options_(options) {}

  /// Profiles every job of `plan` in topological order: executes the job
  /// once against the current DFS contents with counters enabled, then
  /// records what the run saw into the plan (stage stats + branch profile
  /// annotations). Downstream jobs are thus profiled against their
  /// producers' real output, and the DFS ends up holding all intermediate
  /// and final datasets.
  Status ProfilePlan(Plan* plan, Dfs* dfs) const;

 private:
  ClusterSpec cluster_;
  ProfilerOptions options_;
};

}  // namespace stubby
