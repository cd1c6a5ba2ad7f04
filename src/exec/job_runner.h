// JobRunner: executes one MapReduce job of a plan on the simulated cluster,
// at record level. Map tasks are formed per input group (size-based splits,
// or partition-aligned reads), run every subscribing branch pipeline over
// the scan, partition/sort/combine the map output per branch, and reduce
// tasks merge and run the reduce-side pipelines. Observed dataflow is
// returned in logical units for the phase-time model.
//
// With a thread pool, map and reduce tasks execute concurrently as pure
// tasks whose per-task pieces are merged serially in task order, so
// outputs and every dataflow metric (including floating-point sums) are
// bit-identical to a single-threaded run.

#pragma once

#include "common/result.h"
#include "cost/dataflow.h"
#include "dfs/dfs.h"
#include "mr/cluster.h"
#include "workflow/plan.h"

namespace stubby {

class ThreadPool;

/// Resolves a branch's effective range split points: explicit ones win;
/// otherwise sorted, de-duplicated candidates from the `split_points_from`
/// dataset are thinned to R-1 evenly spaced distinct boundaries.
Result<PartitionSpec> ResolvePartitionSpec(const Branch& branch, int R,
                                           const Dfs& dfs);

/// Fields perfbench/ prints; neither has an effect.
struct ExecOptions {
  /// No effect; perfbench/ prints it. Delete with the next perfbench/ change.
  bool vectorized = true;
  /// No effect; perfbench/ prints it. Delete with the next perfbench/ change.
  bool columnar = true;
};

/// Executes single jobs against a Dfs. The pool, when given, is borrowed
/// for the duration of each Run call.
class JobRunner {
 public:
  explicit JobRunner(ClusterSpec cluster, ThreadPool* pool = nullptr)
      : cluster_(std::move(cluster)), pool_(pool) {}

  /// Runs `job`, reading inputs from and writing outputs to `dfs`. The plan
  /// provides dataset schemas and layouts. Returns the observed dataflow.
  Result<JobDataflow> Run(const Plan& plan, const JobVertex& job,
                          Dfs* dfs) const;

  /// Upper bound on map tasks materialized per input group (shared with
  /// the what-if engine so predictions match observations).
  static constexpr int kMaxMapTasks = kMaxSimulatedMapTasks;

 private:
  ClusterSpec cluster_;
  ThreadPool* pool_ = nullptr;
};

}  // namespace stubby
