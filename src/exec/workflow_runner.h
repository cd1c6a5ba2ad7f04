// WorkflowRunner: executes a whole plan job-by-job in topological order on
// the simulated cluster, then derives the workflow's simulated wall-clock
// makespan by pushing the observed per-job dataflow through the phase-time
// model and the slot-based cluster scheduler. This is the reproduction's
// ground truth — the role the 51-node EC2 cluster plays in the paper.

#pragma once

#include "common/result.h"
#include "cost/dataflow.h"
#include "dfs/dfs.h"
#include "exec/job_runner.h"
#include "workflow/plan.h"

namespace stubby {

class ThreadPool;

/// Executes plans end-to-end. The pool, when given, is borrowed and lets
/// each job's map/reduce tasks run concurrently; results stay bit-identical
/// to a single-threaded run.
class WorkflowRunner {
 public:
  explicit WorkflowRunner(ClusterSpec cluster, ThreadPool* pool = nullptr)
      : cluster_(std::move(cluster)), pool_(pool) {}

  /// Validates and runs `plan`. Base inputs must already exist in `dfs`;
  /// intermediate and output datasets are (re)created there. Returns the
  /// observed dataflow including the simulated makespan.
  Result<WorkflowDataflow> Run(const Plan& plan, Dfs* dfs) const;

 private:
  ClusterSpec cluster_;
  ThreadPool* pool_ = nullptr;
};

}  // namespace stubby
