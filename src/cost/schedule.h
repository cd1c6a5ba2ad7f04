// Cluster scheduler: a discrete-event simulation of slot-based task
// execution over a workflow DAG. Jobs contribute map tasks (runnable once
// all upstream jobs finish) and reduce tasks (runnable once the job's own
// maps finish); tasks occupy map/reduce slots FIFO. This captures the
// concurrency effects the paper leans on — e.g. two small sibling jobs
// running concurrently can beat one horizontally-packed job when the
// cluster has spare slots (the PJ workflow of Section 7.2).

#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "cost/phase_model.h"
#include "mr/cluster.h"

namespace stubby {

/// The scheduler's view of a workflow DAG, addressed by job index. Built
/// once per plan shape; the what-if engine's plan pricer simulates every
/// configuration point over the same graph.
struct ScheduleGraph {
  /// dependents[i]: the jobs waiting for job i, one entry per dependency
  /// edge.
  std::vector<std::vector<size_t>> dependents;
  /// num_deps[i]: dependency edges into job i.
  std::vector<int> num_deps;
  /// rank[i]: job i's position in the FIFO tie-break among jobs that
  /// became ready at the same time (job-id order).
  std::vector<size_t> rank;
};

/// Builds the graph of jobs whose upstream job indices are `deps[i]`, with
/// tie-break ranks `rank`.
ScheduleGraph MakeScheduleGraph(const std::vector<std::vector<size_t>>& deps,
                                std::vector<size_t> rank);

/// Outcome of a simulated run, by job index.
struct JobSchedule {
  double makespan_sec = 0.0;
  std::vector<double> finish_sec;
};

/// Simulates the jobs of `graph` with task times `times[i]` on the
/// cluster. Job order is significant only through event sequence numbers,
/// so callers that must reproduce a run pass the jobs in the same order.
Result<JobSchedule> SimulateSchedule(const ScheduleGraph& graph,
                                     const std::vector<JobTaskTimes>& times,
                                     const ClusterSpec& cluster);

/// One job as seen by the scheduler.
struct ScheduledJob {
  std::string id;
  std::vector<std::string> deps;  ///< upstream job ids
  JobTaskTimes times;
};

/// Outcome of a simulated run.
struct ScheduleResult {
  double makespan_sec = 0.0;
  std::map<std::string, double> job_finish_sec;
};

/// SimulateSchedule over jobs named by id (any order; dependencies
/// resolved by id, ties broken by id). Fails if ids repeat, dependencies
/// reference unknown jobs, or they form a cycle.
Result<ScheduleResult> SimulateCluster(const std::vector<ScheduledJob>& jobs,
                                       const ClusterSpec& cluster);

}  // namespace stubby
