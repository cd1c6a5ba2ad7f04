// What-if engine (Section 5): estimates the execution cost of an annotated
// workflow plan from (1) per-stage dataflow and cost statistics carried by
// profile annotations, (2) the per-job configurations, (3) the size and
// layout of the input datasets, and (4) the cluster spec — the same four
// inputs as Starfish's What-if Engine, which the paper uses.
//
// When the required annotations are missing, costing falls back to the
// simple job-count model used by YSmart [11], exactly as Section 5
// prescribes.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "cost/dataflow.h"
#include "cost/phase_model.h"
#include "cost/schedule.h"
#include "mr/cluster.h"
#include "workflow/plan.h"

namespace stubby {

struct CostInstrumentation;

/// Predicted size of a (possibly intermediate) dataset.
struct PredictedDataset {
  double records = 0.0;
  double bytes = 0.0;         ///< raw bytes
  double stored_bytes = 0.0;  ///< after compression
  int partitions = 1;
  /// Fraction of the data in the largest partition (skew carrier).
  double max_partition_fraction = 1.0;
};

/// Result of costing a plan.
struct CostEstimate {
  /// Estimated cost. Comparable across plans costed by the same engine:
  /// makespan seconds normally, or the number of jobs in fallback mode.
  double cost = 0.0;
  bool fallback = false;
  /// Per-job predicted dataflow (empty in fallback mode).
  WorkflowDataflow dataflow;
};

/// A plan compiled for pricing configuration points: everything about the
/// plan that no point changes is worked out once, so a point costs what it
/// changes. Compiled by WhatIfEngine::Compile for a set of tuned jobs (the
/// jobs whose configuration a point sets) and fixes:
///   - the topological order, each job's upstream jobs as indices, and the
///     job-id tie-break order of the cluster simulation;
///   - each job's input groups (GroupBranchInputs) and dataset reads and
///     writes as indices into one dataset table;
///   - the reduce distribution of every branch of a job whose reduce-task
///     count is pinned (a distribution reads the point only through R);
///   - the full prediction — dataflow, task times, and output and tee
///     datasets — of every job that is neither tuned nor downstream of a
///     tuned job ("fixed"; the rest are "varying").
/// Each point then predicts only the varying jobs, in topological order,
/// and simulates the cluster over all jobs through index-addressed tables.
///
/// A pricer is immutable once compiled and may be shared by concurrent
/// pricing tasks. It refers to the plan it was compiled from, which must
/// outlive it.
class PlanPricer {
 public:
  /// Predicts the plan's dataflow with tuned job i configured as
  /// `configs[i]`; counts the pass and the jobs it predicts into `stats`
  /// (may be null).
  Result<WorkflowDataflow> Predict(const std::vector<JobConfig>& configs,
                                   CostInstrumentation* stats) const;

  // Defined where Job is complete.
  PlanPricer(PlanPricer&&) noexcept;
  PlanPricer& operator=(PlanPricer&&) noexcept;
  ~PlanPricer();

 private:
  friend class WhatIfEngine;
  struct Job;

  explicit PlanPricer(const PhaseTimeModel& model);

  /// Predicts one job under `config` into `datasets` (index-addressed).
  Result<JobDataflow> PredictJob(const Job& job, const JobConfig& config,
                                 std::vector<PredictedDataset>* datasets) const;

  const PhaseTimeModel* model_;
  /// Jobs in topological order.
  std::vector<Job> jobs_;
  /// Topological index of each tuned job, in the order a point lists their
  /// configurations.
  std::vector<size_t> tuned_index_;
  /// Predicted datasets before any varying job runs: base inputs and the
  /// fixed jobs' outputs and tees.
  std::vector<PredictedDataset> datasets_;
  ScheduleGraph schedule_;
  /// Topological indices in job-id order (the order of job_finish_sec).
  std::vector<size_t> by_id_;
};

/// Cost estimator for plans.
class WhatIfEngine {
 public:
  explicit WhatIfEngine(ClusterSpec cluster)
      : model_(std::move(cluster)) {}

  /// Predicts the full dataflow and simulated makespan of `plan`: the plan
  /// pricer with every job varying, priced at the jobs' own configurations.
  /// Fails with FailedPrecondition if required annotations (input sizes,
  /// stage statistics) are missing.
  Result<WorkflowDataflow> PredictDataflow(const Plan& plan) const;

  /// Costs the plan; never fails — uses the job-count fallback when the
  /// detailed prediction is not possible.
  CostEstimate Cost(const Plan& plan) const;

  /// Compiles `plan` for pricing points that set the configurations of the
  /// `tuned` jobs (distinct ids of jobs in the plan). Predicts the fixed
  /// jobs once, counting them into job_predictions. `plan` and this engine
  /// must outlive the pricer; any engine with this engine's cluster may
  /// price it.
  Result<PlanPricer> Compile(const Plan& plan,
                             const std::vector<std::string>& tuned) const;

  /// Prices one point: the estimate Cost() returns for the plan copy whose
  /// tuned job i is configured as `configs[i]` (an effective configuration,
  /// as ApplyConfiguration would set it) — the same bits and counters,
  /// except that job_predictions counts only the varying jobs.
  CostEstimate Cost(const PlanPricer& pricer,
                    const std::vector<JobConfig>& configs) const;

  /// True if all annotations needed for detailed costing are present.
  bool IsCostable(const Plan& plan) const;

  const PhaseTimeModel& model() const { return model_; }

  /// Attaches a counter block updated by every Cost/PredictDataflow call
  /// (nullptr detaches). Callers that drive the engine — e.g. the unit
  /// optimizer's RRS loop — may also bump counters through this pointer.
  void set_instrumentation(CostInstrumentation* stats) { stats_ = stats; }
  CostInstrumentation* instrumentation() const { return stats_; }

 private:
  /// Compile, or with `whole_plan` the pricer PredictDataflow runs: every
  /// job varying at its own configuration.
  Result<PlanPricer> CompileImpl(const Plan& plan,
                                 const std::vector<std::string>& tuned,
                                 bool whole_plan) const;

  /// Turns one prediction into an estimate: the predicted makespan, or the
  /// job-count fallback (`num_jobs`) when the prediction failed. Counts one
  /// what-if invocation.
  CostEstimate Estimate(Result<WorkflowDataflow> flow, size_t num_jobs) const;

  PhaseTimeModel model_;
  CostInstrumentation* stats_ = nullptr;
};

}  // namespace stubby
