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

#include <map>
#include <string>

#include "common/result.h"
#include "cost/dataflow.h"
#include "cost/phase_model.h"
#include "mr/cluster.h"
#include "workflow/plan.h"

namespace stubby {

class CostDigest;
class CostStore;
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

/// Cost estimator for plans.
class WhatIfEngine {
 public:
  explicit WhatIfEngine(ClusterSpec cluster)
      : model_(std::move(cluster)) {}

  /// Predicts the full dataflow and simulated makespan of `plan`. Fails
  /// with FailedPrecondition if required annotations (input sizes, stage
  /// statistics) are missing.
  Result<WorkflowDataflow> PredictDataflow(const Plan& plan) const;

  /// Costs the plan; never fails — uses the job-count fallback when the
  /// detailed prediction is not possible.
  CostEstimate Cost(const Plan& plan) const;

  /// Cost with caller-provided per-job content digests for the memo key.
  /// The caller guarantees each entry equals JobContentDigest(job) for that
  /// job in `plan` — how the RRS loop avoids re-digesting jobs it did not
  /// touch. Behaves exactly like Cost(plan) (and ignores the digests) when
  /// no cache is attached.
  CostEstimate CostWithDigests(
      const Plan& plan,
      const std::map<std::string, CostDigest>& job_digests) const;

  /// True if all annotations needed for detailed costing are present.
  bool IsCostable(const Plan& plan) const;

  const PhaseTimeModel& model() const { return model_; }

  /// Attaches a whole-plan memo (nullptr detaches) — stubbyd's shared
  /// CostCache, or a task-private CostCacheOverlay during parallel costing
  /// batches. Caching is transparent: cached and uncached costing return
  /// bit-identical estimates. The store must outlive the engine or be
  /// detached first.
  void set_cache(CostStore* cache) { cache_ = cache; }
  CostStore* cache() const { return cache_; }

  /// Attaches a counter block updated by every Cost/PredictDataflow call
  /// (nullptr detaches). Callers that drive the engine — e.g. the unit
  /// optimizer's RRS loop — may also bump counters through this pointer.
  void set_instrumentation(CostInstrumentation* stats) { stats_ = stats; }
  CostInstrumentation* instrumentation() const { return stats_; }

 private:
  /// Predicts one job's dataflow given predictions for its inputs, and
  /// records predictions for its outputs.
  Result<JobDataflow> PredictJob(
      const Plan& plan, const JobVertex& job,
      std::map<std::string, PredictedDataset>* datasets) const;

  CostEstimate CostImpl(
      const Plan& plan,
      const std::map<std::string, CostDigest>* job_digests) const;

  PhaseTimeModel model_;
  CostStore* cache_ = nullptr;
  CostInstrumentation* stats_ = nullptr;
};

}  // namespace stubby
