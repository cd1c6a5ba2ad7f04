// Configuration transformation (Section 3.5): changes a job's configuration
// subject to the conditions accumulated on it (fixed reduce-task counts,
// range-partitioning split counts). Unlike the packing transformations it
// does not change the workflow graph; the search explores it through RRS
// over the per-job configuration spaces.

#pragma once

#include "common/result.h"
#include "mr/cluster.h"
#include "mr/job_config.h"
#include "optimizer/transform.h"

namespace stubby {

/// The configuration `job` runs with when configured as `config`: a fixed
/// reduce-task count wins over the configured one, and the combiner toggle
/// is off when no branch has a combine function.
JobConfig EffectiveConfig(const JobVertex& job, const JobConfig& config);

/// Sets the job's configuration to EffectiveConfig(job, config) and flows
/// its output compression into the produced datasets' planned layouts.
Status ApplyConfiguration(Plan* plan, const std::string& job_id,
                          const JobConfig& config);

/// The RRS search space for one job: excludes dimensions pinned by
/// conditions (reduce count when fixed or range-determined) and the
/// combiner toggle when no branch has a combine function.
ConfigSpace SpaceForJob(const JobVertex& job, const ClusterSpec& cluster);

/// Rule-of-thumb configuration in the spirit of the Cloudera tuning tips
/// the paper's Baseline uses [3] and Pig's own heuristics: roughly one
/// reduce task per GB of (annotated) input, capped slightly below one
/// cluster wave; a large sort buffer; compression off; combiner on when
/// available. `plan` supplies dataset size annotations (pass the job's
/// plan; unknown sizes fall back to the one-wave setting).
JobConfig RuleOfThumbConfig(const JobVertex& job, const ClusterSpec& cluster,
                            const Plan* plan = nullptr);

}  // namespace stubby
