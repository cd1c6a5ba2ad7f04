#include "optimizer/configuration.h"

#include <algorithm>

namespace stubby {

JobConfig EffectiveConfig(const JobVertex& job, const JobConfig& config) {
  JobConfig c = config;
  if (job.conditions.num_reduce_fixed) {
    c.num_reduce_tasks = *job.conditions.num_reduce_fixed;
  }
  bool has_combiner =
      std::any_of(job.branches.begin(), job.branches.end(),
                  [](const Branch& b) { return b.combiner != nullptr; });
  if (!has_combiner) c.use_combiner = false;
  return c;
}

Status ApplyConfiguration(Plan* plan, const std::string& job_id,
                          const JobConfig& config) {
  STUBBY_ASSIGN_OR_RETURN(JobVertex * job, plan->GetMutableJob(job_id));
  const JobConfig c = EffectiveConfig(*job, config);
  // Output compression flows into the produced datasets' planned layouts.
  if (c.compress_output != job->config.compress_output) {
    for (const Branch& b : job->branches) {
      auto dv = plan->GetMutableDataset(b.output_dataset);
      if (dv.ok()) {
        (*dv)->layout.compressed = c.compress_output;
        if ((*dv)->annotation.layout) {
          (*dv)->annotation.layout->compressed = c.compress_output;
        }
      }
    }
  }
  job->config = c;
  return Status::OK();
}

ConfigSpace SpaceForJob(const JobVertex& job, const ClusterSpec& cluster) {
  bool has_combiner = std::any_of(
      job.branches.begin(), job.branches.end(),
      [](const Branch& b) { return b.combiner != nullptr; });
  ConfigSpace all =
      ConfigSpace::Default(cluster.total_reduce_slots(), has_combiner);
  bool reduce_pinned =
      job.map_only() || job.conditions.num_reduce_fixed.has_value();
  for (const Branch& b : job.branches) {
    // Explicit range splits determine the partition count; sampler-resolved
    // splits track the config, so those stay tunable.
    if (b.partition.FixesNumPartitions()) reduce_pinned = true;
  }
  if (!reduce_pinned) return all;
  std::vector<ConfigDimension> dims;
  for (const ConfigDimension& d : all.dims()) {
    if (d.name != "num_reduce_tasks") dims.push_back(d);
  }
  return ConfigSpace::FromDims(std::move(dims));
}

JobConfig RuleOfThumbConfig(const JobVertex& job, const ClusterSpec& cluster,
                            const Plan* plan) {
  JobConfig c;
  // "Set the number of reduce tasks to slightly less than one full wave",
  // scaled down for small inputs (Pig's ~1 reducer/GB heuristic).
  int wave = std::max(1, static_cast<int>(cluster.total_reduce_slots() * 0.95));
  c.num_reduce_tasks = wave;
  if (plan != nullptr) {
    uint64_t bytes = 0;
    bool all_known = true;
    for (const auto& id : job.InputDatasets()) {
      auto dv = plan->GetDataset(id);
      if (dv.ok() && (*dv)->annotation.bytes) {
        bytes += *(*dv)->annotation.bytes;
      } else {
        all_known = false;
      }
    }
    if (all_known && bytes > 0) {
      int per_gb = static_cast<int>(bytes / (1ull << 30)) + 1;
      c.num_reduce_tasks = std::clamp(per_gb, 1, wave);
    }
  }
  c.io_sort_mb = 128.0;
  c.io_sort_factor = 10;
  c.split_mb = 64.0;
  c.compress_map_output = false;
  c.compress_output = false;
  // "Use a combiner whenever the job provides one."
  c.use_combiner = std::any_of(
      job.branches.begin(), job.branches.end(),
      [](const Branch& b) { return b.combiner != nullptr; });
  if (job.conditions.num_reduce_fixed) {
    c.num_reduce_tasks = *job.conditions.num_reduce_fixed;
  }
  return c;
}

}  // namespace stubby
