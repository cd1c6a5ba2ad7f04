#include "profiler/perturb.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/strings.h"

namespace stubby {

namespace {

/// Multiplicative skew factor in [1/(1+m), 1+m], log-uniform, keyed by
/// (seed, name) through the same string hash the profiler's noise model
/// uses — stable across platforms and runs.
double FactorFor(const PerturbOptions& options, const std::string& name) {
  if (options.magnitude <= 0.0) return 1.0;
  uint64_t h = HashString(std::to_string(options.seed) + "/" + name);
  double u = (static_cast<double>(h % 2001) - 1000.0) / 1000.0;  // [-1, 1]
  return std::exp(u * std::log1p(options.magnitude));
}

void PerturbStage(const PerturbOptions& options, const std::string& key,
                  Stage* stage) {
  if (!stage->stats) return;
  StageStats& s = *stage->stats;
  const double f = FactorFor(options, "sel/" + key);
  s.record_selectivity = std::max(1e-6, s.record_selectivity * f);
  s.byte_selectivity = std::max(1e-6, s.byte_selectivity * f);
  s.cpu_per_record =
      std::max(1e-6, s.cpu_per_record * FactorFor(options, "cpu/" + key));
  s.groups_per_record = std::clamp(
      s.groups_per_record * FactorFor(options, "grp/" + key), 1e-6, 1.0);
}

}  // namespace

Status PerturbProfiles(Plan* plan, const PerturbOptions& options) {
  if (options.magnitude <= 0.0) return Status::OK();

  std::vector<std::string> dataset_ids;
  for (const auto& [id, v] : plan->datasets()) {
    if (v.is_base_input) dataset_ids.push_back(id);
  }
  for (const std::string& id : dataset_ids) {
    STUBBY_ASSIGN_OR_RETURN(DatasetVertex * v, plan->GetMutableDataset(id));
    const double f = FactorFor(options, "ds/" + id);
    if (v->annotation.num_records) {
      v->annotation.num_records = std::max<uint64_t>(
          1, static_cast<uint64_t>(
                 static_cast<double>(*v->annotation.num_records) * f));
    }
    if (v->annotation.bytes) {
      v->annotation.bytes = std::max<uint64_t>(
          1, static_cast<uint64_t>(static_cast<double>(*v->annotation.bytes) *
                                   f));
    }
  }

  std::vector<std::string> job_ids;
  for (const auto& [jid, job] : plan->jobs()) job_ids.push_back(jid);
  for (const std::string& jid : job_ids) {
    STUBBY_ASSIGN_OR_RETURN(JobVertex * jobp, plan->GetMutableJob(jid));
    for (Branch& b : jobp->branches) {
      const std::string bkey = jid + "/" + b.tag;
      for (BranchInput& in : b.inputs) {
        for (size_t i = 0; i < in.map_stages.size(); ++i) {
          PerturbStage(options, bkey + "/" + in.dataset_id + "/m" +
                                    std::to_string(i),
                       &in.map_stages[i]);
        }
      }
      for (size_t i = 0; i < b.merged_map_stages.size(); ++i) {
        PerturbStage(options, bkey + "/g" + std::to_string(i),
                     &b.merged_map_stages[i]);
      }
      for (size_t i = 0; i < b.reduce_stages.size(); ++i) {
        PerturbStage(options, bkey + "/r" + std::to_string(i),
                     &b.reduce_stages[i]);
      }
      if (b.annotations.profile) {
        ProfileAnnotation& p = *b.annotations.profile;
        p.avg_input_record_bytes = std::max(
            1.0, p.avg_input_record_bytes * FactorFor(options, "rb/" + bkey));
        if (p.k2_distinct_groups > 0.0) {
          p.k2_distinct_groups = std::max(
              1.0, p.k2_distinct_groups * FactorFor(options, "k2/" + bkey));
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace stubby
