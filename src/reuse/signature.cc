#include "reuse/signature.h"

#include <algorithm>

#include "common/strings.h"

namespace stubby {

namespace {

/// Domain-separation tags. Every key family starts from a distinct tag so
/// a job key can never collide with a dataset or stream key.
constexpr uint64_t kTagDatasetContent = 0x5265557345644174ull;  // "ReUsEdAt"
constexpr uint64_t kTagJobReuse = 0x52655573456a4f62ull;        // "ReUsEjOb"
constexpr uint64_t kTagJobOutput = 0x526555734f757470ull;       // "ReUsOutp"
constexpr uint64_t kTagMapStream = 0x5265557353747234ull;       // "ReUsStr4"
constexpr uint64_t kTagWorkflowOut = 0x526555735766304full;     // "ReUsWf0O"

void MixKey(CostDigest* d, const CostKey& k) {
  d->Mix(k.first);
  d->Mix(k.second);
}

/// Mixes the job's full configuration and its effective reduce-task count
/// (which folds in conditions and range-partition overrides).
void MixJobConfiguration(CostDigest* d, const JobVertex& job) {
  const JobConfig& c = job.config;
  d->Mix(static_cast<uint64_t>(c.num_reduce_tasks));
  d->Mix(c.io_sort_mb);
  d->Mix(static_cast<uint64_t>(c.io_sort_factor));
  d->Mix(c.use_combiner);
  d->Mix(c.compress_map_output);
  d->Mix(c.compress_output);
  d->Mix(c.split_mb);
  d->Mix(static_cast<uint64_t>(job.EffectiveReduceTasks(c)));
}

void MixLayout(CostDigest* d, const Layout& layout) {
  d->Mix(layout.partitioning.has_value());
  if (layout.partitioning) MixPartitionSpecDigest(d, *layout.partitioning);
  d->Mix(layout.order_fields);
  d->Mix(layout.compressed);
  d->Mix(layout.block_mb);
}

/// The *logical* identity of a stage: which function runs, how it groups,
/// and whether it tees a side output. Excludes stats (cost-model input),
/// the tee dataset's name (plan-local), and cpu weights.
void MixLogicalStage(CostDigest* d, const Stage& s) {
  d->Mix(static_cast<uint64_t>(s.kind == Stage::Kind::kMap ? 1 : 2));
  d->Mix(s.name());
  d->Mix(s.group_fields);
  d->Mix(!s.tee_dataset.empty());
}

/// Partition spec with the split_points_from reference replaced by the
/// sample dataset's lineage key (the *content* of the split points is what
/// determines the shuffle, not the sample's plan-local name).
Status MixPartitionLineage(CostDigest* d, const PartitionSpec& p,
                           const std::map<std::string, CostKey>& datasets) {
  d->Mix(static_cast<uint64_t>(p.type));
  d->Mix(p.partition_fields);
  d->Mix(p.sort_fields);
  d->Mix(static_cast<uint64_t>(p.split_points.size()));
  for (const Row& r : p.split_points) {
    d->Mix(static_cast<uint64_t>(r.size()));
    for (const Value& v : r.values()) MixValueDigest(d, v);
  }
  d->Mix(!p.split_points_from.empty());
  if (!p.split_points_from.empty()) {
    auto it = datasets.find(p.split_points_from);
    if (it == datasets.end()) {
      return Status::NotFound("no lineage key for split-points dataset '" +
                              p.split_points_from + "'");
    }
    MixKey(d, it->second);
  }
  return Status::OK();
}

}  // namespace

CostKey DatasetContentKey(const StoredDataset& ds) {
  CostDigest d;
  d.Mix(kTagDatasetContent);
  d.Mix(ds.schema().fields());
  MixLayout(&d, ds.layout());
  d.Mix(ds.logical_scale());
  d.Mix(static_cast<uint64_t>(ds.num_partitions()));
  for (size_t p = 0; p < ds.num_partitions(); ++p) {
    const std::vector<Row>& rows = ds.partition(p);
    d.Mix(static_cast<uint64_t>(rows.size()));
    for (const Row& r : rows) {
      d.Mix(static_cast<uint64_t>(r.size()));
      for (const Value& v : r.values()) MixValueDigest(&d, v);
    }
  }
  return d.value();
}

CostKey JobOutputKey(const CostKey& job_key, size_t index) {
  CostDigest d;
  d.Mix(kTagJobOutput);
  MixKey(&d, job_key);
  d.Mix(static_cast<uint64_t>(index));
  return d.value();
}

CostKey MapStreamKey(const CostKey& input, const std::vector<Stage>& stages,
                     size_t prefix_len) {
  CostDigest d;
  d.Mix(kTagMapStream);
  MixKey(&d, input);
  d.Mix(static_cast<uint64_t>(prefix_len));
  for (size_t i = 0; i < prefix_len && i < stages.size(); ++i) {
    d.Mix(stages[i].name());
  }
  return d.value();
}

CostKey WorkflowOutputKey(const CostKey& original_lineage,
                          const CostKey& options_salt) {
  CostDigest d;
  d.Mix(kTagWorkflowOut);
  MixKey(&d, original_lineage);
  MixKey(&d, options_salt);
  return d.value();
}

bool PrefixEligible(const Branch& b, const BranchInput& in,
                    const JobConfig& config, size_t prefix_len) {
  if (prefix_len == 0 || prefix_len > in.map_stages.size()) return false;
  if (in.aligned || !in.prune_partitions.empty()) return false;
  if (b.merge_mode()) return false;
  // An active combiner regroups rows per map task, making every branch
  // output depend on the task boundaries the dropped stages ran under.
  if (b.combiner != nullptr && config.use_combiner) return false;
  // Dropped stages must replay bit-identically on the producer's chunking;
  // remaining stages must produce the same stream on the *new* chunking.
  // Both reduce to: every map stage of this input is a stateless, tee-free
  // map (a tee's partition boundaries are chunk-dependent).
  for (const Stage& s : in.map_stages) {
    if (s.kind != Stage::Kind::kMap) return false;
    if (!s.tee_dataset.empty()) return false;
    if (s.map_fn == nullptr || !s.map_fn->stateless()) return false;
  }
  return true;
}

Result<CostKey> JobReuseKey(const JobVertex& job, const Plan& plan,
                            const std::map<std::string, CostKey>& datasets) {
  CostDigest d;
  d.Mix(kTagJobReuse);
  d.Mix(static_cast<uint64_t>(job.branches.size()));
  for (const Branch& b : job.branches) {
    d.Mix(static_cast<uint64_t>(b.inputs.size()));
    for (const BranchInput& in : b.inputs) {
      auto it = datasets.find(in.dataset_id);
      if (it == datasets.end()) {
        return Status::NotFound("no lineage key for input dataset '" +
                                in.dataset_id + "'");
      }
      MixKey(&d, it->second);
      d.Mix(in.aligned);
      std::vector<int> prune = CanonicalPrunePartitions(in.prune_partitions);
      d.Mix(static_cast<uint64_t>(prune.size()));
      for (int p : prune) d.Mix(static_cast<uint64_t>(p));
      d.Mix(static_cast<uint64_t>(in.map_stages.size()));
      for (const Stage& s : in.map_stages) MixLogicalStage(&d, s);
    }
    d.Mix(static_cast<uint64_t>(b.merged_map_stages.size()));
    for (const Stage& s : b.merged_map_stages) MixLogicalStage(&d, s);
    d.Mix(b.merge_sort_fields);
    d.Mix(b.merge_schema.fields());
    d.Mix(b.map_output_schema.fields());
    if (!b.map_only()) {
      Status s = MixPartitionLineage(&d, b.partition, datasets);
      if (!s.ok()) return s;
      d.Mix(b.combiner != nullptr ? b.combiner->name() : std::string());
    } else {
      // Map-only branches have no shuffle: partition spec and combiner are
      // inert and excluded so leftover specs do not split identities.
      d.Mix(uint64_t{0});
    }
    d.Mix(b.preserved_partition.has_value());
    if (b.preserved_partition) {
      MixPartitionSpecDigest(&d, *b.preserved_partition);
    }
    auto out_ds = plan.GetDataset(b.output_dataset);
    if (!out_ds.ok()) return out_ds.status();
    d.Mix((*out_ds)->schema.fields());
  }
  MixJobConfiguration(&d, job);
  d.Mix(plan.cluster().compress_ratio);
  return d.value();
}

Result<std::set<std::string>> UpstreamJobClosure(
    const Plan& plan, const std::set<std::string>& targets) {
  STUBBY_ASSIGN_OR_RETURN(std::vector<std::string> order,
                          plan.TopologicalOrder());
  std::set<std::string> needed;
  for (const std::string& jid : targets) {
    if (plan.HasJob(jid)) needed.insert(jid);
  }
  // Reverse topological sweep: a job is needed when any consumer of one of
  // its outputs is (InputDatasets covers split_points_from samples, so
  // ConsumersOf sees that dependency too).
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (needed.count(*it)) continue;
    const JobVertex& job = **plan.GetJob(*it);
    bool feeds_needed = false;
    for (const std::string& out : job.OutputDatasets()) {
      for (const std::string& consumer : plan.ConsumersOf(out)) {
        if (needed.count(consumer)) {
          feeds_needed = true;
          break;
        }
      }
      if (feeds_needed) break;
    }
    if (feeds_needed) needed.insert(*it);
  }
  return needed;
}

Result<PlanLineage> ComputeLineage(const Plan& plan, const Dfs& dfs,
                                   const std::map<std::string, CostKey>* seed,
                                   const std::set<std::string>* restrict_to) {
  PlanLineage lineage;
  if (seed != nullptr) lineage.datasets = *seed;
  for (const auto& [id, ds] : plan.datasets()) {
    if (!ds.is_base_input || lineage.datasets.count(id)) continue;
    auto stored = dfs.Get(id);
    if (!stored.ok()) continue;  // unresolvable: downstream jobs get no key
    lineage.datasets.emplace(id, DatasetContentKey(**stored));
  }
  auto order = plan.TopologicalOrder();
  if (!order.ok()) return order.status();
  for (const std::string& jid : *order) {
    if (restrict_to != nullptr && restrict_to->count(jid) == 0) {
      continue;  // nobody downstream in the closure needs this key
    }
    const JobVertex& job = *(*plan.GetJob(jid));
    Result<CostKey> key = JobReuseKey(job, plan, lineage.datasets);
    if (!key.ok()) continue;  // an input was unresolvable
    lineage.jobs.emplace(jid, *key);
    std::vector<std::string> outputs = job.OutputDatasets();
    for (size_t i = 0; i < outputs.size(); ++i) {
      lineage.datasets.emplace(outputs[i], JobOutputKey(*key, i));
    }
  }
  return lineage;
}

std::map<std::string, CostKey> BaseInputContentSeeds(const Plan& plan,
                                                     const Dfs& dfs) {
  std::map<std::string, CostKey> seeds;
  for (const auto& [id, ds] : plan.datasets()) {
    if (!ds.is_base_input) continue;
    auto stored = dfs.Get(id);
    if (!stored.ok()) continue;
    seeds.emplace(id, DatasetContentKey(**stored));
  }
  return seeds;
}

std::string CostKeyToHex(const CostKey& key) {
  return StrFormat("%016llx%016llx", (unsigned long long)key.first,
                   (unsigned long long)key.second);
}

}  // namespace stubby
