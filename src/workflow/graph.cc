#include "workflow/graph.h"

#include <algorithm>
#include <set>

#include "dfs/dataset.h"

namespace stubby {

Stage Stage::Map(std::shared_ptr<MapFn> fn, std::optional<StageStats> stats) {
  Stage s;
  s.kind = Kind::kMap;
  s.map_fn = std::move(fn);
  s.stats = std::move(stats);
  return s;
}

Stage Stage::Reduce(std::shared_ptr<ReduceFn> fn,
                    std::vector<std::string> group_fields,
                    std::optional<StageStats> stats) {
  Stage s;
  s.kind = Kind::kReduce;
  s.reduce_fn = std::move(fn);
  s.group_fields = std::move(group_fields);
  s.stats = std::move(stats);
  return s;
}

Result<Schema> BranchInput::MapOutputSchema(const Schema& input_schema) const {
  Schema cur = input_schema;
  for (const Stage& s : map_stages) {
    if (s.kind == Stage::Kind::kMap) {
      // Black-box check: the declared input schema of the function must be
      // satisfiable from the current stream schema.
      cur = s.map_fn->output_schema();
    } else {
      for (const auto& g : s.group_fields) {
        if (!cur.Contains(g)) {
          return Status::FailedPrecondition(
              "reduce stage '" + s.name() + "' groups on '" + g +
              "' absent from stream schema " + cur.ToString());
        }
      }
      cur = s.reduce_fn->output_schema();
    }
  }
  return cur;
}

std::vector<std::string> Branch::GroupFields() const {
  for (const Stage& s : reduce_stages) {
    if (s.kind == Stage::Kind::kReduce) return s.group_fields;
  }
  return {};
}

Result<Schema> Branch::OutputSchema(const Schema& input_schema) const {
  Schema cur = map_output_schema;
  if (merge_mode()) {
    cur = merge_schema;
    for (const Stage& s : merged_map_stages) cur = s.output_schema();
  } else if (inputs.size() == 1) {
    STUBBY_ASSIGN_OR_RETURN(cur, inputs[0].MapOutputSchema(input_schema));
  }
  for (const Stage& s : reduce_stages) cur = s.output_schema();
  return cur;
}

bool JobVertex::map_only() const {
  return std::all_of(branches.begin(), branches.end(),
                     [](const Branch& b) { return b.map_only(); });
}

std::vector<std::string> JobVertex::InputDatasets() const {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const Branch& b : branches) {
    for (const BranchInput& in : b.inputs) {
      if (seen.insert(in.dataset_id).second) out.push_back(in.dataset_id);
    }
    // Runtime-resolved split points create a data dependency too.
    if (!b.partition.split_points_from.empty() &&
        seen.insert(b.partition.split_points_from).second) {
      out.push_back(b.partition.split_points_from);
    }
  }
  return out;
}

std::vector<std::string> JobVertex::OutputDatasets() const {
  std::vector<std::string> out;
  std::set<std::string> seen;
  auto add = [&](const std::string& id) {
    if (!id.empty() && seen.insert(id).second) out.push_back(id);
  };
  for (const Branch& b : branches) {
    for (const BranchInput& in : b.inputs) {
      for (const Stage& s : in.map_stages) add(s.tee_dataset);
    }
    for (const Stage& s : b.merged_map_stages) add(s.tee_dataset);
    for (const Stage& s : b.reduce_stages) add(s.tee_dataset);
    add(b.output_dataset);
  }
  return out;
}

Result<const Branch*> JobVertex::SoleBranch() const {
  if (branches.size() != 1) {
    return Status::FailedPrecondition("job '" + id +
                                      "' is horizontally packed");
  }
  return &branches[0];
}

std::optional<int> JobVertex::PinnedReduceTasks() const {
  if (map_only()) return 0;
  if (conditions.num_reduce_fixed) return *conditions.num_reduce_fixed;
  // Range partitioning with explicit split points fixes the count.
  for (const Branch& b : branches) {
    if (!b.map_only() && b.partition.FixesNumPartitions() &&
        !b.partition.split_points.empty()) {
      return b.partition.NumRangePartitions();
    }
  }
  return std::nullopt;
}

int JobVertex::EffectiveReduceTasks(const JobConfig& config) const {
  return PinnedReduceTasks().value_or(std::max(1, config.num_reduce_tasks));
}

std::vector<int> CanonicalPrunePartitions(const std::vector<int>& prune) {
  std::vector<int> canonical = prune;
  std::sort(canonical.begin(), canonical.end());
  canonical.erase(std::unique(canonical.begin(), canonical.end()),
                  canonical.end());
  return canonical;
}

Result<std::vector<int>> SelectedPartitions(const StoredDataset& ds,
                                            const std::vector<int>& prune) {
  std::vector<int> parts;
  if (prune.empty()) {
    for (size_t i = 0; i < ds.num_partitions(); ++i) {
      parts.push_back(static_cast<int>(i));
    }
    return parts;
  }
  for (int p : CanonicalPrunePartitions(prune)) {
    if (p < 0 || static_cast<size_t>(p) >= ds.num_partitions()) {
      return Status::InvalidArgument(
          "prune partition " + std::to_string(p) + " out of range: dataset '" +
          ds.id() + "' has " + std::to_string(ds.num_partitions()) +
          " partitions");
    }
    parts.push_back(p);
  }
  return parts;
}

std::vector<InputGroup> GroupBranchInputs(const JobVertex& job) {
  std::vector<InputGroup> groups;
  for (size_t bi = 0; bi < job.branches.size(); ++bi) {
    const Branch& b = job.branches[bi];
    if (b.merge_mode()) continue;  // merge-mode branches form their own tasks
    for (size_t ii = 0; ii < b.inputs.size(); ++ii) {
      const BranchInput& in = b.inputs[ii];
      std::vector<int> prune = CanonicalPrunePartitions(in.prune_partitions);
      InputGroup* group = nullptr;
      for (auto& g : groups) {
        if (g.dataset_id == in.dataset_id && g.aligned == in.aligned &&
            g.prune_partitions == prune) {
          group = &g;
          break;
        }
      }
      if (group == nullptr) {
        groups.push_back(InputGroup{in.dataset_id, in.aligned,
                                    std::move(prune), in.prune_fraction,
                                    {}});
        group = &groups.back();
      }
      group->subscribers.emplace_back(bi, ii);
    }
  }
  return groups;
}

Layout DeriveOutputLayout(const Branch& branch, const JobConfig& config,
                          const Schema& output_schema) {
  Layout layout;
  layout.compressed = config.compress_output;
  if (branch.map_only() && !branch.preserved_partition) {
    // Map-only outputs inherit nothing in general: each map task writes one
    // block. Merge-mode branches with co-aligned inputs preserve the input
    // partitioning (task t reads partition t, writes partition t) and
    // record it in preserved_partition.
    return layout;
  }
  // Partitioning/order fields survive only if they exist under the same
  // names in the output schema.
  const PartitionSpec& p = branch.map_only() ? *branch.preserved_partition
                                             : branch.partition;
  bool fields_survive =
      !p.partition_fields.empty() &&
      std::all_of(p.partition_fields.begin(), p.partition_fields.end(),
                  [&](const std::string& f) {
                    return output_schema.Contains(f);
                  });
  if (fields_survive) {
    PartitionSpec out = p;
    // Keep only the leading run of sort fields that survive in the output.
    std::vector<std::string> order;
    for (const auto& f : p.sort_fields) {
      if (!output_schema.Contains(f)) break;
      order.push_back(f);
    }
    out.sort_fields = order;
    layout.partitioning = out;
    layout.order_fields = order;
  }
  return layout;
}

}  // namespace stubby
