#include "workflow/plan.h"

#include <algorithm>
#include <deque>
#include <set>
#include <sstream>

#include "common/strings.h"
#include "mr/bloom_filter.h"

namespace stubby {

namespace {

size_t CountBloomProbeStages(const std::vector<Stage>& stages) {
  size_t n = 0;
  for (const Stage& s : stages) {
    if (s.kind == Stage::Kind::kMap &&
        dynamic_cast<const BloomProbeMapFn*>(s.map_fn.get()) != nullptr) {
      ++n;
    }
  }
  return n;
}

/// Structural integrity of a branch's BloomTransferSpec: a reduce-side,
/// non-merge branch whose build and probe inputs exist and are disjoint,
/// key fields live in the map output schema (hashes are computed post-map
/// on both sides), the filter layout is in range, and exactly the probe
/// inputs carry exactly one probe stage each.
Status ValidateBloomSpec(const std::string& jid, const Branch& b) {
  const BloomTransferSpec& spec = *b.bloom;
  if (b.map_only()) {
    return Status::Internal("job '" + jid +
                            "': bloom transfer on a map-only branch");
  }
  if (b.merge_mode()) {
    return Status::Internal("job '" + jid +
                            "': bloom transfer on a merge-mode branch");
  }
  if (spec.build_input >= b.inputs.size()) {
    return Status::Internal("job '" + jid + "': bloom build input " +
                            std::to_string(spec.build_input) +
                            " out of range");
  }
  if (spec.probe_inputs.empty()) {
    return Status::Internal("job '" + jid + "': bloom spec has no probes");
  }
  std::set<size_t> probes;
  for (size_t pi : spec.probe_inputs) {
    if (pi >= b.inputs.size() || pi == spec.build_input) {
      return Status::Internal("job '" + jid + "': bloom probe input " +
                              std::to_string(pi) + " invalid");
    }
    if (!probes.insert(pi).second) {
      return Status::Internal("job '" + jid + "': duplicate bloom probe " +
                              std::to_string(pi));
    }
  }
  if (spec.key_fields.empty()) {
    return Status::Internal("job '" + jid + "': bloom spec has no keys");
  }
  for (const std::string& f : spec.key_fields) {
    if (!b.map_output_schema.Contains(f)) {
      return Status::Internal("job '" + jid + "': bloom key field '" + f +
                              "' missing from map output schema");
    }
  }
  if (spec.bits_log2 < 10 || spec.bits_log2 > 30 || spec.num_hashes < 1 ||
      spec.num_hashes > 8) {
    return Status::Internal("job '" + jid + "': bloom layout out of range");
  }
  for (size_t ii = 0; ii < b.inputs.size(); ++ii) {
    const size_t want = probes.count(ii) ? 1 : 0;
    const size_t got = CountBloomProbeStages(b.inputs[ii].map_stages);
    if (got != want) {
      return Status::Internal(
          "job '" + jid + "': input " + std::to_string(ii) + " carries " +
          std::to_string(got) + " bloom probe stages, expected " +
          std::to_string(want));
    }
  }
  return Status::OK();
}

}  // namespace

Status Plan::AddJob(JobVertex job) {
  if (jobs_.count(job.id)) {
    return Status::AlreadyExists("job '" + job.id + "' already in plan");
  }
  jobs_.emplace(job.id, std::move(job));
  return Status::OK();
}

Status Plan::AddDataset(DatasetVertex dataset) {
  if (datasets_.count(dataset.id)) {
    return Status::AlreadyExists("dataset '" + dataset.id +
                                 "' already in plan");
  }
  datasets_.emplace(dataset.id, std::move(dataset));
  return Status::OK();
}

void Plan::RemoveJob(const std::string& id) { jobs_.erase(id); }
void Plan::RemoveDataset(const std::string& id) { datasets_.erase(id); }

void Plan::RemoveOrphanDatasets() {
  std::set<std::string> referenced;
  for (const auto& [jid, job] : jobs_) {
    for (const auto& d : job.InputDatasets()) referenced.insert(d);
    for (const auto& d : job.OutputDatasets()) referenced.insert(d);
  }
  for (auto it = datasets_.begin(); it != datasets_.end();) {
    const DatasetVertex& d = it->second;
    if (!d.is_base_input && !d.is_workflow_output &&
        !referenced.count(d.id)) {
      it = datasets_.erase(it);
    } else {
      ++it;
    }
  }
}

Result<const JobVertex*> Plan::GetJob(const std::string& id) const {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return Status::NotFound("job '" + id + "'");
  return &it->second;
}

Result<JobVertex*> Plan::GetMutableJob(const std::string& id) {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return Status::NotFound("job '" + id + "'");
  return &it->second;
}

Result<const DatasetVertex*> Plan::GetDataset(const std::string& id) const {
  auto it = datasets_.find(id);
  if (it == datasets_.end()) return Status::NotFound("dataset '" + id + "'");
  return &it->second;
}

Result<DatasetVertex*> Plan::GetMutableDataset(const std::string& id) {
  auto it = datasets_.find(id);
  if (it == datasets_.end()) return Status::NotFound("dataset '" + id + "'");
  return &it->second;
}

std::string Plan::ProducerOf(const std::string& dataset_id) const {
  for (const auto& [jid, job] : jobs_) {
    for (const auto& out : job.OutputDatasets()) {
      if (out == dataset_id) return jid;
    }
  }
  return "";
}

std::vector<std::string> Plan::ConsumersOf(
    const std::string& dataset_id) const {
  std::vector<std::string> out;
  for (const auto& [jid, job] : jobs_) {
    for (const auto& in : job.InputDatasets()) {
      if (in == dataset_id) {
        out.push_back(jid);
        break;
      }
    }
  }
  return out;
}

std::vector<std::string> Plan::UpstreamJobs(const std::string& job_id) const {
  std::vector<std::string> out;
  std::set<std::string> seen;
  auto job = GetJob(job_id);
  if (!job.ok()) return out;
  for (const auto& in : (*job)->InputDatasets()) {
    std::string p = ProducerOf(in);
    if (!p.empty() && seen.insert(p).second) out.push_back(p);
  }
  return out;
}

std::vector<std::string> Plan::DownstreamJobs(
    const std::string& job_id) const {
  std::vector<std::string> out;
  std::set<std::string> seen;
  auto job = GetJob(job_id);
  if (!job.ok()) return out;
  for (const auto& o : (*job)->OutputDatasets()) {
    for (const auto& c : ConsumersOf(o)) {
      if (seen.insert(c).second) out.push_back(c);
    }
  }
  return out;
}

Result<std::vector<std::string>> Plan::TopologicalOrder() const {
  std::map<std::string, int> in_degree;
  std::map<std::string, std::vector<std::string>> edges;
  for (const auto& [jid, job] : jobs_) in_degree[jid] = 0;
  for (const auto& [jid, job] : jobs_) {
    for (const auto& c : DownstreamJobs(jid)) {
      edges[jid].push_back(c);
      in_degree[c] += 1;
    }
  }
  std::deque<std::string> ready;
  for (const auto& [jid, deg] : in_degree) {
    if (deg == 0) ready.push_back(jid);
  }
  std::vector<std::string> order;
  while (!ready.empty()) {
    std::string j = ready.front();
    ready.pop_front();
    order.push_back(j);
    for (const auto& c : edges[j]) {
      if (--in_degree[c] == 0) ready.push_back(c);
    }
  }
  if (order.size() != jobs_.size()) {
    return Status::Internal("workflow graph has a cycle");
  }
  return order;
}

bool Plan::HasPath(const std::string& a, const std::string& b) const {
  if (a == b) return true;
  std::set<std::string> visited;
  std::deque<std::string> queue{a};
  while (!queue.empty()) {
    std::string j = queue.front();
    queue.pop_front();
    if (!visited.insert(j).second) continue;
    for (const auto& c : DownstreamJobs(j)) {
      if (c == b) return true;
      queue.push_back(c);
    }
  }
  return false;
}

Status Plan::Validate() const {
  // Each dataset produced by at most one job.
  std::map<std::string, std::string> producer;
  for (const auto& [jid, job] : jobs_) {
    if (job.branches.empty()) {
      return Status::Internal("job '" + jid + "' has no branches");
    }
    for (const auto& out : job.OutputDatasets()) {
      auto [it, inserted] = producer.emplace(out, jid);
      if (!inserted) {
        return Status::Internal("dataset '" + out + "' produced by both '" +
                                it->second + "' and '" + jid + "'");
      }
      if (!datasets_.count(out)) {
        return Status::Internal("job '" + jid + "' writes unknown dataset '" +
                                out + "'");
      }
      auto ds = GetDataset(out);
      if ((*ds)->is_base_input) {
        return Status::Internal("job '" + jid +
                                "' writes base input dataset '" + out + "'");
      }
    }
  }

  for (const auto& [jid, job] : jobs_) {
    // A pinned count is the executor's reduce-task count, taken as is.
    if (!job.map_only() && job.conditions.num_reduce_fixed &&
        *job.conditions.num_reduce_fixed < 1) {
      return Status::Internal(
          "job '" + jid + "' pins " +
          std::to_string(*job.conditions.num_reduce_fixed) +
          " reduce tasks; a job with a reduce side needs at least 1");
    }
    std::set<std::string> tags;
    for (const Branch& b : job.branches) {
      if (!tags.insert(b.tag).second) {
        return Status::Internal("job '" + jid + "' has duplicate branch tag '" +
                                b.tag + "'");
      }
      if (b.inputs.empty()) {
        return Status::Internal("branch '" + b.tag + "' of job '" + jid +
                                "' has no inputs");
      }
      const Schema& per_input_target =
          b.merge_mode() ? b.merge_schema : b.map_output_schema;
      for (const BranchInput& in : b.inputs) {
        auto ds = GetDataset(in.dataset_id);
        if (!ds.ok()) {
          return Status::Internal("job '" + jid + "' reads unknown dataset '" +
                                  in.dataset_id + "'");
        }
        // Schema must flow through the map-side stages onto the declared
        // target schema.
        auto map_out = in.MapOutputSchema((*ds)->schema);
        if (!map_out.ok()) return map_out.status();
        if (*map_out != per_input_target) {
          return Status::Internal(
              "branch '" + b.tag + "' of job '" + jid + "': input '" +
              in.dataset_id + "' map pipeline yields " + map_out->ToString() +
              " but branch expects " + per_input_target.ToString());
        }
        // Grouped stages on the map side need partition-aligned reads.
        bool has_grouped = std::any_of(
            in.map_stages.begin(), in.map_stages.end(),
            [](const Stage& s) { return s.kind == Stage::Kind::kReduce; });
        if (has_grouped && !in.aligned) {
          return Status::Internal("branch '" + b.tag + "' of job '" + jid +
                                  "': grouped map-side stage on unaligned "
                                  "input '" +
                                  in.dataset_id + "'");
        }
        if (b.merge_mode() && !in.aligned) {
          return Status::Internal("branch '" + b.tag + "' of job '" + jid +
                                  "': merged stages require aligned input '" +
                                  in.dataset_id + "'");
        }
      }
      if (b.merge_mode()) {
        // Merged stages: the merged stream is sorted on merge_sort_fields;
        // each grouped merged stage must group on a prefix of that order.
        for (const auto& f : b.merge_sort_fields) {
          if (!b.merge_schema.Contains(f)) {
            return Status::Internal("job '" + jid + "': merge sort field '" +
                                    f + "' missing from merge schema");
          }
        }
        Schema cur = b.merge_schema;
        bool first_grouped = true;
        for (const Stage& s : b.merged_map_stages) {
          if (s.kind == Stage::Kind::kReduce) {
            for (const auto& g : s.group_fields) {
              if (!cur.Contains(g)) {
                return Status::Internal(
                    "job '" + jid + "': merged stage '" + s.name() +
                    "' groups on '" + g + "' absent from stream schema");
              }
            }
            if (first_grouped) {
              if (s.group_fields.size() > b.merge_sort_fields.size() ||
                  !std::equal(s.group_fields.begin(), s.group_fields.end(),
                              b.merge_sort_fields.begin())) {
                return Status::Internal(
                    "job '" + jid + "': merged grouping (" +
                    Join(s.group_fields, ",") +
                    ") is not a prefix of the merge sort order (" +
                    Join(b.merge_sort_fields, ",") + ")");
              }
              first_grouped = false;
            }
          }
          cur = s.output_schema();
        }
        if (cur != b.map_output_schema) {
          return Status::Internal(
              "branch '" + b.tag + "' of job '" + jid +
              "': merged stages yield " + cur.ToString() +
              " but branch declares " + b.map_output_schema.ToString());
        }
      }
      if (b.bloom) {
        STUBBY_RETURN_NOT_OK(ValidateBloomSpec(jid, b));
      } else {
        for (size_t ii = 0; ii < b.inputs.size(); ++ii) {
          if (CountBloomProbeStages(b.inputs[ii].map_stages) != 0) {
            return Status::Internal("job '" + jid +
                                    "': bloom probe stage without a "
                                    "BloomTransferSpec on the branch");
          }
        }
      }
      if (!b.map_only()) {
        if (b.partition.partition_fields.empty()) {
          return Status::Internal("branch '" + b.tag + "' of job '" + jid +
                                  "' has a reduce side but no partition "
                                  "fields");
        }
        for (const auto& f : b.partition.partition_fields) {
          if (!b.map_output_schema.Contains(f)) {
            return Status::Internal("job '" + jid + "': partition field '" +
                                    f + "' missing from map output schema " +
                                    b.map_output_schema.ToString());
          }
        }
        for (const auto& f : b.partition.sort_fields) {
          if (!b.map_output_schema.Contains(f)) {
            return Status::Internal("job '" + jid + "': sort field '" + f +
                                    "' missing from map output schema");
          }
        }
        // A range spec must fit within the job's effective reduce-task
        // count: Partitioner::Make rejects specs with more partitions than
        // reduce tasks, so a plan violating this cannot execute. The two can
        // diverge when conditions.num_reduce_fixed (which takes precedence)
        // pins a smaller count than split_points+1.
        if (b.partition.FixesNumPartitions() &&
            b.partition.NumRangePartitions() > job.EffectiveReduceTasks()) {
          return Status::Internal(
              "job '" + jid + "': range partition spec defines " +
              std::to_string(b.partition.NumRangePartitions()) +
              " partitions but the job's effective reduce-task count is " +
              std::to_string(job.EffectiveReduceTasks()));
        }
        // Every reduce stage's grouping must be a prefix of the sort order
        // at the point it runs. We check the first stage (later stages are
        // checked structurally by the transformations that created them).
        std::vector<std::string> group = b.GroupFields();
        if (group.size() > b.partition.sort_fields.size() ||
            !std::equal(group.begin(), group.end(),
                        b.partition.sort_fields.begin())) {
          return Status::Internal(
              "job '" + jid + "': reduce grouping (" + Join(group, ",") +
              ") is not a prefix of the sort order (" +
              Join(b.partition.sort_fields, ",") + ")");
        }
        // Schema must flow through the reduce-side stages.
        Schema cur = b.map_output_schema;
        for (const Stage& s : b.reduce_stages) {
          if (s.kind == Stage::Kind::kReduce) {
            for (const auto& g : s.group_fields) {
              if (!cur.Contains(g)) {
                return Status::Internal("job '" + jid + "': reduce stage '" +
                                        s.name() + "' groups on '" + g +
                                        "' absent from stream schema " +
                                        cur.ToString());
              }
            }
          }
          cur = s.output_schema();
        }
        auto out_ds = GetDataset(b.output_dataset);
        if (!out_ds.ok()) {
          return Status::Internal("branch '" + b.tag + "' of job '" + jid +
                                  "' writes unknown dataset '" +
                                  b.output_dataset + "'");
        }
        if (cur != (*out_ds)->schema) {
          return Status::Internal(
              "branch '" + b.tag + "' of job '" + jid + "' produces " +
              cur.ToString() + " but dataset '" + b.output_dataset +
              "' declares " + (*out_ds)->schema.ToString());
        }
      } else {
        auto out_ds = GetDataset(b.output_dataset);
        if (!out_ds.ok()) {
          return Status::Internal("branch '" + b.tag + "' of job '" + jid +
                                  "' writes unknown dataset '" +
                                  b.output_dataset + "'");
        }
        if (b.map_output_schema != (*out_ds)->schema) {
          return Status::Internal(
              "map-only branch '" + b.tag + "' of job '" + jid +
              "' produces " + b.map_output_schema.ToString() +
              " but dataset '" + b.output_dataset + "' declares " +
              (*out_ds)->schema.ToString());
        }
      }
    }
  }

  // Acyclicity.
  auto order = TopologicalOrder();
  if (!order.ok()) return order.status();
  return Status::OK();
}

std::string Plan::ToString() const {
  std::ostringstream os;
  auto order = TopologicalOrder();
  std::vector<std::string> ids;
  if (order.ok()) {
    ids = *order;
  } else {
    for (const auto& [jid, job] : jobs_) ids.push_back(jid);
  }
  os << "Plan{" << jobs_.size() << " jobs, " << datasets_.size()
     << " datasets}\n";
  for (const auto& jid : ids) {
    const JobVertex& job = jobs_.at(jid);
    os << "  " << jid << (job.map_only() ? " [map-only]" : "") << " cfg{"
       << job.config.ToString() << "}";
    // Range split points and a pinned count override the configured
    // reduce-task count; show what actually runs.
    const int reduce_tasks = job.EffectiveReduceTasks();
    if (!job.map_only() && reduce_tasks != job.config.num_reduce_tasks) {
      os << " effective_reduce_tasks=" << reduce_tasks;
    }
    os << "\n";
    for (const Branch& b : job.branches) {
      os << "    branch " << b.tag << ": ";
      bool first = true;
      for (const BranchInput& in : b.inputs) {
        if (!first) os << " + ";
        first = false;
        os << in.dataset_id;
        if (in.aligned) os << "[aligned]";
        if (!in.prune_partitions.empty()) {
          os << "[pruned:" << in.prune_partitions.size() << "]";
        }
        os << " ->";
        for (const Stage& s : in.map_stages) os << " " << s.name();
      }
      if (b.merge_mode()) {
        os << " |merge(" << Join(b.merge_sort_fields, ",") << ")|";
        for (const Stage& s : b.merged_map_stages) os << " " << s.name();
      }
      if (b.bloom) {
        os << " |bloom(build=" << b.inputs[b.bloom->build_input].dataset_id
           << " keys=" << Join(b.bloom->key_fields, ",") << ")|";
      }
      if (!b.map_only()) {
        os << " | " << b.partition.ToString() << " |";
        for (const Stage& s : b.reduce_stages) os << " " << s.name();
      }
      os << " -> " << b.output_dataset << "\n";
    }
  }
  return os.str();
}

}  // namespace stubby
