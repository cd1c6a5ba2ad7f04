#include "cost/whatif.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "cost/cost_cache.h"
#include "cost/schedule.h"
#include "mr/bloom_filter.h"

namespace stubby {

namespace {

constexpr double kMB = 1024.0 * 1024.0;

/// Estimated distinct count of the partition key from the branch's profile
/// (measured group cardinality when available, else the product of
/// per-field histogram distincts; 0 = unknown).
double EstimateDistinctKeys(const Branch& branch) {
  const auto& profile = branch.annotations.profile;
  if (!profile) return 0.0;
  if (profile->k2_distinct_groups > 0 &&
      branch.partition.partition_fields == branch.GroupFields()) {
    return profile->k2_distinct_groups;
  }
  double distinct = 1.0;
  bool any = false;
  for (const auto& f : branch.partition.partition_fields) {
    const KeyHistogram* h = profile->FindHistogram(f);
    if (h != nullptr && h->distinct > 0) {
      distinct *= static_cast<double>(h->distinct);
      any = true;
    }
  }
  return any ? distinct : 0.0;
}

/// Per-branch reduce-side distribution estimate.
struct ReduceDistribution {
  int nonempty = 1;
  double max_fraction = 1.0;  ///< of the branch's shuffle volume
};

ReduceDistribution EstimateReduceDistribution(const Branch& branch, int R) {
  ReduceDistribution d;
  const PartitionSpec& p = branch.partition;
  const auto& profile = branch.annotations.profile;
  if (p.type == PartitionType::kRange && !p.split_points.empty() &&
      p.partition_fields.size() == 1 && profile) {
    const KeyHistogram* h = profile->FindHistogram(p.partition_fields[0]);
    if (h != nullptr) {
      // Per-partition fractions from the histogram over the split points.
      double max_frac = 0.0;
      int nonempty = 0;
      double prev = h->min;
      int parts = static_cast<int>(p.split_points.size()) + 1;
      for (int i = 0; i <= static_cast<int>(p.split_points.size()); ++i) {
        double hi = (i < static_cast<int>(p.split_points.size()))
                        ? p.split_points[static_cast<size_t>(i)][0].AsDouble()
                        : h->max + 1.0;
        double frac = h->FractionInRange(prev, hi);
        if (frac > 0) ++nonempty;
        max_frac = std::max(max_frac, frac);
        prev = hi;
      }
      d.nonempty = std::max(1, nonempty);
      d.max_fraction = std::max(max_frac, 1.0 / parts);
      // Equi-width buckets cannot see single heavy-hitter keys; a hot key
      // is never split across partitions, so it lower-bounds the skew.
      d.max_fraction = std::max(d.max_fraction, h->max_key_fraction);
      return d;
    }
  }
  if (p.type == PartitionType::kRange && !p.split_points_from.empty()) {
    // Sampled split points approximate quantiles, but an atomic key's mass
    // is never split: the profiled key distribution bounds the balance.
    const KeyHistogram* h =
        (profile && p.partition_fields.size() == 1)
            ? profile->FindHistogram(p.partition_fields[0])
            : nullptr;
    if (h != nullptr) {
      d.nonempty = static_cast<int>(std::clamp(
          static_cast<double>(h->distinct), 1.0, static_cast<double>(R)));
      d.max_fraction = std::max(std::min(1.0, 1.2 / d.nonempty),
                                h->max_key_fraction);
    } else {
      d.nonempty = R;
      d.max_fraction = std::min(1.0, 1.2 / R);
    }
    return d;
  }
  // Hash partitioning: parallelism is bounded by the distinct key count,
  // and the largest partition carries the heavy-hitter group plus an
  // average share of the rest.
  double distinct = EstimateDistinctKeys(branch);
  if (distinct > 0.0) {
    // Balls-in-bins: the partitions actually hit by `distinct` keys.
    double hit = R * (1.0 - std::exp(-distinct / R));
    d.nonempty = static_cast<int>(
        std::clamp(hit, 1.0, static_cast<double>(R)));
  } else {
    d.nonempty = R;
  }
  double hot = 0.0;
  if (profile && branch.partition.partition_fields == branch.GroupFields()) {
    hot = profile->k2_max_group_fraction;
  } else if (profile && branch.partition.partition_fields.size() == 1) {
    const KeyHistogram* h =
        profile->FindHistogram(branch.partition.partition_fields[0]);
    if (h != nullptr) hot = h->max_key_fraction;
  }
  double base = 1.0 / static_cast<double>(d.nonempty);
  // Balls-in-bins max-load correction: with d keys over R partitions the
  // fullest partition holds about d/R + sqrt(2 d/R ln R) keys.
  double imbalance = 1.0;
  if (distinct > 0.0 && d.nonempty > 1) {
    double per = distinct / d.nonempty;
    imbalance = 1.0 + std::sqrt(2.0 * std::log(static_cast<double>(
                                     d.nonempty)) / std::max(1e-9, per));
  }
  d.max_fraction = std::min(
      1.0, std::max(hot + (1.0 - hot) * base, base * imbalance));
  return d;
}

}  // namespace

/// One job of a compiled plan: its dataset reads and writes as indices into
/// the pricer's dataset table (-1: a read with no prediction, or no tee).
struct PlanPricer::Job {
  struct BranchSlots {
    std::vector<int> input_ds;                 ///< per input
    std::vector<std::vector<int>> input_tees;  ///< per input, per map stage
    std::vector<int> merged_tees;              ///< per merged map stage
    std::vector<int> reduce_tees;              ///< per reduce stage
    int output_ds = -1;
  };

  const JobVertex* vertex = nullptr;
  /// Index into the point's configurations, or -1 when not tuned.
  int tuned_slot = -1;
  /// Tuned, or downstream of a tuned job.
  bool varying = false;
  std::vector<InputGroup> groups;
  std::vector<int> group_ds;
  std::vector<BranchSlots> branches;
  /// Per branch: the reduce distribution, when the job's R is pinned
  /// (empty otherwise).
  std::vector<ReduceDistribution> pinned_dists;
  /// The prediction of a fixed job.
  JobDataflow dataflow;
  JobTaskTimes times;
};

PlanPricer::PlanPricer(const PhaseTimeModel& model) : model_(&model) {}
PlanPricer::PlanPricer(PlanPricer&&) noexcept = default;
PlanPricer& PlanPricer::operator=(PlanPricer&&) noexcept = default;
PlanPricer::~PlanPricer() = default;

Result<JobDataflow> PlanPricer::PredictJob(
    const Job& cj, const JobConfig& config,
    std::vector<PredictedDataset>* datasets) const {
  const JobVertex& job = *cj.vertex;
  auto& table = *datasets;
  JobDataflow df;
  df.job_id = job.id;
  const int R = job.map_only() ? 0 : job.EffectiveReduceTasks(config);
  df.num_reduce_tasks = R;
  df.output_compressed = config.compress_output;

  struct BranchAccum {
    double map_out_records = 0.0;
    double map_out_bytes = 0.0;
    int tasks = 0;  ///< map tasks whose pipelines include this branch
  };
  std::vector<BranchAccum> acc(job.branches.size());

  for (size_t gi = 0; gi < cj.groups.size(); ++gi) {
    const InputGroup& g = cj.groups[gi];
    if (cj.group_ds[gi] < 0) {
      return Status::FailedPrecondition("no size prediction for dataset '" +
                                        g.dataset_id + "'");
    }
    const PredictedDataset& pred = table[cj.group_ds[gi]];
    double frac = g.prune_partitions.empty() ? 1.0 : g.prune_fraction;
    double in_records = pred.records * frac;
    double in_bytes = pred.bytes * frac;
    double in_stored = pred.stored_bytes * frac;

    int tasks;
    double max_task_bytes;
    if (g.aligned) {
      tasks = g.prune_partitions.empty()
                  ? std::max(1, pred.partitions)
                  : static_cast<int>(g.prune_partitions.size());
      double skew_ratio =
          pred.max_partition_fraction * std::max(1, pred.partitions);
      max_task_bytes = (in_bytes / tasks) * std::max(1.0, skew_ratio);
    } else {
      tasks = std::max(
          1, static_cast<int>(
                 std::ceil(in_stored / (config.split_mb * kMB))));
      tasks = std::min(tasks, kMaxSimulatedMapTasks);
      max_task_bytes = in_bytes / tasks;
    }
    df.num_map_tasks += tasks;
    df.map_input_records += static_cast<uint64_t>(in_records);
    df.map_input_bytes += static_cast<uint64_t>(in_bytes);
    df.map_input_stored_bytes += static_cast<uint64_t>(in_stored);
    df.max_map_task_input_bytes =
        std::max(df.max_map_task_input_bytes,
                 static_cast<uint64_t>(max_task_bytes));
    df.pipelines_per_task = std::max(
        df.pipelines_per_task, static_cast<int>(g.subscribers.size()));

    // Fold each subscribing pipeline over this group's records. Stage
    // selectivities were profiled on the *unpruned* data; a pruned read
    // skips exactly the rows the filter would have discarded (that is the
    // pruning correctness argument), so record/byte flow folds from the
    // full volume while I/O and first-stage CPU see the pruned read.
    for (const auto& [bi, ii] : g.subscribers) {
      const BranchInput& input = job.branches[bi].inputs[ii];
      const std::vector<int>& tees = cj.branches[bi].input_tees[ii];
      double recs = pred.records;
      double bytes = pred.bytes;
      double cpu_basis = in_records;
      for (size_t si = 0; si < input.map_stages.size(); ++si) {
        const Stage& s = input.map_stages[si];
        if (!s.stats) {
          return Status::FailedPrecondition(
              "stage '" + s.name() + "' of job '" + job.id +
              "' has no profiled statistics");
        }
        df.map_cpu_units += std::min(cpu_basis, recs) * s.stats->cpu_per_record;
        recs *= s.stats->record_selectivity;
        bytes *= s.stats->byte_selectivity;
        cpu_basis = recs;
        if (tees[si] >= 0) {
          df.tee_bytes += static_cast<uint64_t>(bytes);
          PredictedDataset tee;
          tee.records = recs;
          tee.bytes = bytes;
          tee.stored_bytes = bytes;
          tee.partitions = tasks;
          tee.max_partition_fraction = 1.0 / std::max(1, tasks);
          table[tees[si]] = tee;
        }
      }
      // An empty pipeline forwards exactly what was read.
      acc[bi].map_out_records += input.map_stages.empty() ? in_records : recs;
      acc[bi].map_out_bytes += input.map_stages.empty() ? in_bytes : bytes;
      acc[bi].tasks += tasks;
    }
  }

  // Merge-mode branches: co-aligned tasks over all inputs, per-input prefix
  // pipelines, then the merged stages over the combined stream.
  for (size_t bi = 0; bi < job.branches.size(); ++bi) {
    const Branch& b = job.branches[bi];
    if (!b.merge_mode()) continue;
    const Job::BranchSlots& slots = cj.branches[bi];
    int tasks = 1;
    double merged_recs = 0.0;
    double merged_bytes = 0.0;
    double task_in_bytes = 0.0;   // avg per task, across inputs
    double max_task_bytes = 0.0;
    for (size_t ii = 0; ii < b.inputs.size(); ++ii) {
      const BranchInput& input = b.inputs[ii];
      if (slots.input_ds[ii] < 0) {
        return Status::FailedPrecondition("no size prediction for dataset '" +
                                          input.dataset_id + "'");
      }
      const PredictedDataset& pred = table[slots.input_ds[ii]];
      double frac =
          input.prune_partitions.empty() ? 1.0 : input.prune_fraction;
      int in_tasks = input.prune_partitions.empty()
                         ? std::max(1, pred.partitions)
                         : static_cast<int>(input.prune_partitions.size());
      tasks = std::max(tasks, in_tasks);
      double in_records = pred.records * frac;
      double in_bytes = pred.bytes * frac;
      double in_stored = pred.stored_bytes * frac;
      df.map_input_records += static_cast<uint64_t>(in_records);
      df.map_input_bytes += static_cast<uint64_t>(in_bytes);
      df.map_input_stored_bytes += static_cast<uint64_t>(in_stored);
      task_in_bytes += in_bytes / in_tasks;
      double skew_ratio =
          pred.max_partition_fraction * std::max(1, pred.partitions);
      max_task_bytes += (in_bytes / in_tasks) * std::max(1.0, skew_ratio);

      double recs = pred.records;
      double bytes = pred.bytes;
      double cpu_basis = in_records;
      for (size_t si = 0; si < input.map_stages.size(); ++si) {
        const Stage& s = input.map_stages[si];
        if (!s.stats) {
          return Status::FailedPrecondition(
              "stage '" + s.name() + "' of job '" + job.id +
              "' has no profiled statistics");
        }
        df.map_cpu_units += std::min(cpu_basis, recs) * s.stats->cpu_per_record;
        recs *= s.stats->record_selectivity;
        bytes *= s.stats->byte_selectivity;
        cpu_basis = recs;
        if (slots.input_tees[ii][si] >= 0) {
          df.tee_bytes += static_cast<uint64_t>(bytes);
          PredictedDataset tee;
          tee.records = recs;
          tee.bytes = bytes;
          tee.stored_bytes = bytes;
          tee.partitions = in_tasks;
          tee.max_partition_fraction = 1.0 / std::max(1, in_tasks);
          table[slots.input_tees[ii][si]] = tee;
        }
      }
      merged_recs += input.map_stages.empty() ? in_records : recs;
      merged_bytes += input.map_stages.empty() ? in_bytes : bytes;
    }
    df.num_map_tasks += tasks;
    df.max_map_task_input_bytes =
        std::max(df.max_map_task_input_bytes,
                 static_cast<uint64_t>(max_task_bytes));
    // Fold the merged stages.
    double recs = merged_recs;
    double bytes = merged_bytes;
    for (size_t si = 0; si < b.merged_map_stages.size(); ++si) {
      const Stage& s = b.merged_map_stages[si];
      if (!s.stats) {
        return Status::FailedPrecondition("stage '" + s.name() +
                                          "' of job '" + job.id +
                                          "' has no profiled statistics");
      }
      df.map_cpu_units += recs * s.stats->cpu_per_record;
      recs *= s.stats->record_selectivity;
      bytes *= s.stats->byte_selectivity;
      if (slots.merged_tees[si] >= 0) {
        df.tee_bytes += static_cast<uint64_t>(bytes);
        PredictedDataset tee;
        tee.records = recs;
        tee.bytes = bytes;
        tee.stored_bytes = bytes;
        tee.partitions = tasks;
        tee.max_partition_fraction = 1.0 / std::max(1, tasks);
        table[slots.merged_tees[si]] = tee;
      }
    }
    acc[bi].map_out_records = recs;
    acc[bi].map_out_bytes = bytes;
    acc[bi].tasks = tasks;
  }

  for (size_t bi = 0; bi < job.branches.size(); ++bi) {
    const Branch& b = job.branches[bi];
    const Job::BranchSlots& slots = cj.branches[bi];
    double recs = acc[bi].map_out_records;
    double bytes = acc[bi].map_out_bytes;

    // Bloom predicate transfer: the pre-map build pass re-runs the build
    // input's map pipeline to hash its join keys — an extra scan of the
    // build input plus per-output-row hashing, then one filter written to
    // the DFS and fetched by every map task (priced in the phase model).
    // The probe stages themselves are ordinary map stages; their
    // est_pass_fraction selectivity already shrank the shuffle above.
    if (b.bloom) {
      const BranchInput& build = b.inputs[b.bloom->build_input];
      const int build_ds = slots.input_ds[b.bloom->build_input];
      if (build_ds >= 0) {
        const PredictedDataset& pred = table[build_ds];
        double frac =
            build.prune_partitions.empty() ? 1.0 : build.prune_fraction;
        double in_records = pred.records * frac;
        double b_recs = pred.records;
        double cpu_basis = in_records;
        double cpu = 0.0;
        for (const Stage& s : build.map_stages) {
          if (!s.stats) break;  // the fold above reported the error
          cpu += std::min(cpu_basis, b_recs) * s.stats->cpu_per_record;
          b_recs *= s.stats->record_selectivity;
          cpu_basis = b_recs;
        }
        double hashed = build.map_stages.empty() ? in_records : b_recs;
        df.bloom_build_records += static_cast<uint64_t>(hashed);
        df.bloom_build_bytes += static_cast<uint64_t>(pred.bytes * frac);
        df.bloom_build_cpu_units += cpu + hashed * kBloomHashCpuPerRecord;
        df.bloom_filter_bytes +=
            (uint64_t{1} << b.bloom->bits_log2) / 8;
      }
    }

    if (b.map_only()) {
      df.output_records += static_cast<uint64_t>(recs);
      df.output_bytes += static_cast<uint64_t>(bytes);
      PredictedDataset out;
      out.records = recs;
      out.bytes = bytes;
      out.stored_bytes =
          config.compress_output ? bytes * model_->cluster().compress_ratio
                                 : bytes;
      out.partitions = std::max(1, acc[bi].tasks);
      out.max_partition_fraction = 1.0 / out.partitions;
      table[slots.output_ds] = out;
      continue;
    }

    df.map_output_records += static_cast<uint64_t>(recs);
    df.map_output_bytes += static_cast<uint64_t>(bytes);

    // Combine: modeled analytically — a map task emitting n records over G
    // distinct groups combines down to about G*(1-exp(-n/G)) records. The
    // executor uses the same model over observed quantities; estimation
    // error stems from the profiled group cardinality.
    double c_recs = recs;
    double c_bytes = bytes;
    if (config.use_combiner && b.combiner != nullptr &&
        b.annotations.profile) {
      const ProfileAnnotation& profile = *b.annotations.profile;
      double groups = profile.k2_distinct_groups;
      int tasks = std::max(1, acc[bi].tasks);
      if (groups > 0 && recs > 0) {
        double n = recs / tasks;
        double combined =
            std::min(n, groups * (1.0 - std::exp(-n / groups)));
        double ratio = std::min(1.0, combined / n);
        c_recs = recs * ratio;
        c_bytes = bytes * ratio;
      }
      df.combine_cpu_units += recs * profile.combine_cpu_per_record;
    }
    df.combine_output_records += static_cast<uint64_t>(c_recs);
    df.combine_output_bytes += static_cast<uint64_t>(c_bytes);
    df.reduce_input_records += static_cast<uint64_t>(c_recs);
    df.reduce_input_bytes += static_cast<uint64_t>(c_bytes);

    const ReduceDistribution dist =
        cj.pinned_dists.empty() ? EstimateReduceDistribution(b, std::max(1, R))
                                : cj.pinned_dists[bi];
    df.nonempty_reduce_partitions =
        std::max(df.nonempty_reduce_partitions, dist.nonempty);
    df.max_reduce_input_bytes += static_cast<uint64_t>(
        c_bytes * dist.max_fraction);

    // Fold the reduce-side pipeline. The first grouped stage's selectivity
    // was profiled against the *pre-combine* map output (the profiler sees
    // no combiner), so its output is based on the pre-combine volume; its
    // CPU reflects the post-combine rows it actually processes.
    double r_recs = c_recs;
    double r_bytes = c_bytes;
    bool first_stage = true;
    for (size_t si = 0; si < b.reduce_stages.size(); ++si) {
      const Stage& s = b.reduce_stages[si];
      if (!s.stats) {
        return Status::FailedPrecondition("stage '" + s.name() +
                                          "' of job '" + job.id +
                                          "' has no profiled statistics");
      }
      df.reduce_cpu_units += r_recs * s.stats->cpu_per_record;
      if (first_stage && s.kind == Stage::Kind::kReduce) {
        r_recs = recs * s.stats->record_selectivity;
        r_bytes = bytes * s.stats->byte_selectivity;
        first_stage = false;
        if (slots.reduce_tees[si] >= 0) {
          df.tee_bytes += static_cast<uint64_t>(r_bytes);
          PredictedDataset tee;
          tee.records = r_recs;
          tee.bytes = r_bytes;
          tee.stored_bytes = r_bytes;
          tee.partitions = std::max(1, R);
          tee.max_partition_fraction = dist.max_fraction;
          table[slots.reduce_tees[si]] = tee;
        }
        continue;
      }
      first_stage = false;
      r_recs *= s.stats->record_selectivity;
      r_bytes *= s.stats->byte_selectivity;
      if (slots.reduce_tees[si] >= 0) {
        df.tee_bytes += static_cast<uint64_t>(r_bytes);
        PredictedDataset tee;
        tee.records = r_recs;
        tee.bytes = r_bytes;
        tee.stored_bytes = r_bytes;
        tee.partitions = std::max(1, R);
        tee.max_partition_fraction = dist.max_fraction;
        table[slots.reduce_tees[si]] = tee;
      }
    }
    df.output_records += static_cast<uint64_t>(r_recs);
    df.output_bytes += static_cast<uint64_t>(r_bytes);

    PredictedDataset out;
    out.records = r_recs;
    out.bytes = r_bytes;
    out.stored_bytes = config.compress_output
                           ? r_bytes * model_->cluster().compress_ratio
                           : r_bytes;
    out.partitions = std::max(1, R);
    out.max_partition_fraction = dist.max_fraction;
    table[slots.output_ds] = out;
  }
  return df;
}

Result<WorkflowDataflow> PlanPricer::Predict(
    const std::vector<JobConfig>& configs, CostInstrumentation* stats) const {
  std::vector<PredictedDataset> datasets = datasets_;
  WorkflowDataflow flow;
  flow.jobs.reserve(jobs_.size());
  std::vector<JobTaskTimes> times(jobs_.size());
  // Counts this pass once it reached any job, even when a later job fails.
  auto count_pass = [&] {
    if (stats != nullptr && !flow.jobs.empty()) ++stats->full_predictions;
  };
  for (size_t k = 0; k < jobs_.size(); ++k) {
    const Job& job = jobs_[k];
    if (!job.varying) {
      times[k] = job.times;
      flow.jobs.push_back(job.dataflow);
      continue;
    }
    const JobConfig& config =
        job.tuned_slot >= 0 ? configs[static_cast<size_t>(job.tuned_slot)]
                            : job.vertex->config;
    auto df = PredictJob(job, config, &datasets);
    if (!df.ok()) {
      count_pass();
      return df.status();
    }
    if (stats != nullptr) ++stats->job_predictions;
    times[k] = model_->TaskTimes(*df, config);
    flow.jobs.push_back(std::move(*df));
  }
  count_pass();
  STUBBY_ASSIGN_OR_RETURN(JobSchedule sched,
                          SimulateSchedule(schedule_, times, model_->cluster()));
  flow.makespan_sec = sched.makespan_sec;
  for (size_t k : by_id_) {
    flow.job_finish_sec.emplace_hint(flow.job_finish_sec.end(),
                                     jobs_[k].vertex->id, sched.finish_sec[k]);
  }
  return flow;
}

Result<PlanPricer> WhatIfEngine::Compile(
    const Plan& plan, const std::vector<std::string>& tuned) const {
  return CompileImpl(plan, tuned, /*whole_plan=*/false);
}

Result<PlanPricer> WhatIfEngine::CompileImpl(
    const Plan& plan, const std::vector<std::string>& tuned,
    bool whole_plan) const {
  PlanPricer pricer(model_);

  // One table slot per dataset id; `present` marks the slots a prediction
  // has written so far in topological order — base inputs first.
  std::map<std::string, int> slot_of;
  std::vector<bool> present;
  auto slot = [&](const std::string& id) {
    auto [it, added] = slot_of.emplace(id, static_cast<int>(slot_of.size()));
    if (added) {
      pricer.datasets_.emplace_back();
      present.push_back(false);
    }
    return it->second;
  };
  auto read_slot = [&](const std::string& id) {
    int i = slot(id);
    return present[static_cast<size_t>(i)] ? i : -1;
  };

  // Seed predictions from base dataset annotations.
  for (const auto& [id, ds] : plan.datasets()) {
    if (!ds.is_base_input) continue;
    const DatasetAnnotation& a = ds.annotation;
    if (!a.num_records || !a.bytes) {
      return Status::FailedPrecondition(
          "base dataset '" + id + "' has no size annotation");
    }
    PredictedDataset p;
    p.records = static_cast<double>(*a.num_records);
    p.bytes = static_cast<double>(*a.bytes);
    const Layout* layout = a.layout ? &*a.layout : &ds.layout;
    p.stored_bytes = layout->compressed
                         ? p.bytes * model_.cluster().compress_ratio
                         : p.bytes;
    if (a.num_partitions) {
      p.partitions = *a.num_partitions;
    } else {
      p.partitions = std::max(
          1, static_cast<int>(std::ceil(p.stored_bytes /
                                        (layout->block_mb * kMB))));
    }
    p.max_partition_fraction = 1.0 / std::max(1, p.partitions);
    const int i = slot(id);
    pricer.datasets_[static_cast<size_t>(i)] = p;
    present[static_cast<size_t>(i)] = true;
  }

  STUBBY_ASSIGN_OR_RETURN(std::vector<std::string> order,
                          plan.TopologicalOrder());
  const size_t n = order.size();
  std::map<std::string, size_t> topo_of;
  for (size_t k = 0; k < n; ++k) topo_of.emplace(order[k], k);

  pricer.jobs_.resize(n);
  pricer.tuned_index_.reserve(tuned.size());
  for (size_t t = 0; t < tuned.size(); ++t) {
    auto it = topo_of.find(tuned[t]);
    if (it == topo_of.end()) {
      return Status::InvalidArgument("tuned job '" + tuned[t] +
                                     "' is not in the plan");
    }
    PlanPricer::Job& job = pricer.jobs_[it->second];
    if (job.tuned_slot >= 0) {
      return Status::InvalidArgument("tuned job '" + tuned[t] +
                                     "' is listed twice");
    }
    job.tuned_slot = static_cast<int>(t);
    pricer.tuned_index_.push_back(it->second);
  }

  // Job-id order gives the scheduler's tie-break ranks; a dataset's
  // producer is the first job in that order writing it (Plan::ProducerOf).
  std::vector<size_t> rank(n);
  std::vector<int> producer;
  for (const auto& [jid, vertex] : plan.jobs()) {
    const size_t k = topo_of.at(jid);
    rank[k] = pricer.by_id_.size();
    pricer.by_id_.push_back(k);
    pricer.jobs_[k].vertex = &vertex;
    for (const std::string& out : vertex.OutputDatasets()) {
      const size_t i = static_cast<size_t>(slot(out));
      if (producer.size() <= i) producer.resize(i + 1, -1);
      if (producer[i] < 0) producer[i] = static_cast<int>(k);
    }
  }

  std::vector<std::vector<size_t>> deps(n);
  for (size_t k = 0; k < n; ++k) {
    PlanPricer::Job& job = pricer.jobs_[k];
    const JobVertex& vertex = *job.vertex;
    // Upstream jobs, as Plan::UpstreamJobs lists them.
    for (const std::string& in : vertex.InputDatasets()) {
      const size_t i = static_cast<size_t>(slot(in));
      const int p = i < producer.size() ? producer[i] : -1;
      if (p >= 0 && std::find(deps[k].begin(), deps[k].end(),
                              static_cast<size_t>(p)) == deps[k].end()) {
        deps[k].push_back(static_cast<size_t>(p));
      }
    }
    job.varying = whole_plan || job.tuned_slot >= 0;
    for (size_t u : deps[k]) job.varying = job.varying || pricer.jobs_[u].varying;

    // Reads resolve against what earlier jobs wrote; then this job's
    // writes become readable.
    job.groups = GroupBranchInputs(vertex);
    for (const InputGroup& g : job.groups) {
      job.group_ds.push_back(read_slot(g.dataset_id));
    }
    job.branches.resize(vertex.branches.size());
    for (size_t bi = 0; bi < vertex.branches.size(); ++bi) {
      const Branch& b = vertex.branches[bi];
      PlanPricer::Job::BranchSlots& slots = job.branches[bi];
      for (const BranchInput& input : b.inputs) {
        slots.input_ds.push_back(read_slot(input.dataset_id));
      }
    }
    std::vector<int> writes;
    auto tee_slot = [&](const Stage& s) {
      if (s.tee_dataset.empty()) return -1;
      writes.push_back(slot(s.tee_dataset));
      return writes.back();
    };
    for (size_t bi = 0; bi < vertex.branches.size(); ++bi) {
      const Branch& b = vertex.branches[bi];
      PlanPricer::Job::BranchSlots& slots = job.branches[bi];
      for (const BranchInput& input : b.inputs) {
        std::vector<int>& tees = slots.input_tees.emplace_back();
        for (const Stage& s : input.map_stages) tees.push_back(tee_slot(s));
      }
      for (const Stage& s : b.merged_map_stages) {
        slots.merged_tees.push_back(tee_slot(s));
      }
      for (const Stage& s : b.reduce_stages) {
        slots.reduce_tees.push_back(tee_slot(s));
      }
      slots.output_ds = slot(b.output_dataset);
      writes.push_back(slots.output_ds);
    }
    for (int i : writes) present[static_cast<size_t>(i)] = true;

    // A pinned R fixes every branch's reduce distribution.
    const std::optional<int> pinned = vertex.PinnedReduceTasks();
    if (pinned && !vertex.map_only()) {
      job.pinned_dists.resize(vertex.branches.size());
      for (size_t bi = 0; bi < vertex.branches.size(); ++bi) {
        const Branch& b = vertex.branches[bi];
        if (b.map_only()) continue;
        job.pinned_dists[bi] =
            EstimateReduceDistribution(b, std::max(1, *pinned));
      }
    }

    if (job.varying) continue;
    STUBBY_ASSIGN_OR_RETURN(job.dataflow, pricer.PredictJob(job, vertex.config,
                                                            &pricer.datasets_));
    if (stats_ != nullptr) ++stats_->job_predictions;
    job.times = model_.TaskTimes(job.dataflow, vertex.config);
  }
  pricer.schedule_ = MakeScheduleGraph(deps, std::move(rank));
  return pricer;
}

Result<WorkflowDataflow> WhatIfEngine::PredictDataflow(
    const Plan& plan) const {
  STUBBY_ASSIGN_OR_RETURN(PlanPricer pricer,
                          CompileImpl(plan, {}, /*whole_plan=*/true));
  return pricer.Predict({}, stats_);
}

CostEstimate WhatIfEngine::Estimate(Result<WorkflowDataflow> flow,
                                    size_t num_jobs) const {
  if (stats_ != nullptr) ++stats_->whatif_invocations;
  CostEstimate est;
  if (flow.ok()) {
    est.cost = flow->makespan_sec;
    est.fallback = false;
    est.dataflow = std::move(*flow);
  } else {
    // Fallback: the number-of-jobs cost model of YSmart [11].
    est.cost = static_cast<double>(num_jobs);
    est.fallback = true;
  }
  return est;
}

CostEstimate WhatIfEngine::Cost(const Plan& plan) const {
  return Estimate(PredictDataflow(plan), plan.num_jobs());
}

CostEstimate WhatIfEngine::Cost(const PlanPricer& pricer,
                                const std::vector<JobConfig>& configs) const {
  return Estimate(pricer.Predict(configs, stats_), pricer.jobs_.size());
}

bool WhatIfEngine::IsCostable(const Plan& plan) const {
  return PredictDataflow(plan).ok();
}

}  // namespace stubby
