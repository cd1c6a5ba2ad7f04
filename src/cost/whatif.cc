#include "cost/whatif.h"

#include <algorithm>
#include <cmath>

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

Result<JobDataflow> WhatIfEngine::PredictJob(
    const Plan& plan, const JobVertex& job,
    std::map<std::string, PredictedDataset>* datasets) const {
  (void)plan;
  JobDataflow df;
  df.job_id = job.id;
  const int R = job.map_only() ? 0 : job.EffectiveReduceTasks();
  df.num_reduce_tasks = R;
  df.output_compressed = job.config.compress_output;

  struct BranchAccum {
    double map_out_records = 0.0;
    double map_out_bytes = 0.0;
    int tasks = 0;  ///< map tasks whose pipelines include this branch
  };
  std::vector<BranchAccum> acc(job.branches.size());

  std::vector<InputGroup> groups = GroupBranchInputs(job);
  for (const InputGroup& g : groups) {
    auto it = datasets->find(g.dataset_id);
    if (it == datasets->end()) {
      return Status::FailedPrecondition("no size prediction for dataset '" +
                                        g.dataset_id + "'");
    }
    const PredictedDataset& pred = it->second;
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
                 std::ceil(in_stored / (job.config.split_mb * kMB))));
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
      double recs = pred.records;
      double bytes = pred.bytes;
      double cpu_basis = in_records;
      for (const Stage& s : input.map_stages) {
        if (!s.stats) {
          return Status::FailedPrecondition(
              "stage '" + s.name() + "' of job '" + job.id +
              "' has no profiled statistics");
        }
        df.map_cpu_units += std::min(cpu_basis, recs) * s.stats->cpu_per_record;
        recs *= s.stats->record_selectivity;
        bytes *= s.stats->byte_selectivity;
        cpu_basis = recs;
        if (!s.tee_dataset.empty()) {
          df.tee_bytes += static_cast<uint64_t>(bytes);
          PredictedDataset tee;
          tee.records = recs;
          tee.bytes = bytes;
          tee.stored_bytes = bytes;
          tee.partitions = tasks;
          tee.max_partition_fraction = 1.0 / std::max(1, tasks);
          (*datasets)[s.tee_dataset] = tee;
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
    int tasks = 1;
    double merged_recs = 0.0;
    double merged_bytes = 0.0;
    double task_in_bytes = 0.0;   // avg per task, across inputs
    double max_task_bytes = 0.0;
    for (const BranchInput& input : b.inputs) {
      auto it = datasets->find(input.dataset_id);
      if (it == datasets->end()) {
        return Status::FailedPrecondition("no size prediction for dataset '" +
                                          input.dataset_id + "'");
      }
      const PredictedDataset& pred = it->second;
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
      for (const Stage& s : input.map_stages) {
        if (!s.stats) {
          return Status::FailedPrecondition(
              "stage '" + s.name() + "' of job '" + job.id +
              "' has no profiled statistics");
        }
        df.map_cpu_units += std::min(cpu_basis, recs) * s.stats->cpu_per_record;
        recs *= s.stats->record_selectivity;
        bytes *= s.stats->byte_selectivity;
        cpu_basis = recs;
        if (!s.tee_dataset.empty()) {
          df.tee_bytes += static_cast<uint64_t>(bytes);
          PredictedDataset tee;
          tee.records = recs;
          tee.bytes = bytes;
          tee.stored_bytes = bytes;
          tee.partitions = in_tasks;
          tee.max_partition_fraction = 1.0 / std::max(1, in_tasks);
          (*datasets)[s.tee_dataset] = tee;
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
    for (const Stage& s : b.merged_map_stages) {
      if (!s.stats) {
        return Status::FailedPrecondition("stage '" + s.name() +
                                          "' of job '" + job.id +
                                          "' has no profiled statistics");
      }
      df.map_cpu_units += recs * s.stats->cpu_per_record;
      recs *= s.stats->record_selectivity;
      bytes *= s.stats->byte_selectivity;
      if (!s.tee_dataset.empty()) {
        df.tee_bytes += static_cast<uint64_t>(bytes);
        PredictedDataset tee;
        tee.records = recs;
        tee.bytes = bytes;
        tee.stored_bytes = bytes;
        tee.partitions = tasks;
        tee.max_partition_fraction = 1.0 / std::max(1, tasks);
        (*datasets)[s.tee_dataset] = tee;
      }
    }
    acc[bi].map_out_records = recs;
    acc[bi].map_out_bytes = bytes;
    acc[bi].tasks = tasks;
  }

  for (size_t bi = 0; bi < job.branches.size(); ++bi) {
    const Branch& b = job.branches[bi];
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
      auto it = datasets->find(build.dataset_id);
      if (it != datasets->end()) {
        const PredictedDataset& pred = it->second;
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
          job.config.compress_output ? bytes * model_.cluster().compress_ratio
                                     : bytes;
      out.partitions = std::max(1, acc[bi].tasks);
      out.max_partition_fraction = 1.0 / out.partitions;
      (*datasets)[b.output_dataset] = out;
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
    if (job.config.use_combiner && b.combiner != nullptr &&
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

    ReduceDistribution dist = EstimateReduceDistribution(b, std::max(1, R));
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
    for (const Stage& s : b.reduce_stages) {
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
        if (!s.tee_dataset.empty()) {
          df.tee_bytes += static_cast<uint64_t>(r_bytes);
          PredictedDataset tee;
          tee.records = r_recs;
          tee.bytes = r_bytes;
          tee.stored_bytes = r_bytes;
          tee.partitions = std::max(1, R);
          tee.max_partition_fraction = dist.max_fraction;
          (*datasets)[s.tee_dataset] = tee;
        }
        continue;
      }
      first_stage = false;
      r_recs *= s.stats->record_selectivity;
      r_bytes *= s.stats->byte_selectivity;
      if (!s.tee_dataset.empty()) {
        df.tee_bytes += static_cast<uint64_t>(r_bytes);
        PredictedDataset tee;
        tee.records = r_recs;
        tee.bytes = r_bytes;
        tee.stored_bytes = r_bytes;
        tee.partitions = std::max(1, R);
        tee.max_partition_fraction = dist.max_fraction;
        (*datasets)[s.tee_dataset] = tee;
      }
    }
    df.output_records += static_cast<uint64_t>(r_recs);
    df.output_bytes += static_cast<uint64_t>(r_bytes);

    PredictedDataset out;
    out.records = r_recs;
    out.bytes = r_bytes;
    out.stored_bytes = job.config.compress_output
                           ? r_bytes * model_.cluster().compress_ratio
                           : r_bytes;
    out.partitions = std::max(1, R);
    out.max_partition_fraction = dist.max_fraction;
    (*datasets)[b.output_dataset] = out;
  }
  return df;
}

Result<WorkflowDataflow> WhatIfEngine::PredictDataflow(
    const Plan& plan) const {
  return PredictDataflowImpl(plan, nullptr);
}

Result<WorkflowDataflow> WhatIfEngine::PredictDataflowImpl(
    const Plan& plan,
    const std::map<std::string, CostDigest>* job_digests) const {
  // Seed predictions from base dataset annotations.
  std::map<std::string, PredictedDataset> predicted;
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
    predicted[id] = p;
  }

  STUBBY_ASSIGN_OR_RETURN(std::vector<std::string> order,
                          plan.TopologicalOrder());
  WorkflowDataflow flow;
  std::vector<ScheduledJob> scheduled;
  uint64_t replayed = 0;
  uint64_t predicted_fresh = 0;
  // Counts this pass as full (every job predicted from scratch) or
  // incremental (at least one job replayed from the memo) once any
  // job-level work happened.
  auto count_pass = [&] {
    if (stats_ == nullptr || (replayed == 0 && predicted_fresh == 0)) return;
    if (replayed == 0) {
      ++stats_->full_predictions;
    } else {
      ++stats_->incremental_predictions;
    }
  };
  for (const auto& jid : order) {
    auto job_or = plan.GetJob(jid);
    if (!job_or.ok()) {
      count_pass();
      return job_or.status();
    }
    const JobVertex* job = *job_or;

    // Per-job memo: key = job content digest + the predictions of its
    // inputs. A hit replays the stored dataflow, task times, and output
    // predictions — bit-identical to recomputing them.
    CostKey key{};
    bool have_key = false;
    if (cache_ != nullptr) {
      CostDigest digest;
      if (job_digests != nullptr) {
        auto dit = job_digests->find(jid);
        digest = dit != job_digests->end() ? dit->second
                                           : JobContentDigest(*job);
      } else {
        digest = JobContentDigest(*job);
      }
      bool inputs_known = true;
      for (const std::string& in : job->InputDatasets()) {
        auto it = predicted.find(in);
        if (it == predicted.end()) {
          // Missing input prediction: fall through to PredictJob, which
          // reports the precise error.
          inputs_known = false;
          break;
        }
        digest.Mix(in);
        MixPredictedDataset(&digest, it->second);
      }
      if (inputs_known) {
        key = digest.value();
        have_key = true;
        if (const CostJobEntry* entry = cache_->FindJob(key)) {
          ++replayed;
          if (stats_ != nullptr) ++stats_->job_cache_hits;
          for (const auto& [id, p] : entry->outputs) predicted[id] = p;
          ScheduledJob sj;
          sj.id = jid;
          sj.deps = plan.UpstreamJobs(jid);
          sj.times = entry->times;
          scheduled.push_back(std::move(sj));
          flow.jobs.push_back(entry->dataflow);
          continue;
        }
      }
    }

    auto df_or = PredictJob(plan, *job, &predicted);
    if (!df_or.ok()) {
      count_pass();
      return df_or.status();
    }
    ++predicted_fresh;
    if (stats_ != nullptr) ++stats_->job_predictions;
    ScheduledJob sj;
    sj.id = jid;
    sj.deps = plan.UpstreamJobs(jid);
    sj.times = model_.TaskTimes(*df_or, job->config);
    if (have_key) {
      CostJobEntry entry;
      entry.dataflow = *df_or;
      entry.times = sj.times;
      for (const std::string& out : job->OutputDatasets()) {
        auto it = predicted.find(out);
        if (it != predicted.end()) entry.outputs.emplace_back(out, it->second);
      }
      cache_->InsertJob(key, std::move(entry));
    }
    scheduled.push_back(std::move(sj));
    flow.jobs.push_back(std::move(*df_or));
  }
  count_pass();
  STUBBY_ASSIGN_OR_RETURN(ScheduleResult sched,
                          SimulateCluster(scheduled, model_.cluster()));
  flow.makespan_sec = sched.makespan_sec;
  flow.job_finish_sec = std::move(sched.job_finish_sec);
  return flow;
}

CostEstimate WhatIfEngine::Cost(const Plan& plan) const {
  return CostImpl(plan, nullptr);
}

CostEstimate WhatIfEngine::CostWithDigests(
    const Plan& plan,
    const std::map<std::string, CostDigest>& job_digests) const {
  return CostImpl(plan, &job_digests);
}

CostEstimate WhatIfEngine::CostImpl(
    const Plan& plan,
    const std::map<std::string, CostDigest>* job_digests) const {
  if (stats_ != nullptr) ++stats_->whatif_invocations;
  CostKey key{};
  std::map<std::string, CostDigest> local_digests;
  if (cache_ != nullptr) {
    if (job_digests == nullptr) {
      key = PlanCostDigest(plan, &local_digests);
      job_digests = &local_digests;
    } else {
      key = PlanCostDigestFrom(plan, *job_digests);
    }
    if (const CostEstimate* hit = cache_->FindPlan(key)) {
      if (stats_ != nullptr) ++stats_->plan_cache_hits;
      return *hit;
    }
    if (stats_ != nullptr) ++stats_->plan_cache_misses;
  }
  CostEstimate est;
  auto flow = PredictDataflowImpl(
      plan, cache_ != nullptr ? job_digests : nullptr);
  if (flow.ok()) {
    est.cost = flow->makespan_sec;
    est.fallback = false;
    est.dataflow = std::move(*flow);
  } else {
    // Fallback: the number-of-jobs cost model of YSmart [11].
    est.cost = static_cast<double>(plan.num_jobs());
    est.fallback = true;
  }
  if (cache_ != nullptr) cache_->InsertPlan(key, est);
  return est;
}

bool WhatIfEngine::IsCostable(const Plan& plan) const {
  return PredictDataflow(plan).ok();
}

}  // namespace stubby
