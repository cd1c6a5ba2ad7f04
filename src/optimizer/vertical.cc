#include "optimizer/vertical.h"

#include <algorithm>
#include <set>

#include "common/strings.h"
#include "cost/adjust.h"

namespace stubby {

namespace {

/// True if `prefix` is a literal prefix of `seq`.
bool IsPrefix(const std::vector<std::string>& prefix,
              const std::vector<std::string>& seq) {
  return prefix.size() <= seq.size() &&
         std::equal(prefix.begin(), prefix.end(), seq.begin());
}

/// Index of the branch of `job` whose (final) output is `dataset`, or -1.
int BranchProducing(const JobVertex& job, const std::string& dataset) {
  for (size_t i = 0; i < job.branches.size(); ++i) {
    if (job.branches[i].output_dataset == dataset) return static_cast<int>(i);
  }
  return -1;
}

bool InUnit(const std::vector<std::string>& unit_jobs, const std::string& id) {
  return std::find(unit_jobs.begin(), unit_jobs.end(), id) != unit_jobs.end();
}

}  // namespace

// ---------------------------------------------------------------------------
// Intra-job vertical packing (Section 3.1)
// ---------------------------------------------------------------------------

std::vector<Application> IntraJobVerticalPacking::FindApplications(
    const Plan& plan, const std::vector<std::string>& unit_jobs) const {
  std::vector<Application> apps;

  for (const std::string& jc_id : unit_jobs) {
    auto jcr = plan.GetJob(jc_id);
    if (!jcr.ok()) continue;
    const JobVertex& jc = **jcr;
    if (jc.branches.size() != 1) continue;
    const Branch& bc = jc.branches[0];
    if (bc.map_only() || bc.merge_mode()) continue;

    // Information-spectrum gate: the consumer's K2 schema annotation is
    // required to check the data-flow invariant at all.
    if (!bc.annotations.schema || !bc.annotations.schema->k2) continue;
    const FieldSet& k2c = *bc.annotations.schema->k2;
    std::vector<std::string> group_order = bc.GroupFields();
    if (FieldSet(group_order.begin(), group_order.end()) != k2c) continue;

    // Examine every input of the consumer. Each must either come from a
    // producer whose shuffle can be rewritten to satisfy the consumer's
    // grouping (one-to-one / many-to-one case), or be a dataset — base or
    // produced by an earlier packing — whose annotated layout already
    // provides the grouping (none-to-one case and cascaded packing).
    struct ProducerSite {
      std::string job_id;
      int branch_index;
    };
    std::vector<ProducerSite> producer_sites;
    std::set<std::string> producer_jobs;
    std::vector<int> layout_partition_counts;
    bool ok = true;

    for (const BranchInput& input : bc.inputs) {
      if (!input.prune_partitions.empty()) {
        ok = false;  // pruning depends on the current partitioning
        break;
      }
      auto dvr = plan.GetDataset(input.dataset_id);
      if (!dvr.ok()) {
        ok = false;
        break;
      }
      std::string pid = plan.ProducerOf(input.dataset_id);
      const JobVertex* pj = nullptr;
      const Branch* bp = nullptr;
      int bi = -1;
      if (!pid.empty()) {
        auto pjr = plan.GetJob(pid);
        if (!pjr.ok()) {
          ok = false;
          break;
        }
        pj = *pjr;
        bi = BranchProducing(*pj, input.dataset_id);
        if (bi >= 0) bp = &pj->branches[static_cast<size_t>(bi)];
      }

      if (bp != nullptr && !bp->map_only()) {
        // Shuffle path: rewrite the producer's partition function.
        if (!InUnit(unit_jobs, pid) || pid == jc_id) {
          ok = false;
          break;
        }
        // Data-flow invariant via schema annotations: Jc.K2 must flow
        // unchanged from the producer's reduce input to the consumer's map
        // output (field-name identity).
        const auto& sa = bp->annotations.schema;
        if (!sa || !sa->k2 || !sa->k3) {
          ok = false;
          break;
        }
        FieldSet k3v3 = *sa->k3;
        if (sa->v3) k3v3 = Union(k3v3, *sa->v3);
        if (!IsSubset(k2c, *sa->k2) || !IsSubset(k2c, k3v3)) {
          ok = false;
          break;
        }
        // Safe-reordering restriction: the consumer's grouping must be a
        // literal prefix of the producer's grouping order, so the
        // producer's sort order can stay unchanged.
        if (!IsPrefix(group_order, bp->GroupFields())) {
          ok = false;
          break;
        }
        // Structural sanity: the new partition fields exist on the
        // producer's shuffle schema.
        bool have_fields = std::all_of(
            group_order.begin(), group_order.end(), [&](const std::string& f) {
              return bp->map_output_schema.Contains(f);
            });
        if (!have_fields) {
          ok = false;
          break;
        }
        // A frozen producer partition must already be suitable; whether the
        // spec changes decides how strict we are about other consumers.
        bool frozen_compatible =
            pj->conditions.partition_frozen &&
            bp->partition.partition_fields == group_order &&
            IsPrefix(group_order, bp->partition.sort_fields);
        if (pj->conditions.partition_frozen && !frozen_compatible) {
          ok = false;
          break;
        }
        bool spec_changes =
            bp->partition.partition_fields != group_order ||
            bp->partition.type != PartitionType::kHash;
        for (const std::string& other : plan.ConsumersOf(input.dataset_id)) {
          if (other == jc_id) continue;
          // Other consumers keep reading the dataset; if the spec changes,
          // their reads must not depend on the current layout.
          auto jo = plan.GetJob(other);
          if (!jo.ok()) continue;
          for (const Branch& ob : (*jo)->branches) {
            for (const BranchInput& oin : ob.inputs) {
              if (oin.dataset_id == input.dataset_id && spec_changes &&
                  (oin.aligned || !oin.prune_partitions.empty())) {
                ok = false;
              }
            }
          }
        }
        if (!ok) break;
        producer_sites.push_back(ProducerSite{pid, bi});
        producer_jobs.insert(pid);
      } else {
        // Layout path: the dataset (base, or output of a map-only job) must
        // already be partitioned and ordered compatibly.
        const DatasetAnnotation& ann = (*dvr)->annotation;
        if (!ann.layout || !ann.layout->partitioning || !ann.num_partitions) {
          ok = false;
          break;
        }
        const PartitionSpec& ps = *ann.layout->partitioning;
        if (ps.partition_fields != group_order ||
            !IsPrefix(group_order, ann.layout->order_fields)) {
          ok = false;
          break;
        }
        layout_partition_counts.push_back(*ann.num_partitions);
      }
    }
    if (!ok ||
        (producer_sites.empty() && layout_partition_counts.empty())) {
      continue;
    }

    // Co-partitioning across inputs: layout-path inputs fix the partition
    // count; producers already pinned contribute their count; multiple
    // distinct sources must agree on one count.
    int fixed_reduce = -1;
    bool conflict = false;
    auto adopt = [&](int c) {
      if (fixed_reduce < 0) {
        fixed_reduce = c;
      } else if (fixed_reduce != c) {
        conflict = true;
      }
    };
    for (int c : layout_partition_counts) adopt(c);
    for (const auto& pid : producer_jobs) {
      auto pj = plan.GetJob(pid);
      if ((*pj)->conditions.num_reduce_fixed) {
        adopt(*(*pj)->conditions.num_reduce_fixed);
      }
    }
    if (conflict) continue;
    size_t distinct_sources =
        producer_jobs.size() + (layout_partition_counts.empty() ? 0 : 1);
    if (distinct_sources > 1 && fixed_reduce < 0) {
      // Pin all producers to a common reduce count (many-to-one extension).
      for (const auto& pid : producer_jobs) {
        auto pj = plan.GetJob(pid);
        fixed_reduce =
            std::max(fixed_reduce, (*pj)->EffectiveReduceTasks());
      }
    }

    Application app;
    app.transform_name = name();
    app.description =
        StrFormat("intra-pack %s (reduce moves map-side, grouping on %s)",
                  jc_id.c_str(), FieldSetToString(k2c).c_str());
    std::vector<std::pair<std::string, int>> sites;
    for (const auto& s : producer_sites) sites.emplace_back(s.job_id, s.branch_index);
    app.apply = [jc_id, group_order, fixed_reduce,
                 sites](const Plan& plan_in) -> Result<Plan> {
      Plan np = plan_in;
      // Postcondition 1: rewrite each producer's partition function to
      // partition on Kp∩Kc (= Jc.K2 here) while keeping the sort order,
      // which already satisfies both groupings.
      for (const auto& [pid, bi] : sites) {
        STUBBY_ASSIGN_OR_RETURN(JobVertex * pj, np.GetMutableJob(pid));
        Branch& bp = pj->branches[static_cast<size_t>(bi)];
        bp.partition.type = PartitionType::kHash;
        bp.partition.partition_fields = group_order;
        bp.partition.split_points = {};
        bp.partition.split_points_from.clear();
        pj->conditions.partition_frozen = true;
        if (fixed_reduce > 0) {
          pj->conditions.num_reduce_fixed = fixed_reduce;
          pj->config.num_reduce_tasks = fixed_reduce;
        }
        // The produced dataset's planned layout now reflects the rewrite.
        STUBBY_ASSIGN_OR_RETURN(DatasetVertex * dv,
                                np.GetMutableDataset(bp.output_dataset));
        dv->layout = DeriveOutputLayout(bp, pj->config, dv->schema);
        dv->annotation.layout = dv->layout;
        if (fixed_reduce > 0) dv->annotation.num_partitions = fixed_reduce;
      }
      // Postcondition 2: the consumer becomes a Map-only job with
      // partition-aligned reads; its reduce pipeline moves map-side as
      // merged stages over the co-aligned inputs.
      STUBBY_ASSIGN_OR_RETURN(JobVertex * jcm, np.GetMutableJob(jc_id));
      Branch& bcm = jcm->branches[0];
      bcm.merged_map_stages = std::move(bcm.reduce_stages);
      bcm.reduce_stages.clear();
      bcm.merge_schema = bcm.map_output_schema;
      bcm.merge_sort_fields = bcm.partition.sort_fields;
      Schema out_schema = bcm.merged_map_stages.back().output_schema();
      bcm.map_output_schema = out_schema;
      // Co-aligned tasks read partition t and write partition t, so the
      // grouping layout survives into the consumer's output.
      PartitionSpec preserved;
      preserved.type = PartitionType::kHash;
      preserved.partition_fields = group_order;
      preserved.sort_fields = bcm.merge_sort_fields;
      bcm.preserved_partition = preserved;
      bcm.partition = PartitionSpec();
      bcm.combiner = nullptr;
      for (BranchInput& in : bcm.inputs) in.aligned = true;
      jcm->config.use_combiner = false;
      if (bcm.annotations.schema) {
        bcm.annotations.schema->k2.reset();
        bcm.annotations.schema->v2.reset();
      }
      // Record what the optimizer now knows about the consumer's output —
      // this is what lets a later packing cascade off it (e.g. the second
      // join of the Business Analytics workflow).
      {
        STUBBY_ASSIGN_OR_RETURN(DatasetVertex * dv,
                                np.GetMutableDataset(bcm.output_dataset));
        dv->layout = DeriveOutputLayout(bcm, jcm->config, dv->schema);
        dv->annotation.layout = dv->layout;
        if (fixed_reduce > 0) dv->annotation.num_partitions = fixed_reduce;
      }
      STUBBY_RETURN_NOT_OK(np.Validate());
      return np;
    };
    apps.push_back(std::move(app));
  }
  return apps;
}

// ---------------------------------------------------------------------------
// Inter-job vertical packing (Section 3.2)
// ---------------------------------------------------------------------------

namespace {

/// Builds the "pack map-only producer into consumer" rewrite (the consumer
/// may be any shape; the packed input must be a plain size-split read).
Result<Plan> PackProducerIntoConsumer(const Plan& plan_in,
                                      const std::string& jp_id,
                                      const std::string& jc_id,
                                      const std::string& dataset,
                                      bool need_tee) {
  Plan np = plan_in;
  STUBBY_ASSIGN_OR_RETURN(const JobVertex* jpp, np.GetJob(jp_id));
  STUBBY_ASSIGN_OR_RETURN(const JobVertex* jcp, np.GetJob(jc_id));
  const JobVertex jp = *jpp;  // copies: both vertices get removed below
  JobVertex jc = *jcp;
  const Branch& bp = jp.branches[0];
  Branch& bc = jc.branches[0];

  // Locate the consumer input reading the packed dataset.
  int ii = -1;
  for (size_t i = 0; i < bc.inputs.size(); ++i) {
    if (bc.inputs[i].dataset_id == dataset) ii = static_cast<int>(i);
  }
  if (ii < 0) return Status::Internal("consumer does not read " + dataset);
  BranchInput consumed = bc.inputs[static_cast<size_t>(ii)];

  if (bp.merge_mode()) {
    // Merge-mode producer: the consumer inherits the producer's co-aligned
    // inputs and merged stages; the consumer's old map pipeline (and an
    // optional tee of the eliminated intermediate) runs after them.
    if (bc.inputs.size() != 1) {
      return Status::FailedPrecondition(
          "merge-mode producer needs a single-input consumer");
    }
    bc.inputs = bp.inputs;
    bc.merge_schema = bp.merge_schema;
    bc.merge_sort_fields = bp.merge_sort_fields;
    bc.merged_map_stages = bp.merged_map_stages;
    if (need_tee) {
      STUBBY_ASSIGN_OR_RETURN(const DatasetVertex* dv, np.GetDataset(dataset));
      AttachTee(&bc.merged_map_stages, dv->schema, dataset);
    }
    bc.merged_map_stages.insert(bc.merged_map_stages.end(),
                                consumed.map_stages.begin(),
                                consumed.map_stages.end());
  } else {
    // Replace the consumed input with the producer's inputs, each running
    // the producer's pipeline, an optional tee of the old intermediate,
    // then the consumer's old map pipeline.
    std::vector<BranchInput> new_inputs;
    for (const BranchInput& pin : bp.inputs) {
      BranchInput merged = pin;
      if (need_tee) {
        STUBBY_ASSIGN_OR_RETURN(const DatasetVertex* dv,
                                np.GetDataset(dataset));
        AttachTee(&merged.map_stages, dv->schema, dataset);
      }
      merged.map_stages.insert(merged.map_stages.end(),
                               consumed.map_stages.begin(),
                               consumed.map_stages.end());
      new_inputs.push_back(std::move(merged));
    }
    bc.inputs.erase(bc.inputs.begin() + ii);
    bc.inputs.insert(bc.inputs.begin() + ii,
                     std::make_move_iterator(new_inputs.begin()),
                     std::make_move_iterator(new_inputs.end()));
  }
  bc.annotations = MergeForVerticalPack(bp.annotations, bc.annotations,
                                         PackDirection::kProducerIntoConsumer);
  if (bc.map_only()) bc.preserved_partition = bp.preserved_partition;

  JobVertex merged;
  merged.id = jp_id + "+" + jc_id;
  merged.branches = {std::move(bc)};
  merged.branches[0].tag = merged.id;
  merged.config = jc.config;
  merged.conditions = jc.conditions;
  merged.conditions.partition_frozen =
      jc.conditions.partition_frozen || jp.conditions.partition_frozen;
  if (jp.conditions.num_reduce_fixed && !merged.branches[0].map_only() &&
      !merged.conditions.num_reduce_fixed) {
    // The producer's co-aligned task count came from its inputs' partition
    // counts, which the merged job inherits.
    merged.conditions.num_reduce_fixed = jp.conditions.num_reduce_fixed;
  }
  {
    auto dv = np.GetMutableDataset(merged.branches[0].output_dataset);
    if (dv.ok()) {
      (*dv)->layout = DeriveOutputLayout(merged.branches[0], merged.config,
                                         (*dv)->schema);
      (*dv)->annotation.layout = (*dv)->layout;
    }
  }

  np.RemoveJob(jp_id);
  np.RemoveJob(jc_id);
  STUBBY_RETURN_NOT_OK(np.AddJob(std::move(merged)));
  if (!need_tee) np.RemoveDataset(dataset);
  np.RemoveOrphanDatasets();
  STUBBY_RETURN_NOT_OK(np.Validate());
  return np;
}

/// Builds the "pack map-only consumer into producer's reduce side" rewrite.
Result<Plan> PackConsumerIntoProducer(const Plan& plan_in,
                                      const std::string& jp_id,
                                      const std::string& jc_id,
                                      const std::string& dataset,
                                      bool need_tee) {
  Plan np = plan_in;
  STUBBY_ASSIGN_OR_RETURN(const JobVertex* jpp, np.GetJob(jp_id));
  STUBBY_ASSIGN_OR_RETURN(const JobVertex* jcp, np.GetJob(jc_id));
  JobVertex jp = *jpp;
  const JobVertex jc = *jcp;
  Branch& bp = jp.branches[0];
  const Branch& bc = jc.branches[0];

  if (need_tee) {
    STUBBY_ASSIGN_OR_RETURN(const DatasetVertex* dv, np.GetDataset(dataset));
    AttachTee(&bp.reduce_stages, dv->schema, dataset);
  }
  // The junction: the consumer's per-input map pipeline followed by its
  // merged (grouped) stages run verbatim over the reduce task's output
  // stream — which is exactly the partition the consumer's aligned map task
  // used to read.
  bp.reduce_stages.insert(bp.reduce_stages.end(),
                          bc.inputs[0].map_stages.begin(),
                          bc.inputs[0].map_stages.end());
  bp.reduce_stages.insert(bp.reduce_stages.end(),
                          bc.merged_map_stages.begin(),
                          bc.merged_map_stages.end());
  bp.output_dataset = bc.output_dataset;
  bp.annotations = MergeForVerticalPack(bp.annotations, bc.annotations,
                                         PackDirection::kConsumerIntoProducer);

  JobVertex merged;
  merged.id = jp_id + "+" + jc_id;
  bp.tag = merged.id;
  merged.branches = {std::move(bp)};
  merged.config = jp.config;
  merged.conditions = jp.conditions;

  np.RemoveJob(jp_id);
  np.RemoveJob(jc_id);
  STUBBY_RETURN_NOT_OK(np.AddJob(std::move(merged)));
  if (!need_tee) np.RemoveDataset(dataset);
  np.RemoveOrphanDatasets();
  STUBBY_RETURN_NOT_OK(np.Validate());
  return np;
}

/// One-to-many extension (i): prepends a copy of the map-only producer's
/// pipeline to every consumer's read of `dataset`, then removes the
/// producer job and the intermediate dataset.
Result<Plan> ReplicateProducerIntoConsumers(
    const Plan& plan_in, const std::string& jp_id,
    const std::vector<std::string>& consumer_ids, const std::string& dataset) {
  Plan np = plan_in;
  STUBBY_ASSIGN_OR_RETURN(const JobVertex* jpp, np.GetJob(jp_id));
  const JobVertex jp = *jpp;
  const Branch& bp = jp.branches[0];

  for (const std::string& jc_id : consumer_ids) {
    STUBBY_ASSIGN_OR_RETURN(JobVertex * jc, np.GetMutableJob(jc_id));
    Branch& bc = jc->branches[0];
    int ii = -1;
    for (size_t i = 0; i < bc.inputs.size(); ++i) {
      if (bc.inputs[i].dataset_id == dataset) ii = static_cast<int>(i);
    }
    if (ii < 0) {
      return Status::Internal("consumer " + jc_id + " does not read " +
                              dataset);
    }
    BranchInput consumed = bc.inputs[static_cast<size_t>(ii)];
    if (bp.merge_mode()) {
      bc.inputs = bp.inputs;
      bc.merge_schema = bp.merge_schema;
      bc.merge_sort_fields = bp.merge_sort_fields;
      bc.merged_map_stages = bp.merged_map_stages;
      bc.merged_map_stages.insert(bc.merged_map_stages.end(),
                                  consumed.map_stages.begin(),
                                  consumed.map_stages.end());
    } else {
      std::vector<BranchInput> new_inputs;
      for (const BranchInput& pin : bp.inputs) {
        BranchInput merged = pin;
        merged.map_stages.insert(merged.map_stages.end(),
                                 consumed.map_stages.begin(),
                                 consumed.map_stages.end());
        new_inputs.push_back(std::move(merged));
      }
      bc.inputs.erase(bc.inputs.begin() + ii);
      bc.inputs.insert(bc.inputs.begin() + ii,
                       std::make_move_iterator(new_inputs.begin()),
                       std::make_move_iterator(new_inputs.end()));
    }
    bc.annotations = MergeForVerticalPack(
        bp.annotations, bc.annotations,
        PackDirection::kProducerIntoConsumer);
    if (bc.map_only()) bc.preserved_partition = bp.preserved_partition;
    std::string new_id = jp_id + "+" + jc_id;
    JobVertex merged = *jc;
    merged.id = new_id;
    merged.branches[0].tag = new_id;
    merged.conditions.partition_frozen =
        merged.conditions.partition_frozen || jp.conditions.partition_frozen;
    np.RemoveJob(jc_id);
    STUBBY_RETURN_NOT_OK(np.AddJob(std::move(merged)));
  }
  np.RemoveJob(jp_id);
  np.RemoveDataset(dataset);
  np.RemoveOrphanDatasets();
  STUBBY_RETURN_NOT_OK(np.Validate());
  return np;
}

}  // namespace

std::vector<Application> InterJobVerticalPacking::FindApplications(
    const Plan& plan, const std::vector<std::string>& unit_jobs) const {
  std::vector<Application> apps;

  for (const std::string& jp_id : unit_jobs) {
    auto jpr = plan.GetJob(jp_id);
    if (!jpr.ok()) continue;
    const JobVertex& jp = **jpr;
    if (jp.branches.size() != 1) continue;
    const Branch& bp = jp.branches[0];
    const std::string dataset = bp.output_dataset;
    auto dvr = plan.GetDataset(dataset);
    if (!dvr.ok()) continue;
    std::vector<std::string> consumers = plan.ConsumersOf(dataset);

    if (jp.map_only() && consumers.size() > 1 &&
        !(*dvr)->is_workflow_output) {
      // One-to-many extension, choice (i): replicate the map-only
      // producer's functions into every consumer's map pipeline,
      // eliminating the job and the intermediate dataset entirely.
      bool all_plain = true;
      for (const std::string& jc_id : consumers) {
        auto jcr = plan.GetJob(jc_id);
        if (!jcr.ok() || (*jcr)->branches.size() != 1) {
          all_plain = false;
          break;
        }
        int reads = 0;
        for (const BranchInput& in : (*jcr)->branches[0].inputs) {
          if (in.dataset_id != dataset) continue;
          ++reads;
          if (in.aligned || !in.prune_partitions.empty()) all_plain = false;
        }
        if (reads != 1) all_plain = false;
        // Merge-mode producers need single-input consumers (the producer's
        // aligned inputs replace the consumer's only input).
        if (bp.merge_mode() && (*jcr)->branches[0].inputs.size() != 1) {
          all_plain = false;
        }
      }
      if (all_plain) {
        Application app;
        app.transform_name = name();
        app.description =
            StrFormat("inter-pack map-only %s replicated into %zu consumers",
                      jp_id.c_str(), consumers.size());
        std::string producer_id = jp_id;
        for (const std::string& jc_id : consumers) {
          app.renames[jc_id] = jp_id + "+" + jc_id;
        }
        app.renames[jp_id] = jp_id + "+" + consumers[0];
        std::vector<std::string> consumer_ids = consumers;
        app.apply = [producer_id, dataset,
                     consumer_ids](const Plan& plan_in) -> Result<Plan> {
          return ReplicateProducerIntoConsumers(plan_in, producer_id,
                                                consumer_ids, dataset);
        };
        apps.push_back(std::move(app));
      }
    }

    if (jp.map_only()) {
      // Map-only producer packs into a consumer; one-to-many uses the tee
      // extension to keep the dataset for the remaining consumers.
      for (const std::string& jc_id : consumers) {
        if (!InUnit(unit_jobs, jc_id) || jc_id == jp_id) continue;
        auto jcr = plan.GetJob(jc_id);
        if (!jcr.ok()) continue;
        const JobVertex& jc = **jcr;
        if (jc.branches.size() != 1) continue;
        const Branch& bc = jc.branches[0];
        // The packed input must be a plain read (no alignment/pruning on
        // it; merged-stage consumers depend on partition boundaries).
        bool plain = true;
        int reads = 0;
        for (const BranchInput& in : bc.inputs) {
          if (in.dataset_id != dataset) continue;
          ++reads;
          if (in.aligned || !in.prune_partitions.empty()) plain = false;
        }
        if (reads != 1 || !plain) continue;
        bool need_tee =
            consumers.size() > 1 || (*dvr)->is_workflow_output;
        // No other consumer may depend on the dataset's partition layout.
        if (need_tee) {
          bool layout_dependent = false;
          for (const std::string& other : consumers) {
            if (other == jc_id) continue;
            auto jo = plan.GetJob(other);
            if (!jo.ok()) continue;
            for (const Branch& ob : (*jo)->branches) {
              for (const BranchInput& oin : ob.inputs) {
                if (oin.dataset_id == dataset &&
                    (oin.aligned || !oin.prune_partitions.empty())) {
                  layout_dependent = true;
                }
              }
            }
          }
          if (layout_dependent) continue;
        }
        Application app;
        app.transform_name = name();
        app.description = StrFormat("inter-pack map-only %s into %s%s",
                                    jp_id.c_str(), jc_id.c_str(),
                                    need_tee ? " (tee)" : "");
        app.renames[jp_id] = jp_id + "+" + jc_id;
        app.renames[jc_id] = jp_id + "+" + jc_id;
        app.apply = [jp_id, jc_id, dataset, need_tee](const Plan& p) {
          return PackProducerIntoConsumer(p, jp_id, jc_id, dataset, need_tee);
        };
        apps.push_back(std::move(app));
      }
    }

    if (!jp.map_only()) {
      // Map-only consumer packs into the producer's reduce side.
      for (const std::string& jc_id : consumers) {
        if (!InUnit(unit_jobs, jc_id) || jc_id == jp_id) continue;
        auto jcr = plan.GetJob(jc_id);
        if (!jcr.ok()) continue;
        const JobVertex& jc = **jcr;
        if (jc.branches.size() != 1) continue;
        const Branch& bc = jc.branches[0];
        if (!bc.map_only()) continue;
        if (bc.inputs.size() != 1 || bc.inputs[0].dataset_id != dataset) {
          continue;
        }
        if (!bc.inputs[0].prune_partitions.empty()) continue;
        // Grouped consumer stages must rely only on the ordering the
        // producer's reduce output stream already provides: the merge
        // re-sort must have been an ordering no-op, i.e. the intermediate
        // dataset's per-partition order must begin with the consumer's
        // merge sort fields.
        if (bc.merge_mode()) {
          if (!bc.inputs[0].aligned) continue;
          const std::vector<std::string>& provided =
              (*dvr)->layout.order_fields;
          if (!IsPrefix(bc.merge_sort_fields, provided)) continue;
        } else {
          // Plain map-only consumer: any read works (rows stream through).
          bool grouped = false;
          for (const Stage& s : bc.inputs[0].map_stages) {
            if (s.kind == Stage::Kind::kReduce) grouped = true;
          }
          if (grouped && !bc.inputs[0].aligned) continue;
        }
        bool need_tee =
            consumers.size() > 1 || (*dvr)->is_workflow_output;
        if (need_tee && consumers.size() > 1) {
          bool layout_dependent = false;
          for (const std::string& other : consumers) {
            if (other == jc_id) continue;
            auto jo = plan.GetJob(other);
            if (!jo.ok()) continue;
            for (const Branch& ob : (*jo)->branches) {
              for (const BranchInput& oin : ob.inputs) {
                if (oin.dataset_id == dataset &&
                    (oin.aligned || !oin.prune_partitions.empty())) {
                  layout_dependent = true;
                }
              }
            }
          }
          if (layout_dependent) continue;
        }
        Application app;
        app.transform_name = name();
        app.description = StrFormat("inter-pack map-only %s into %s%s",
                                    jc_id.c_str(), jp_id.c_str(),
                                    need_tee ? " (tee)" : "");
        app.renames[jp_id] = jp_id + "+" + jc_id;
        app.renames[jc_id] = jp_id + "+" + jc_id;
        app.apply = [jp_id, jc_id, dataset, need_tee](const Plan& p) {
          return PackConsumerIntoProducer(p, jp_id, jc_id, dataset, need_tee);
        };
        apps.push_back(std::move(app));
      }
    }
  }
  return apps;
}

}  // namespace stubby
