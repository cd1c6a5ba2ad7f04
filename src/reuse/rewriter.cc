#include "reuse/rewriter.h"

#include <algorithm>
#include <set>

namespace stubby {

Status ReuseRewriter::MaterializeVertex(Plan* plan,
                                        const std::string& dataset_id,
                                        const StoredResult& entry) const {
  STUBBY_ASSIGN_OR_RETURN(DatasetPtr snapshot,
                          store_->OpenSnapshot(entry.snapshot_id));
  STUBBY_ASSIGN_OR_RETURN(DatasetVertex * v,
                          plan->GetMutableDataset(dataset_id));
  v->is_base_input = true;
  v->materialized_from = entry.snapshot_id;
  v->layout = snapshot->layout();
  v->annotation.schema = v->schema;
  v->annotation.layout = snapshot->layout();
  v->annotation.num_records = entry.logical_rows;
  v->annotation.bytes = entry.logical_bytes;
  v->annotation.num_partitions = static_cast<int>(snapshot->num_partitions());
  return Status::OK();
}

Result<ReuseRewriteResult> ReuseRewriter::ElideWholeWorkflow(
    const Plan& plan, const CostKey& options_salt) {
  ReuseRewriteResult result;
  result.plan = plan;

  STUBBY_ASSIGN_OR_RETURN(PlanLineage lineage, ComputeLineage(plan, *dfs_));

  // Probe every terminal output first; commit nothing on a partial hit
  // (executing half a workflow from the store and half from scratch would
  // still run all the upstream jobs the stored half depended on).
  std::vector<std::pair<std::string, CostKey>> terminals;
  for (const auto& [id, v] : plan.datasets()) {
    if (!v.is_workflow_output) continue;
    auto it = lineage.datasets.find(id);
    if (it == lineage.datasets.end()) return result;  // unresolvable: miss
    CostKey key = WorkflowOutputKey(it->second, options_salt);
    ++result.stats.lookups;
    if (store_->Peek(key) == nullptr) return result;
    terminals.emplace_back(id, key);
  }
  if (terminals.empty() || plan.num_jobs() == 0) return result;

  Plan elided(plan.cluster());
  for (const auto& [id, key] : terminals) {
    const StoredResult* entry = store_->Lookup(key);
    const DatasetVertex* original = *plan.GetDataset(id);
    DatasetVertex v;
    v.id = id;
    v.schema = original->schema;
    v.is_base_input = true;
    v.is_workflow_output = true;
    Status s = elided.AddDataset(std::move(v));
    if (!s.ok()) return s;
    s = MaterializeVertex(&elided, id, *entry);
    if (!s.ok()) return s;
    store_->Pin(entry->snapshot_id);
    result.pinned_snapshots.push_back(entry->snapshot_id);
    result.materialized_lineage.emplace(id, lineage.datasets.at(id));
    ++result.stats.workflow_hits;
    result.stats.bytes_saved += entry->logical_bytes;
  }
  result.stats.jobs_elided = plan.num_jobs();
  result.plan = std::move(elided);
  result.changed = true;
  Status s = result.plan.Validate();
  if (!s.ok()) return s;
  return result;
}

Result<ReuseRewriteResult> ReuseRewriter::Rewrite(const Plan& plan) {
  return RewriteImpl(plan, /*scope=*/nullptr, /*seeds=*/nullptr,
                     /*commit=*/true);
}

Result<ReuseRewriteResult> ReuseRewriter::PlanForScope(
    const Plan& plan, const std::vector<std::string>* scope,
    const std::map<std::string, CostKey>* seeds) const {
  if (scope == nullptr) {
    return RewriteImpl(plan, nullptr, seeds, /*commit=*/false);
  }
  std::set<std::string> scope_set(scope->begin(), scope->end());
  return RewriteImpl(plan, &scope_set, seeds, /*commit=*/false);
}

Result<ReuseRewriteResult> ReuseRewriter::RewriteImpl(
    const Plan& plan, const std::set<std::string>* scope,
    const std::map<std::string, CostKey>* seeds, bool commit) const {
  ReuseRewriteResult result;
  result.plan = plan;
  const size_t original_jobs = plan.num_jobs();

  // A scoped probe can only observe the keys of the scope's upstream
  // closure, so key derivation stops there.
  std::set<std::string> closure;
  if (scope != nullptr) {
    STUBBY_ASSIGN_OR_RETURN(closure, UpstreamJobClosure(plan, *scope));
  }
  STUBBY_ASSIGN_OR_RETURN(
      PlanLineage lineage,
      ComputeLineage(plan, *dfs_, seeds,
                     scope != nullptr ? &closure : nullptr));
  STUBBY_ASSIGN_OR_RETURN(std::vector<std::string> order,
                          plan.TopologicalOrder());

  // --- tier 2a: whole-job reuse -------------------------------------------
  // Matching runs against the *input* plan's lineage, which does not change
  // as jobs are removed: a produced dataset's key derives from its
  // producer's key whether or not the producer still exists.
  for (const std::string& jid : order) {
    if (scope != nullptr && scope->count(jid) == 0) continue;
    auto kit = lineage.jobs.find(jid);
    if (kit == lineage.jobs.end()) continue;
    const JobVertex& job = **plan.GetJob(jid);
    std::vector<std::string> outputs = job.OutputDatasets();
    std::vector<const StoredResult*> entries;
    bool all = true;
    for (size_t i = 0; i < outputs.size(); ++i) {
      ++result.stats.lookups;
      const StoredResult* e = store_->Peek(JobOutputKey(kit->second, i));
      if (e == nullptr) {
        all = false;
        break;
      }
      entries.push_back(e);
    }
    if (!all || outputs.empty()) continue;

    result.plan.RemoveJob(jid);
    for (size_t i = 0; i < outputs.size(); ++i) {
      const CostKey key = JobOutputKey(kit->second, i);
      const StoredResult* entry =
          commit ? store_->Lookup(key) : store_->Peek(key);
      Status s = MaterializeVertex(&result.plan, outputs[i], *entry);
      if (!s.ok()) return s;
      result.materialized_lineage.emplace(outputs[i], key);
      result.stats.bytes_saved += entry->logical_bytes;
    }
    ++result.stats.whole_job_hits;
  }

  // --- tier 2b: sub-job (map-prefix) reuse --------------------------------
  for (const std::string& jid : order) {
    if (!result.plan.HasJob(jid)) continue;  // removed above
    if (scope != nullptr && scope->count(jid) == 0) continue;
    STUBBY_ASSIGN_OR_RETURN(JobVertex * job, result.plan.GetMutableJob(jid));
    for (Branch& b : job->branches) {
      for (BranchInput& in : b.inputs) {
        // Inputs already rewired to a materialized scan keep their identity.
        auto lit = lineage.datasets.find(in.dataset_id);
        if (lit == lineage.datasets.end()) continue;
        const size_t n = in.map_stages.size();
        const StoredResult* hit = nullptr;
        size_t hit_len = 0;
        CostKey hit_key{0, 0};
        // Eligibility inspects the whole pipeline, not the prefix, so one
        // check at k = n decides the entire ladder.
        if (n >= 1 && PrefixEligible(b, in, job->config, n)) {
          for (size_t k = n; k >= 1; --k) {  // longest stored prefix wins
            const CostKey key = MapStreamKey(lit->second, in.map_stages, k);
            ++result.stats.lookups;
            const StoredResult* e = store_->Peek(key);
            if (e != nullptr) {
              hit = commit ? store_->Lookup(key) : e;
              hit_len = k;
              hit_key = key;
              break;
            }
          }
        }
        if (hit == nullptr) continue;

        std::string scan_id = "reuse:" + CostKeyToHex(hit_key);
        if (!result.plan.HasDataset(scan_id)) {
          DatasetVertex v;
          v.id = scan_id;
          v.schema = in.map_stages[hit_len - 1].output_schema();
          v.is_base_input = true;
          Status s = result.plan.AddDataset(std::move(v));
          if (!s.ok()) return s;
          s = MaterializeVertex(&result.plan, scan_id, *hit);
          if (!s.ok()) return s;
          result.materialized_lineage.emplace(scan_id, hit_key);
        }
        in.dataset_id = scan_id;
        in.map_stages.erase(in.map_stages.begin(),
                            in.map_stages.begin() +
                                static_cast<long>(hit_len));
        ++result.stats.prefix_hits;
        result.stats.bytes_saved += hit->logical_bytes;
      }
    }
  }

  result.changed =
      result.stats.whole_job_hits > 0 || result.stats.prefix_hits > 0;
  if (!result.changed) return result;  // plan is bit-identical to the input

  // --- dead-code cleanup ---------------------------------------------------
  // A job all of whose outputs are unconsumed non-terminals only existed to
  // feed something now served from the store.
  bool removed = true;
  while (removed) {
    removed = false;
    std::vector<std::string> dead;
    for (const auto& [jid, job] : result.plan.jobs()) {
      bool needed = false;
      for (const std::string& out : job.OutputDatasets()) {
        auto ds = result.plan.GetDataset(out);
        if (!ds.ok() || (*ds)->is_workflow_output ||
            !result.plan.ConsumersOf(out).empty()) {
          needed = true;
          break;
        }
      }
      if (!needed) dead.push_back(jid);
    }
    for (const std::string& jid : dead) {
      result.plan.RemoveJob(jid);
      removed = true;
    }
  }
  result.plan.RemoveOrphanDatasets();

  // Drop materialized scans nothing ended up reading (a whole-job rewrite
  // can strand the scan a prefix rewrite added, or an elided consumer can
  // strand a materialized output).
  std::vector<std::string> stranded;
  for (const auto& [id, v] : result.plan.datasets()) {
    if (v.materialized_from.empty() || v.is_workflow_output) continue;
    if (result.plan.ConsumersOf(id).empty()) stranded.push_back(id);
  }
  for (const std::string& id : stranded) {
    result.plan.RemoveDataset(id);
    result.materialized_lineage.erase(id);
  }

  // Pin the snapshots the surviving plan scans (commit mode only; a
  // planning probe must leave the store untouched).
  if (commit) {
    std::set<std::string> pinned;
    for (const auto& [id, v] : result.plan.datasets()) {
      if (v.materialized_from.empty()) continue;
      if (pinned.insert(v.materialized_from).second) {
        store_->Pin(v.materialized_from);
        result.pinned_snapshots.push_back(v.materialized_from);
      }
    }
  }

  result.stats.jobs_elided = original_jobs - result.plan.num_jobs();
  Status s = result.plan.Validate();
  if (!s.ok()) return s;
  return result;
}

}  // namespace stubby
