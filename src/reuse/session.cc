#include "reuse/session.h"

#include <chrono>

#include "exec/workflow_runner.h"
#include "reuse/signature.h"

namespace stubby {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Releases the optimizer's snapshot pins on every exit path — staging or
/// execution failures must not leave snapshots pinned against eviction
/// forever. Owns a copy of the pin list: the report it came from is
/// move-constructed into the return value before this destructor runs, so a
/// pointer back into it would observe a moved-from (empty) vector on the
/// success path and leak every pin.
struct PinReleaser {
  ResultStore* store = nullptr;
  std::vector<std::string> pins;
  ~PinReleaser() {
    if (store == nullptr) return;
    for (const std::string& snapshot : pins) store->Unpin(snapshot);
  }
};

}  // namespace

Result<ReuseSessionResult> ReuseSession::Run(const Plan& plan, const Dfs& dfs,
                                             const StubbyOptions& base_options,
                                             ThreadPool* pool,
                                             bool register_outputs) const {
  ReuseSessionResult result;

  StubbyOptions options = base_options;
  if (store_ != nullptr) {
    options.reuse_store = store_;
    options.reuse_dfs = &dfs;
  }
  if (options.pool == nullptr) options.pool = pool;

  auto t_opt = std::chrono::steady_clock::now();
  StubbyOptimizer optimizer(options);
  STUBBY_ASSIGN_OR_RETURN(result.report, optimizer.Optimize(plan));
  result.optimize_sec = SecondsSince(t_opt);
  // With the reuse-aware search (single-tier path), the optimizer commits
  // hits and pins scanned snapshots itself; either way the pins last until
  // this session run ends, success or failure.
  PinReleaser pin_releaser{store_, result.report.reuse_pinned};

  auto t_exec = std::chrono::steady_clock::now();
  // Stage every materialized vertex: its snapshot becomes a base input of
  // the run under the vertex's id.
  Dfs run_dfs = dfs;
  for (const auto& [id, v] : result.report.plan.datasets()) {
    if (v.materialized_from.empty()) continue;
    if (store_ == nullptr) {
      return Status::Internal("materialized vertex without a store");
    }
    STUBBY_ASSIGN_OR_RETURN(DatasetPtr snapshot,
                            store_->OpenSnapshot(v.materialized_from));
    run_dfs.PutOrReplace(CloneDataset(*snapshot, id));
  }

  if (options.reoptimize) {
    // Adaptive execution: WorkflowRunner's loop plus the observed-vs-
    // predicted dataflow check and mid-run suffix re-optimization. An exact
    // no-op (bit-identical dataflow and outputs) when no check fires.
    AdaptiveRunner runner(plan.cluster(), pool, options);
    STUBBY_ASSIGN_OR_RETURN(AdaptiveRunResult adaptive,
                            runner.Run(result.report.plan, &run_dfs));
    result.dataflow = std::move(adaptive.dataflow);
    result.adaptive = std::move(adaptive.stats);
  } else {
    WorkflowRunner runner(plan.cluster(), pool);
    STUBBY_ASSIGN_OR_RETURN(result.dataflow,
                            runner.Run(result.report.plan, &run_dfs));
  }
  result.simulated_cost = result.dataflow.makespan_sec;

  for (const auto& [id, v] : plan.datasets()) {
    if (!v.is_workflow_output) continue;
    STUBBY_ASSIGN_OR_RETURN(DatasetPtr out, run_dfs.Get(id));
    result.outputs.emplace(id, out->AllRows());
  }
  result.execute_sec = SecondsSince(t_exec);

  if (store_ != nullptr && register_outputs) {
    ReuseStats reg;
    // Lineage of the *executed* plan, seeded so materialized vertices keep
    // the identity they were matched under.
    STUBBY_ASSIGN_OR_RETURN(
        PlanLineage executed,
        ComputeLineage(result.report.plan, run_dfs,
                       &result.report.reuse_lineage_seeds));

    // Register every executed job's outputs; a stateless map-only job's
    // output doubles as a map-stream entry for sub-job (prefix) matching.
    // After a mid-run re-optimization the optimized plan's per-job lineage
    // no longer describes what executed (the spliced suffix may use other
    // configurations under the same dataset ids), so only the terminal
    // outputs — bit-identical by the equivalence invariant and keyed by the
    // original plan's lineage — are registered then.
    const bool spliced = result.adaptive.reoptimizations > 0;
    for (const auto& [jid, job] : result.report.plan.jobs()) {
      if (spliced) break;
      auto kit = executed.jobs.find(jid);
      if (kit == executed.jobs.end()) continue;
      std::vector<std::string> outputs = job.OutputDatasets();
      for (size_t i = 0; i < outputs.size(); ++i) {
        auto stored = run_dfs.Get(outputs[i]);
        if (!stored.ok()) continue;
        std::vector<std::pair<CostKey, ReuseKind>> keys;
        keys.emplace_back(JobOutputKey(kit->second, i),
                          ReuseKind::kJobOutput);
        if (i == 0 && job.branches.size() == 1) {
          const Branch& b = job.branches[0];
          if (b.map_only() && b.inputs.size() == 1 &&
              !b.inputs[0].map_stages.empty() &&
              outputs[i] == b.output_dataset &&
              PrefixEligible(b, b.inputs[0], job.config,
                             b.inputs[0].map_stages.size())) {
            auto in_key = executed.datasets.find(b.inputs[0].dataset_id);
            if (in_key != executed.datasets.end()) {
              keys.emplace_back(
                  MapStreamKey(in_key->second, b.inputs[0].map_stages,
                               b.inputs[0].map_stages.size()),
                  ReuseKind::kMapStream);
            }
          }
        }
        for (const auto& [key, kind] : keys) {
          if (store_->Peek(key) == nullptr) ++reg.registered;
        }
        store_->Register(**stored, keys);
      }
    }

    // Register the workflow's terminal outputs under their *original-plan*
    // lineage salted with the options, for whole-workflow elision.
    STUBBY_ASSIGN_OR_RETURN(PlanLineage original, ComputeLineage(plan, dfs));
    CostKey salt = ReuseSaltFromOptions(options);
    for (const auto& [id, v] : plan.datasets()) {
      if (!v.is_workflow_output) continue;
      auto lit = original.datasets.find(id);
      if (lit == original.datasets.end()) continue;
      auto stored = run_dfs.Get(id);
      if (!stored.ok()) continue;
      CostKey key = WorkflowOutputKey(lit->second, salt);
      if (store_->Peek(key) == nullptr) ++reg.registered;
      store_->Register(**stored, {{key, ReuseKind::kWorkflowOutput}});
    }

    result.reuse = result.report.reuse;
    result.reuse.Add(reg);
  } else if (store_ != nullptr) {
    // Registration skipped (degraded mode): hits were still served, so the
    // rewrite counters carry over — only `registered` stays zero.
    result.reuse = result.report.reuse;
  }

  return result;
}

}  // namespace stubby
