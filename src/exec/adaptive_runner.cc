#include "exec/adaptive_runner.h"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <map>
#include <set>
#include <sstream>

#include "cost/phase_model.h"
#include "cost/schedule.h"
#include "cost/whatif.h"
#include "optimizer/reoptimize.h"

namespace stubby {

namespace {

double RelErr(uint64_t observed, uint64_t predicted) {
  const double o = static_cast<double>(observed);
  const double p = static_cast<double>(predicted);
  return std::abs(o - p) / std::max(p, 1.0);
}

/// Worst relative error over the phase sizes the injector (and a wrong
/// input profile generally) distorts: map input, map output, final output,
/// and — when no combine model is in play — the reduce input. The analytic
/// combine model carries irreducible estimation error even with exact
/// profiles (Figure 14), so reduce_input_* participates only when the
/// prediction shows the combine pass-through (combine output bit-equal to
/// map output); the threshold must separate "the profile was wrong" from
/// "the model is approximate".
double MaxRelativeError(const JobDataflow& observed,
                        const JobDataflow& predicted) {
  double err = 0.0;
  err = std::max(err, RelErr(observed.map_input_records,
                             predicted.map_input_records));
  err = std::max(err,
                 RelErr(observed.map_input_bytes, predicted.map_input_bytes));
  err = std::max(err, RelErr(observed.map_output_records,
                             predicted.map_output_records));
  err = std::max(err, RelErr(observed.map_output_bytes,
                             predicted.map_output_bytes));
  err = std::max(err,
                 RelErr(observed.output_records, predicted.output_records));
  err = std::max(err,
                 RelErr(observed.output_bytes, predicted.output_bytes));
  const bool combine_inactive =
      predicted.combine_output_records == predicted.map_output_records &&
      predicted.combine_output_bytes == predicted.map_output_bytes;
  if (combine_inactive) {
    err = std::max(err, RelErr(observed.reduce_input_records,
                               predicted.reduce_input_records));
    err = std::max(err, RelErr(observed.reduce_input_bytes,
                               predicted.reduce_input_bytes));
  }
  return err;
}

}  // namespace

std::string AdaptiveStats::ToString() const {
  std::ostringstream os;
  os << "jobs_executed=" << jobs_executed << " checks=" << checks
     << " reoptimizations=" << reoptimizations
     << " suffix_jobs_replanned=" << suffix_jobs_replanned
     << " max_rel_error=" << max_rel_error << " order=[";
  for (size_t i = 0; i < executed_order.size(); ++i) {
    if (i > 0) os << ",";
    os << executed_order[i];
  }
  os << "]";
  return os.str();
}

bool ReoptimizeFromEnv(bool fallback) {
  const char* env = std::getenv("STUBBY_REOPT");
  if (env == nullptr) return fallback;
  return std::string(env) != "0";
}

Result<AdaptiveRunResult> AdaptiveRunner::Run(const Plan& plan,
                                              Dfs* dfs) const {
  STUBBY_RETURN_NOT_OK(plan.Validate());
  for (const auto& [id, ds] : plan.datasets()) {
    if (ds.is_base_input && !dfs->Exists(id)) {
      return Status::FailedPrecondition("base input dataset '" + id +
                                        "' missing from DFS");
    }
  }

  AdaptiveRunResult out;
  Plan current = plan;
  WhatIfEngine whatif(cluster_);
  // Adaptivity needs a prediction to compare against; fallback-costed plans
  // (annotations missing) execute exactly like WorkflowRunner.
  CostEstimate predicted = whatif.Cost(current);
  bool adaptive = options_.reoptimize && !predicted.fallback;

  JobRunner job_runner(cluster_, pool_);
  PhaseTimeModel model(cluster_);

  STUBBY_ASSIGN_OR_RETURN(std::vector<std::string> order,
                          current.TopologicalOrder());
  std::deque<std::string> remaining(order.begin(), order.end());
  std::set<std::string> executed_ids;
  // Dataset id -> the executed job that wrote it: dependency fixup for
  // suffix jobs whose inputs are promoted prefix outputs, so the composite
  // schedule keeps the true cross-splice ordering constraints.
  std::map<std::string, std::string> produced_by;
  std::vector<ScheduledJob> scheduled;
  WorkflowDataflow flow;

  while (!remaining.empty()) {
    const std::string jid = remaining.front();
    remaining.pop_front();
    STUBBY_ASSIGN_OR_RETURN(const JobVertex* job, current.GetJob(jid));
    STUBBY_ASSIGN_OR_RETURN(JobDataflow df,
                            job_runner.Run(current, *job, dfs));
    ScheduledJob sj;
    sj.id = jid;
    sj.deps = current.UpstreamJobs(jid);
    for (const std::string& in : job->InputDatasets()) {
      auto it = produced_by.find(in);
      if (it == produced_by.end()) continue;
      if (std::find(sj.deps.begin(), sj.deps.end(), it->second) ==
          sj.deps.end()) {
        sj.deps.push_back(it->second);
      }
    }
    sj.times = model.TaskTimes(df, job->config);
    scheduled.push_back(std::move(sj));
    for (const std::string& o : job->OutputDatasets()) produced_by[o] = jid;
    executed_ids.insert(jid);
    out.stats.executed_order.push_back(jid);
    ++out.stats.jobs_executed;

    const JobDataflow* pred = predicted.dataflow.FindJob(jid);
    flow.jobs.push_back(std::move(df));
    if (!adaptive || remaining.empty() || pred == nullptr) continue;

    ++out.stats.checks;
    const double err = MaxRelativeError(flow.jobs.back(), *pred);
    out.stats.max_rel_error = std::max(out.stats.max_rel_error, err);
    if (err <= options_.reoptimize_threshold) continue;

    // The prediction was wrong enough to distrust the rest of the plan:
    // re-plan the remainder against observed reality and splice it in.
    STUBBY_ASSIGN_OR_RETURN(Plan suffix,
                            BuildSuffixPlan(current, executed_ids, *dfs));
    if (suffix.num_jobs() == 0) continue;
    STUBBY_ASSIGN_OR_RETURN(
        OptimizeReport replan,
        ReoptimizeSuffix(suffix, *dfs, options_, pool_));
    current = std::move(replan.plan);
    STUBBY_ASSIGN_OR_RETURN(order, current.TopologicalOrder());
    remaining.assign(order.begin(), order.end());
    predicted = whatif.Cost(current);
    adaptive = !predicted.fallback;
    ++out.stats.reoptimizations;
    out.stats.suffix_jobs_replanned += current.num_jobs();
  }

  STUBBY_ASSIGN_OR_RETURN(ScheduleResult sched,
                          SimulateCluster(scheduled, cluster_));
  flow.makespan_sec = sched.makespan_sec;
  flow.job_finish_sec = std::move(sched.job_finish_sec);
  out.dataflow = std::move(flow);
  out.final_plan = std::move(current);
  return out;
}

}  // namespace stubby
