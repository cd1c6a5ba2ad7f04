#include "exec/workflow_runner.h"

#include "cost/phase_model.h"
#include "cost/schedule.h"
#include "exec/job_runner.h"

namespace stubby {

Result<WorkflowDataflow> WorkflowRunner::Run(const Plan& plan,
                                             Dfs* dfs) const {
  STUBBY_RETURN_NOT_OK(plan.Validate());
  for (const auto& [id, ds] : plan.datasets()) {
    if (ds.is_base_input && !dfs->Exists(id)) {
      return Status::FailedPrecondition("base input dataset '" + id +
                                        "' missing from DFS");
    }
  }

  STUBBY_ASSIGN_OR_RETURN(std::vector<std::string> order,
                          plan.TopologicalOrder());
  JobRunner job_runner(cluster_, pool_);
  PhaseTimeModel model(cluster_);

  WorkflowDataflow flow;
  std::vector<ScheduledJob> scheduled;
  for (const auto& jid : order) {
    STUBBY_ASSIGN_OR_RETURN(const JobVertex* job, plan.GetJob(jid));
    STUBBY_ASSIGN_OR_RETURN(JobDataflow df, job_runner.Run(plan, *job, dfs));
    ScheduledJob sj;
    sj.id = jid;
    sj.deps = plan.UpstreamJobs(jid);
    sj.times = model.TaskTimes(df, job->config);
    scheduled.push_back(std::move(sj));
    flow.jobs.push_back(std::move(df));
  }
  STUBBY_ASSIGN_OR_RETURN(ScheduleResult sched,
                          SimulateCluster(scheduled, cluster_));
  flow.makespan_sec = sched.makespan_sec;
  flow.job_finish_sec = std::move(sched.job_finish_sec);
  return flow;
}

}  // namespace stubby
