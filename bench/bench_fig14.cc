// Figure 14: actual vs estimated normalized cost for all combinations of
// valid transformations in the first optimization unit of the Information
// Retrieval workflow. Each subplan is given its RRS-chosen configuration,
// costed by the what-if engine (estimated) and executed on the simulated
// cluster (actual). As in the paper, the estimates are good enough to
// identify the best and worst subplans even when absolute values deviate.
//
// Flags: --rows N     sample rows (default 60000)
//        --noise F    profiling noise factor (default 0.05)
//        --threads N  worker threads (default: hardware); subplans run as
//                     concurrent tasks, results are identical at any count

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "bench_common.h"
#include "cost/phase_model.h"
#include "cost/whatif.h"
#include "exec/workflow_runner.h"
#include "optimizer/partition_fn.h"
#include "optimizer/search.h"
#include "optimizer/vertical.h"
#include "profiler/profiler.h"
#include "workloads/registry.h"

using namespace stubby;

namespace {

double RankCorrelation(const std::vector<double>& a,
                       const std::vector<double>& b) {
  auto ranks = [](const std::vector<double>& v) {
    std::vector<size_t> idx(v.size());
    for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::sort(idx.begin(), idx.end(),
              [&](size_t x, size_t y) { return v[x] < v[y]; });
    std::vector<double> r(v.size());
    for (size_t i = 0; i < idx.size(); ++i) r[idx[i]] = static_cast<double>(i);
    return r;
  };
  std::vector<double> ra = ranks(a), rb = ranks(b);
  double n = static_cast<double>(a.size());
  double d2 = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    d2 += (ra[i] - rb[i]) * (ra[i] - rb[i]);
  }
  return 1.0 - 6.0 * d2 / (n * (n * n - 1.0));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace stubby::bench;
  const int rows = IntFlag(argc, argv, "--rows", 60000);
  const int threads = ThreadsFlag(argc, argv);
  double noise = 0.05;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--noise") && i + 1 < argc) {
      noise = std::atof(argv[i + 1]);
    }
  }
  ThreadPool pool(threads);

  WorkloadOptions options;
  options.sample_rows = rows;
  auto workload = MakeWorkload("IR", options);
  STUBBY_CHECK_OK(workload.status());

  ProfilerOptions popts;
  popts.noise = noise;
  Profiler profiler(options.cluster, popts);
  Dfs profiling_dfs = workload->dfs;
  STUBBY_CHECK_OK(profiler.ProfilePlan(&workload->plan, &profiling_dfs));

  WhatIfEngine whatif(options.cluster);
  std::vector<std::shared_ptr<Transformation>> group = {
      std::make_shared<IntraJobVerticalPacking>(),
      std::make_shared<InterJobVerticalPacking>(),
      std::make_shared<PartitionFunctionTransform>(),
  };
  UnitSearchOptions uopts;
  UnitOptimizer unit_optimizer(group, &whatif, uopts, &pool);
  auto unit = NextUnit(workload->plan, {});
  if (!unit) {
    std::fprintf(stderr, "no optimization unit\n");
    return 1;
  }
  auto t0 = std::chrono::steady_clock::now();
  auto subplans = unit_optimizer.EnumerateSubplans(workload->plan, *unit);
  STUBBY_CHECK_OK(subplans.status());

  // Cost of a subplan = the summed standalone running time of the unit's
  // jobs (under their current ids), as the paper's per-unit drill-down
  // does; jobs outside the unit are identical across subplans.
  PhaseTimeModel model(options.cluster);
  auto unit_cost = [&](const Plan& plan, const WorkflowDataflow& flow,
                       const std::map<std::string, std::string>& renames) {
    double total = 0.0;
    std::set<std::string> ids;
    for (const auto& j : unit->AllJobs()) {
      auto it = renames.find(j);
      ids.insert(it == renames.end() ? j : it->second);
    }
    for (const auto& df : flow.jobs) {
      if (!ids.count(df.job_id)) continue;
      auto job = plan.GetJob(df.job_id);
      if (job.ok()) total += model.StandaloneJobTime(df, (*job)->config);
    }
    return total;
  };

  // Each subplan executes against its own Dfs copy and the engine is
  // cache-less here, so subplans are independent tasks.
  WorkflowRunner runner(options.cluster);
  const size_t n = subplans->size();
  std::vector<double> estimated(n), actual(n);
  std::vector<std::string> labels(n);
  RunTasks(&pool, n, [&](size_t i) {
    const SubplanCandidate& sp = (*subplans)[i];
    Dfs dfs = workload->dfs;
    auto flow = runner.Run(sp.plan, &dfs);
    STUBBY_CHECK_OK(flow.status());
    auto predicted = whatif.PredictDataflow(sp.plan);
    STUBBY_CHECK_OK(predicted.status());
    estimated[i] = unit_cost(sp.plan, *predicted, sp.renames);
    actual[i] = unit_cost(sp.plan, *flow, sp.renames);
    std::string label;
    for (const auto& a : sp.applied) {
      if (!label.empty()) label += " + ";
      label += a.substr(0, a.find(" ("));
    }
    labels[i] = label.empty() ? "(original)" : label;
  });
  const double total_wall = SecondsSince(t0);
  double est_max = *std::max_element(estimated.begin(), estimated.end());
  double act_max = *std::max_element(actual.begin(), actual.end());

  std::printf(
      "Figure 14: actual vs estimated normalized cost, first optimization "
      "unit of IR (%zu subplans, profiling noise %.2f)\n\n",
      estimated.size(), noise);
  std::printf("%-58s %10s %10s\n", "subplan", "estimated", "actual");
  Json subplans_json = Json::Array();
  for (size_t i = 0; i < estimated.size(); ++i) {
    std::printf("%-58.58s %10.3f %10.3f\n", labels[i].c_str(),
                estimated[i] / est_max, actual[i] / act_max);
    Json row = Json::Object();
    row["subplan"] = labels[i];
    row["estimated_sec"] = estimated[i];
    row["actual_sec"] = actual[i];
    row["estimated_norm"] = estimated[i] / est_max;
    row["actual_norm"] = actual[i] / act_max;
    subplans_json.Append(std::move(row));
  }
  size_t best_est = std::min_element(estimated.begin(), estimated.end()) -
                    estimated.begin();
  size_t best_act =
      std::min_element(actual.begin(), actual.end()) - actual.begin();
  size_t worst_est = std::max_element(estimated.begin(), estimated.end()) -
                     estimated.begin();
  size_t worst_act =
      std::max_element(actual.begin(), actual.end()) - actual.begin();
  const double rank_corr = RankCorrelation(estimated, actual);
  std::printf("\nrank correlation (Spearman): %.2f\n", rank_corr);
  // "Identified" in the paper's sense: the chosen subplan actually performs
  // within 2% of the true best/worst (ties between near-identical subplans
  // do not count as misses).
  bool best_ok = actual[best_est] <= actual[best_act] * 1.02;
  bool worst_ok = actual[worst_est] >= actual[worst_act] * 0.98;
  std::printf("best subplan identified : %s\n", best_ok ? "YES" : "no");
  std::printf("worst subplan identified: %s\n", worst_ok ? "YES" : "no");

  Json doc = Json::Object();
  doc["bench"] = "fig14";
  doc["rows"] = rows;
  doc["noise"] = noise;
  doc["threads"] = static_cast<uint64_t>(threads);
  doc["total_wall_sec"] = total_wall;
  doc["rank_correlation"] = rank_corr;
  doc["best_identified"] = best_ok;
  doc["worst_identified"] = worst_ok;
  doc["subplans"] = std::move(subplans_json);
  WriteBenchJson("BENCH_FIG14.json", doc);
  return 0;
}
