// Optimality-gap study + adaptive mis-profile recovery, emitting
// BENCH_OPTGAP.json.
//
// Part A — how far does Stubby's scoped greedy + RRS search land from the
// whole-graph exhaustive optimum? For every Section-7 workload small enough
// to search whole-graph (and a sweep of random differential workflows), the
// plan is costed both ways and the RRS/exhaustive cost ratio recorded
// (grounding: "Measuring the Optimality of Hadoop Optimization").
//
// Part B — when the profile is wrong, how much of the damage does adaptive
// suffix re-optimization undo? Per workload: the clean-profile plan's
// simulated makespan; the makespan of the plan optimized from
// deterministically perturbed profiles (profiler/perturb.h — the data
// itself is untouched, so execution is truthful); and the makespan of the
// same mis-optimized plan run under the adaptive runner, which detects the
// observed-vs-predicted error mid-run and re-optimizes the remaining
// suffix against reality. recovery = (mis - adaptive) / (mis - clean);
// a workload whose mis-profiled plan shows no regression counts as
// recovered. Exit code gates "recovery >= --min-recovery on >= --min-pass
// of the 8 workloads" for CI.
//
// Flags: --rows N          physical sample rows (default 4000)
//        --threads N       worker threads (results identical at any count)
//        --seeds N         random workflows for the gap sweep (default 16;
//                          generator seeds past the job-count guard are
//                          skipped and counted)
//        --magnitude M     perturbation strength (default 8)
//        --min-recovery R  per-workload recovery bar (default 0.5)
//        --min-pass K      workloads that must clear the bar (default 6)

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_common.h"
#include "exec/adaptive_runner.h"
#include "optimizer/horizontal.h"
#include "optimizer/partition_fn.h"
#include "optimizer/search.h"
#include "optimizer/unit.h"
#include "optimizer/vertical.h"
#include "profiler/perturb.h"
#include "workloads/random.h"

using namespace stubby;
using namespace stubby::bench;

namespace {

/// Whole-graph plans stay searchable up to this many jobs (the same guard
/// as bench_fig13's ablation — the blowup past it is why units exist).
constexpr size_t kMaxExhaustiveJobs = 5;

/// One unit spanning the whole plan, as in bench_fig13's ablation.
OptimizationUnit WholeGraphUnit(const Plan& plan) {
  std::set<std::string> produced;
  for (const auto& [jid, job] : plan.jobs()) {
    for (const std::string& out : job.OutputDatasets()) produced.insert(out);
  }
  OptimizationUnit unit;
  for (const auto& [jid, job] : plan.jobs()) {
    bool root = true;
    for (const std::string& in : job.InputDatasets()) {
      if (produced.count(in)) {
        root = false;
        break;
      }
    }
    (root ? unit.producers : unit.consumers).push_back(jid);
  }
  return unit;
}

struct ExhaustiveBest {
  double cost = 0.0;
  size_t subplans = 0;
};

/// Exhaustively enumerates the whole graph as one unit and returns the
/// cheapest candidate's what-if cost.
Result<ExhaustiveBest> ExhaustiveWholeGraph(const Plan& plan,
                                            ThreadPool* pool) {
  std::vector<std::shared_ptr<Transformation>> transforms = {
      std::make_shared<IntraJobVerticalPacking>(),
      std::make_shared<InterJobVerticalPacking>(),
      std::make_shared<HorizontalPacking>(/*extended=*/true),
      std::make_shared<PartitionFunctionTransform>(),
  };
  UnitSearchOptions unit_options;
  unit_options.max_subplans = 512;
  unit_options.max_depth = 8;
  unit_options.seed = 17;
  WhatIfEngine whatif(plan.cluster());
  UnitOptimizer optimizer(transforms, &whatif, unit_options, pool);
  STUBBY_ASSIGN_OR_RETURN(auto subplans,
                          optimizer.EnumerateSubplans(plan, WholeGraphUnit(plan)));
  ExhaustiveBest best;
  best.subplans = subplans.size();
  for (size_t i = 0; i < subplans.size(); ++i) {
    if (i == 0 || subplans[i].cost < best.cost) best.cost = subplans[i].cost;
  }
  return best;
}

/// The RRS-vs-exhaustive cost ratio of one (profiled) plan, or nothing when
/// the plan is too large to search whole-graph.
struct GapRow {
  std::string label;
  size_t jobs = 0;
  double rrs_cost = 0.0;
  double exhaustive_cost = 0.0;
  size_t subplans = 0;
  double ratio = 0.0;
};

Result<GapRow> MeasureGap(const std::string& label, const Plan& plan,
                          ThreadPool* pool) {
  GapRow row;
  row.label = label;
  row.jobs = plan.num_jobs();
  StubbyOptions opts;
  opts.pool = pool;
  STUBBY_ASSIGN_OR_RETURN(OptimizeReport report,
                          StubbyOptimizer(opts).Optimize(plan));
  row.rrs_cost = report.estimated_cost;
  STUBBY_ASSIGN_OR_RETURN(ExhaustiveBest best,
                          ExhaustiveWholeGraph(plan, pool));
  row.exhaustive_cost = best.cost;
  row.subplans = best.subplans;
  row.ratio = best.cost > 0 ? row.rrs_cost / best.cost : 1.0;
  return row;
}

Json GapJson(const GapRow& g) {
  Json j = Json::Object();
  j["label"] = g.label;
  j["jobs"] = static_cast<uint64_t>(g.jobs);
  j["rrs_cost"] = g.rrs_cost;
  j["exhaustive_cost"] = g.exhaustive_cost;
  j["subplans"] = static_cast<uint64_t>(g.subplans);
  j["ratio"] = g.ratio;
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  const int rows = IntFlag(argc, argv, "--rows", 4000);
  const int threads = ThreadsFlag(argc, argv);
  const int seeds = IntFlag(argc, argv, "--seeds", 16);
  const double magnitude =
      static_cast<double>(IntFlag(argc, argv, "--magnitude", 8));
  const double min_recovery =
      static_cast<double>(IntFlag(argc, argv, "--min-recovery-pct", 50)) /
      100.0;
  const int min_pass = IntFlag(argc, argv, "--min-pass", 6);
  ThreadPool pool(threads);

  Json doc = Json::Object();
  doc["bench"] = "optgap";
  doc["rows"] = rows;
  doc["threads"] = static_cast<uint64_t>(threads);
  doc["magnitude"] = magnitude;

  // --- Part A: RRS vs whole-graph exhaustive -------------------------------
  std::printf("Optimality gap: RRS vs whole-graph exhaustive\n");
  std::printf("%-10s %6s %9s %12s %12s %8s\n", "WF", "Jobs", "Subplans",
              "RRS", "Exhaustive", "Ratio");
  Json gap_workloads = Json::Array();
  Json gap_skipped = Json::Array();
  double worst_ratio = 0.0;
  for (const std::string& abbr : AllWorkloadAbbrs()) {
    auto pw = Prepare(abbr, rows);
    STUBBY_CHECK_OK(pw.status());
    if (pw->workload.plan.num_jobs() > kMaxExhaustiveJobs) {
      // Too large to enumerate whole-graph — recorded, never silently
      // dropped.
      std::printf("%-10s %6zu  (skipped: > %zu jobs)\n", abbr.c_str(),
                  pw->workload.plan.num_jobs(), kMaxExhaustiveJobs);
      gap_skipped.Append(Json(abbr));
      continue;
    }
    auto g = MeasureGap(abbr, pw->workload.plan, &pool);
    STUBBY_CHECK_OK(g.status());
    std::printf("%-10s %6zu %9zu %12.0f %12.0f %7.4fx\n", abbr.c_str(),
                g->jobs, g->subplans, g->rrs_cost, g->exhaustive_cost,
                g->ratio);
    worst_ratio = std::max(worst_ratio, g->ratio);
    gap_workloads.Append(GapJson(*g));
  }

  Json gap_random = Json::Array();
  int random_skipped = 0;
  for (int s = 0; s < seeds; ++s) {
    auto f = MakeRandomWorkflow(static_cast<uint64_t>(s));
    STUBBY_CHECK_OK(f.status());
    if (f->plan().num_jobs() > kMaxExhaustiveJobs) {
      ++random_skipped;
      continue;
    }
    Profiler profiler(ClusterSpec{});
    Dfs profile_dfs = f->dfs();
    STUBBY_CHECK_OK(profiler.ProfilePlan(&f->plan(), &profile_dfs));
    auto g = MeasureGap("seed" + std::to_string(s), f->plan(), &pool);
    STUBBY_CHECK_OK(g.status());
    std::printf("%-10s %6zu %9zu %12.0f %12.0f %7.4fx\n", g->label.c_str(),
                g->jobs, g->subplans, g->rrs_cost, g->exhaustive_cost,
                g->ratio);
    worst_ratio = std::max(worst_ratio, g->ratio);
    gap_random.Append(GapJson(*g));
  }
  if (random_skipped > 0) {
    std::printf("random workflows skipped (> %zu jobs): %d of %d\n",
                kMaxExhaustiveJobs, random_skipped, seeds);
  }
  std::printf("worst RRS/exhaustive ratio: %.4fx\n", worst_ratio);

  Json gap = Json::Object();
  gap["max_jobs"] = static_cast<uint64_t>(kMaxExhaustiveJobs);
  gap["workloads"] = std::move(gap_workloads);
  gap["workloads_skipped"] = std::move(gap_skipped);
  gap["random"] = std::move(gap_random);
  gap["random_skipped"] = static_cast<uint64_t>(random_skipped);
  gap["worst_ratio"] = worst_ratio;
  doc["gap"] = std::move(gap);

  // --- Part B: adaptive recovery under injected mis-profiles ---------------
  std::printf("\nAdaptive recovery of injected mis-profile regression "
              "(magnitude %.0f)\n", magnitude);
  std::printf("%-10s %10s %12s %10s %7s %9s %9s\n", "WF", "Clean",
              "Misprofiled", "Adaptive", "Reopts", "Regress", "Recovery");
  Json recovery_rows = Json::Array();
  int recovered_count = 0;
  const std::vector<std::string> abbrs = AllWorkloadAbbrs();
  for (const std::string& abbr : abbrs) {
    auto pw = Prepare(abbr, rows);
    STUBBY_CHECK_OK(pw.status());

    // Clean: optimize and execute with accurate profiles.
    StubbyOptions opts;
    opts.pool = &pool;
    auto clean_report = StubbyOptimizer(opts).Optimize(pw->workload.plan);
    STUBBY_CHECK_OK(clean_report.status());
    auto clean_sec = Execute(*pw, clean_report->plan, &pool);
    STUBBY_CHECK_OK(clean_sec.status());

    // Mis-profiled: skew every profile-derived statistic, optimize from
    // the lie, execute the resulting plan as-is.
    Plan perturbed = pw->workload.plan;
    PerturbOptions perturb;
    perturb.seed = 5;
    perturb.magnitude = magnitude;
    STUBBY_CHECK_OK(PerturbProfiles(&perturbed, perturb));
    auto mis_report = StubbyOptimizer(opts).Optimize(perturbed);
    STUBBY_CHECK_OK(mis_report.status());
    auto mis_sec = Execute(*pw, mis_report->plan, &pool);
    STUBBY_CHECK_OK(mis_sec.status());

    // Adaptive: the same mis-optimized plan, but the runner checks
    // observed dataflow against the (wrong) predictions and re-optimizes
    // the unexecuted suffix when they diverge.
    StubbyOptions adaptive_opts = opts;
    adaptive_opts.reoptimize = true;
    AdaptiveRunner runner(pw->options.cluster, &pool, adaptive_opts);
    Dfs adaptive_dfs = pw->workload.dfs;
    auto adaptive_run = runner.Run(mis_report->plan, &adaptive_dfs);
    STUBBY_CHECK_OK(adaptive_run.status());
    const double adaptive_sec = adaptive_run->dataflow.makespan_sec;

    const double regression = *mis_sec - *clean_sec;
    // No regression => the mis-profile did not hurt this workload; nothing
    // to recover, counts as recovered. Otherwise the recovered fraction of
    // the regression must clear the bar.
    const bool has_regression = regression > 1e-9 * *clean_sec;
    const double recovery =
        has_regression ? (*mis_sec - adaptive_sec) / regression : 1.0;
    const bool recovered = !has_regression || recovery >= min_recovery;
    recovered_count += recovered ? 1 : 0;

    std::printf("%-10s %9.1fs %11.1fs %9.1fs %7zu %8.1f%% %8.1f%%%s\n",
                abbr.c_str(), *clean_sec, *mis_sec, adaptive_sec,
                static_cast<size_t>(adaptive_run->stats.reoptimizations),
                100.0 * regression / *clean_sec, 100.0 * recovery,
                recovered ? "" : "  [MISS]");

    Json row = Json::Object();
    row["workload"] = abbr;
    row["clean_sec"] = *clean_sec;
    row["misprofiled_sec"] = *mis_sec;
    row["adaptive_sec"] = adaptive_sec;
    row["regression_pct"] = 100.0 * regression / *clean_sec;
    row["recovery"] = recovery;
    row["recovered"] = recovered;
    row["reoptimizations"] = adaptive_run->stats.reoptimizations;
    row["checks"] = adaptive_run->stats.checks;
    row["max_rel_error"] = adaptive_run->stats.max_rel_error;
    recovery_rows.Append(std::move(row));
  }

  const bool pass = recovered_count >= min_pass;
  std::printf("\nrecovered >= %.0f%% of the regression on %d of %zu "
              "workloads (gate: %d) -> %s\n", 100.0 * min_recovery,
              recovered_count, abbrs.size(), min_pass,
              pass ? "PASS" : "FAIL");

  Json recovery = Json::Object();
  recovery["min_recovery"] = min_recovery;
  recovery["min_pass"] = static_cast<uint64_t>(min_pass);
  recovery["recovered_count"] = static_cast<uint64_t>(recovered_count);
  recovery["pass"] = pass;
  recovery["workloads"] = std::move(recovery_rows);
  doc["recovery"] = std::move(recovery);

  WriteBenchJson("BENCH_OPTGAP.json", doc);
  return pass ? 0 : 1;
}
