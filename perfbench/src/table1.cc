// table1-loop and table1-exec: the eight Table 1 workflows of the paper.
//
// table1-loop: one operation is one workflow's full user loop on a fresh
// copy of its plan and data — Profiler::ProfilePlan, StubbyOptimizer::
// Optimize, WorkflowRunner::Run — checked against the unoptimized plan's
// outputs outside the timed region. The profiler, optimizer and cost layers
// do nearly all the work.
//
// table1-exec: setup profiles and optimizes the workflows once at larger
// inputs; one operation is WorkflowRunner::Run of one Stubby-optimized plan
// on a fresh copy of its data. Only the executor, dfs and mr layers work.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "baselines/pig_baseline.h"
#include "cost/cost_cache.h"
#include "cost/whatif.h"
#include "exec/job_runner.h"
#include "exec/workflow_runner.h"
#include "optimizer/stubby.h"
#include "optimizer/transform.h"
#include "profiler/profiler.h"
#include "workloads.h"
#include "workloads/registry.h"

namespace perfbench {

using stubby::Dfs;
using stubby::OptimizeReport;
using stubby::Plan;
using stubby::Result;
using stubby::Row;
using stubby::Status;
using stubby::ThreadPool;
using stubby::Workload;
using stubby::WorkloadOptions;
using stubby::WorkflowDataflow;
using stubby::WorkflowRunner;

void ReportCosting(const stubby::CostInstrumentation& c, double optimize_s,
                   Results* out) {
  const auto ratio = [](double hits, double misses) {
    return hits + misses > 0 ? hits / (hits + misses) : 0.0;
  };
  out->SetExact("cost.rrs_evaluations", c.rrs_evaluations);
  out->SetExact("cost.whatif_invocations", c.whatif_invocations);
  out->SetExact("cost.job_predictions", c.job_predictions);
  out->SetExact("cost.full_predictions", c.full_predictions);
  out->SetExact("cost.plan_cache_hits", c.plan_cache_hits);
  out->SetExact("cost.plan_cache_misses", c.plan_cache_misses);
  out->SetExact("cost.job_cache_hits", c.job_cache_hits);
  out->SetExact("cost.plan_cache_hit_ratio",
                ratio(c.plan_cache_hits, c.plan_cache_misses), "ratio");
  out->SetExact("cost.job_cache_hit_ratio",
                ratio(c.job_cache_hits, c.job_predictions), "ratio");
  out->Set("cost.us_per_rrs_evaluation",
           c.rrs_evaluations > 0 ? 1e6 * optimize_s / c.rrs_evaluations : 0.0,
           "us");
}

void DataflowTotals::Add(const WorkflowDataflow& flow) {
  for (const stubby::JobDataflow& j : flow.jobs) {
    map_input_records += static_cast<double>(j.map_input_records);
    shuffle_bytes += static_cast<double>(j.reduce_input_bytes);
    output_bytes += static_cast<double>(j.output_bytes);
    map_tasks += j.num_map_tasks;
    reduce_tasks += j.num_reduce_tasks;
  }
}

void DataflowTotals::Report(Results* out) const {
  out->SetExact("exec.map_input_records", map_input_records);
  out->SetExact("exec.shuffle_bytes", shuffle_bytes, "bytes");
  out->SetExact("exec.output_bytes", output_bytes, "bytes");
  out->SetExact("exec.map_tasks", map_tasks);
  out->SetExact("exec.reduce_tasks", reduce_tasks);
}

namespace {

/// table1-exec runs the workflows at this multiple of the default rows.
constexpr int kExecRowsFactor = 2;
/// Sample rows of every workflow in the shortened (self-check) setting.
constexpr int kShortenedRows = 2000;
/// Setups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// Repeated uncached WhatIfEngine::Cost calls per plan (traced runs).
constexpr int kWhatIfCalls = 200;
/// Per-job JobRunner passes over the eight plans (traced runs).
constexpr int kJobPasses = 3;

using Outputs = std::map<std::string, std::vector<Row>>;

/// Rows of every workflow output of `original`, read from `dfs`. False
/// when an output is missing.
bool ReadOutputs(const Plan& original, const Dfs& dfs, Outputs* out) {
  for (const auto& [id, ds] : original.datasets()) {
    if (!ds.is_workflow_output) continue;
    auto got = dfs.Get(id);
    if (!got.ok()) return false;
    (*out)[id] = (*got)->AllRows();
  }
  return true;
}

/// The oracle check: every workflow output equals the unoptimized plan's,
/// numeric fields within 1e-6 relative (double aggregation order differs
/// between equivalent plans).
bool MatchesOracle(const Plan& original, const Dfs& dfs,
                   const Outputs& oracle) {
  Outputs got;
  if (!ReadOutputs(original, dfs, &got) || got.size() != oracle.size()) {
    return false;
  }
  for (const auto& [id, rows] : oracle) {
    if (!stubby::RowsApproxEqual(rows, got[id], 1e-6)) return false;
  }
  return true;
}

/// Everything deterministic about one workflow's optimize + execute: the
/// chosen plan, its estimated cost, the optimizer counters and the observed
/// dataflow. Identical on every pass and at any thread count.
std::string Fingerprint(const OptimizeReport& report,
                        const WorkflowDataflow& flow) {
  char cost[64];
  std::snprintf(cost, sizeof(cost), "%a/%d/%d/", report.estimated_cost,
                report.units_processed, report.subplans_enumerated);
  return stubby::PlanSignature(report.plan) + "|" + cost +
         report.costing.ToString() + "|" + flow.ToString();
}

/// One workflow after setup.
struct Entry {
  std::string abbr;
  Workload workload;   ///< unprofiled plan and base data
  Plan profiled;       ///< plan annotated by the setup's profile
  Outputs oracle;      ///< outputs of the unoptimized plan
  double pig_makespan = 0;
  double profile_s = 0;   ///< the setup's ProfilePlan wall time
  OptimizeReport report;  ///< table1-exec: the Stubby plan it executes
};

/// Per-workflow measurements across the run.
struct WfStats {
  OptimizeReport report;  ///< deterministic, from the first operation
  WorkflowDataflow flow;  ///< deterministic, from the first operation
  std::string fingerprint;
  std::vector<double> profile_s, optimize_s, run_s, op_s;
  std::vector<double> vertical_s, horizontal_s;

  void AddPhases(const OptimizeReport& r) {
    double v = 0, h = 0;
    for (const stubby::PhaseReport& p : r.phases) {
      if (p.name == "vertical") v += p.wall_sec;
      if (p.name == "horizontal") h += p.wall_sec;
    }
    vertical_s.push_back(v);
    horizontal_s.push_back(h);
  }
};

/// Generates one workflow and records its oracle; table1-exec (`optimize`)
/// also profiles it and makes the Stubby plan its operations execute.
Result<Entry> SetUpEntry(const std::string& abbr, int rows, uint64_t seed,
                         ThreadPool* pool, bool optimize) {
  WorkloadOptions options;
  options.sample_rows = rows;
  options.seed = seed;
  Entry e;
  e.abbr = abbr;
  const std::string request = "setup/" + abbr;
  STUBBY_ASSIGN_OR_RETURN(e.workload, stubby::MakeWorkload(abbr, options));
  {
    Dfs dfs = e.workload.dfs;
    Span span("exec.WorkflowRunner.Run", request);
    STUBBY_RETURN_NOT_OK(
        WorkflowRunner(options.cluster, pool).Run(e.workload.plan, &dfs)
            .status());
    span.Stop();
    if (!ReadOutputs(e.workload.plan, dfs, &e.oracle)) {
      return Status::Internal("oracle run of " + abbr + " lost an output");
    }
  }
  if (optimize) {
    e.profiled = e.workload.plan;
    Dfs profiling_dfs = e.workload.dfs;
    Span profile("profiler.ProfilePlan", request);
    STUBBY_RETURN_NOT_OK(stubby::Profiler(options.cluster)
                             .ProfilePlan(&e.profiled, &profiling_dfs));
    e.profile_s = profile.Stop();
    stubby::StubbyOptions opts;
    opts.pool = pool;
    Span span("optimizer.Optimize", request);
    STUBBY_ASSIGN_OR_RETURN(e.report,
                            stubby::StubbyOptimizer(opts).Optimize(e.profiled));
  }
  return e;
}

/// The Pig baseline's simulated makespan (rule-based packing and rules of
/// thumb on the profiled plan), the denominator of speedup_geomean. Run once,
/// after the timed passes: it is reporting, not part of any operation.
Status RecordPigBaseline(Entry* e, ThreadPool* pool) {
  STUBBY_ASSIGN_OR_RETURN(Plan pig, stubby::PigBaseline(e->profiled));
  Dfs dfs = e->workload.dfs;
  Span span("exec.WorkflowRunner.Run", "pig/" + e->abbr);
  STUBBY_ASSIGN_OR_RETURN(WorkflowDataflow flow,
                          WorkflowRunner(pig.cluster(), pool).Run(pig, &dfs));
  e->pig_makespan = flow.makespan_sec;
  return Status::OK();
}

/// Runs the whole setup kSetupRepeats times (once when shortened) and keeps
/// the last; sets setup_s to the median setup time. Optimizer timings of
/// every repeat land in `stats` (table1-exec reports them).
bool SetUp(const RunConfig& cfg, int rows, ThreadPool* pool, bool optimize,
           std::vector<Entry>* entries, std::vector<WfStats>* stats,
           Results* out) {
  const std::vector<std::string> abbrs = stubby::AllWorkloadAbbrs();
  stats->assign(abbrs.size(), WfStats{});
  std::vector<double> setup_s;
  const int repeats = cfg.shortened ? 1 : kSetupRepeats;
  for (int rep = 0; rep < repeats; ++rep) {
    entries->clear();
    const Clock::time_point t0 = Clock::now();
    for (size_t w = 0; w < abbrs.size(); ++w) {
      Result<Entry> e = SetUpEntry(abbrs[w], rows, cfg.seed, pool, optimize);
      if (!e.ok()) {
        out->Fail("setup of " + abbrs[w] + ": " + e.status().ToString());
        return false;
      }
      if (optimize) {
        (*stats)[w].profile_s.push_back(e->profile_s);
        (*stats)[w].optimize_s.push_back(e->report.optimization_time_sec);
        (*stats)[w].AddPhases(e->report);
      }
      entries->push_back(std::move(*e));
    }
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
  }
  out->Set("setup_s", Median(setup_s), "s");
  std::printf("setup: %d x %.3fs (median) at %d sample rows\n", repeats,
              Median(setup_s), rows);
  return true;
}

/// Median over passes of the eight workflows' summed times.
double MedianPassSum(const std::vector<WfStats>& stats,
                     std::vector<double> WfStats::*series) {
  size_t passes = stats.empty() ? 0 : (stats[0].*series).size();
  for (const WfStats& s : stats) passes = std::min(passes, (s.*series).size());
  std::vector<double> sums(passes, 0.0);
  for (const WfStats& s : stats) {
    for (size_t p = 0; p < passes; ++p) sums[p] += (s.*series)[p];
  }
  return Median(sums);
}

/// Metrics both Table 1 workloads derive the same way from the plans they
/// optimized and executed.
void ReportPlans(const RunConfig& cfg, const std::vector<Entry>& entries,
                 const std::vector<WfStats>& stats,
                 const std::vector<PassTiming>& passes,
                 const ThreadPool::Stats& pool_stats, int threads,
                 Results* out) {
  ReportThroughput(cfg, passes, out);
  std::vector<double> op_s;  // per workflow, its median operation time
  std::vector<double> speedups;
  double rel_error = 0;
  stubby::CostInstrumentation costing;
  double units = 0, subplans = 0;
  DataflowTotals dataflow;
  for (size_t w = 0; w < entries.size(); ++w) {
    const WfStats& s = stats[w];
    const std::string& abbr = entries[w].abbr;
    op_s.push_back(Median(s.op_s));
    speedups.push_back(entries[w].pig_makespan / s.flow.makespan_sec);
    rel_error += std::fabs(s.report.estimated_cost - s.flow.makespan_sec) /
                 s.flow.makespan_sec;
    costing.Add(s.report.costing);
    units += s.report.units_processed;
    subplans += s.report.subplans_enumerated;
    dataflow.Add(s.flow);
    out->Set("optimizer.optimize_s." + abbr, Median(s.optimize_s), "s");
    out->Set("exec.run_s." + abbr, Median(s.run_s), "s");
    std::printf("  %-3s speedup %6.3fx  estimated %9.1fs  simulated %9.1fs  "
                "profile %7.3fs  optimize %7.3fs  run %7.3fs\n",
                abbr.c_str(), speedups.back(), s.report.estimated_cost,
                s.flow.makespan_sec, Median(s.profile_s), Median(s.optimize_s),
                Median(s.run_s));
  }
  const double optimize_s = MedianPassSum(stats, &WfStats::optimize_s);
  out->SetExact("speedup_geomean", Geomean(speedups), "x");
  out->Set("request_p50_ms", 1e3 * Percentile(op_s, 0.50), "ms");
  out->Set("request_p99_ms", 1e3 * Percentile(op_s, 0.99), "ms");
  out->Set("optimize_s", optimize_s, "s");

  out->Set("profiler.profile_s", MedianPassSum(stats, &WfStats::profile_s),
           "s");
  out->SetExact("optimizer.units_processed", units);
  out->SetExact("optimizer.subplans_enumerated", subplans);
  out->Set("optimizer.phase_s.vertical",
           MedianPassSum(stats, &WfStats::vertical_s), "s");
  out->Set("optimizer.phase_s.horizontal",
           MedianPassSum(stats, &WfStats::horizontal_s), "s");
  ReportCosting(costing, optimize_s, out);
  out->SetExact("cost.makespan_rel_error",
                rel_error / static_cast<double>(entries.size()), "ratio");

  const double run_s = MedianPassSum(stats, &WfStats::run_s);
  out->Set("exec.run_s", run_s, "s");
  dataflow.Report(out);
  out->Set("exec.map_input_records_per_s",
           run_s > 0 ? dataflow.map_input_records / run_s : 0.0, "1/s");
  double timed_s = 0;
  for (const PassTiming& p : passes) timed_s += p.seconds;
  out->Set("exec.pool_busy_frac",
           timed_s > 0 ? 1e-6 * static_cast<double>(pool_stats.busy_usec) /
                             (timed_s * threads)
                       : 0.0,
           "ratio");
  out->Set("exec.pool_steals",
           static_cast<double>(pool_stats.steals) /
               static_cast<double>(std::max<size_t>(1, passes.size())),
           "count");
}

/// Traced runs only: uncached what-if pricing of each optimized plan, and
/// per-job JobRunner execution of each plan (exec.job_s).
void ReportLayerProbes(const std::vector<Entry>& entries,
                       const std::vector<WfStats>& stats, ThreadPool* pool,
                       Results* out) {
  GlobalTracer().set_recording(true);
  std::vector<double> per_call_us;
  for (size_t w = 0; w < entries.size(); ++w) {
    const Plan& plan = stats[w].report.plan;
    const stubby::WhatIfEngine engine(plan.cluster());
    double seconds = 0;
    for (int i = 0; i < kWhatIfCalls; ++i) {
      Span span("cost.WhatIfEngine.Cost", "whatif/" + entries[w].abbr);
      const stubby::CostEstimate estimate = engine.Cost(plan);
      seconds += span.Stop();
      if (estimate.cost != stats[w].report.estimated_cost) {
        out->Fail("uncached what-if cost of " + entries[w].abbr +
                  " differs from the optimizer's estimate");
      }
    }
    per_call_us.push_back(1e6 * seconds / kWhatIfCalls);
  }
  out->Set("cost.whatif_cost_us", Sum(per_call_us) / per_call_us.size(),
           "us");

  // Each plan runs whole and then job by job, back to back, so the
  // difference (validation and cluster scheduling) is taken under the same
  // conditions.
  std::vector<double> job_s, overhead_s;
  for (int pass = 0; pass < kJobPasses; ++pass) {
    double run_total = 0, job_total = 0;
    for (size_t w = 0; w < entries.size(); ++w) {
      const std::string& abbr = entries[w].abbr;
      const Plan& plan = stats[w].report.plan;
      Dfs run_dfs = entries[w].workload.dfs;
      Span run("exec.WorkflowRunner.Run", "jobs/" + abbr);
      const Status ran =
          WorkflowRunner(plan.cluster(), pool).Run(plan, &run_dfs).status();
      run_total += run.Stop();
      auto order = plan.TopologicalOrder();
      if (!ran.ok() || !order.ok()) {
        out->Fail("per-job probe of " + abbr + " could not run the plan");
        return;
      }
      const stubby::JobRunner runner(plan.cluster(), pool);
      Dfs dfs = entries[w].workload.dfs;
      for (const std::string& jid : *order) {
        Span span("exec.JobRunner.Run", "jobs/" + abbr + "/" + jid);
        const Status st = runner.Run(plan, plan.jobs().at(jid), &dfs).status();
        job_total += span.Stop();
        if (!st.ok()) out->Fail("JobRunner " + jid + ": " + st.ToString());
      }
      if (!MatchesOracle(entries[w].workload.plan, dfs, entries[w].oracle)) {
        out->Fail("per-job execution of " + abbr +
                  " does not match the oracle");
      }
    }
    job_s.push_back(job_total);
    overhead_s.push_back(run_total - job_total);
  }
  GlobalTracer().set_recording(false);
  out->Set("exec.job_s", Median(job_s), "s");
  out->Set("exec.validate_schedule_s", Median(overhead_s), "s");
}

/// After the timed passes: false when any operation failed; otherwise
/// records every workflow's Pig baseline.
bool FinishPasses(std::vector<Entry>& entries, ThreadPool* pool,
                  Results* out) {
  if (out->failed > 0) return false;
  for (Entry& e : entries) {
    const Status st = RecordPigBaseline(&e, pool);
    if (!st.ok()) {
      out->Fail("Pig baseline of " + e.abbr + ": " + st.ToString());
      return false;
    }
  }
  return true;
}

/// Records one operation's deterministic result against the first one.
bool CheckDeterministic(const std::string& abbr, WfStats* s,
                        const OptimizeReport& report,
                        const WorkflowDataflow& flow, Results* out) {
  std::string print = Fingerprint(report, flow);
  if (s->fingerprint.empty()) {
    s->fingerprint = std::move(print);
    s->report = report;
    s->flow = flow;
    return true;
  }
  if (print == s->fingerprint) return true;
  out->Fail(abbr + ": plan, counters or dataflow differ between passes");
  return false;
}

}  // namespace

void RunTable1Loop(const RunConfig& cfg, ThreadPool* pool, Results* out) {
  const int rows =
      cfg.shortened ? kShortenedRows : WorkloadOptions{}.sample_rows;
  std::vector<Entry> entries;
  std::vector<WfStats> stats;
  if (!SetUp(cfg, rows, pool, /*optimize=*/false, &entries, &stats, out)) {
    return;
  }

  stubby::StubbyOptions opts;
  opts.pool = pool;
  const stubby::StubbyOptimizer optimizer(opts);
  std::vector<PassTiming> passes;
  pool->ResetStats();
  const Clock::time_point start = Clock::now();
  while (NeedAnotherPass(cfg, passes, start)) {
    PassTiming pass;
    pass.traced = PassIsTraced(cfg, passes.size());
    GlobalTracer().set_recording(pass.traced);
    for (size_t w = 0; w < entries.size(); ++w) {
      Entry& e = entries[w];
      WfStats& s = stats[w];
      const std::string request =
          "pass" + std::to_string(passes.size()) + "/" + e.abbr;
      Span op("op.table1-loop", request);
      Plan plan = e.workload.plan;
      Dfs profiling_dfs = e.workload.dfs;
      Span profile("profiler.ProfilePlan", request);
      Status st = stubby::Profiler(plan.cluster())
                      .ProfilePlan(&plan, &profiling_dfs);
      s.profile_s.push_back(profile.Stop());
      if (e.profiled.num_jobs() == 0) e.profiled = plan;
      Result<OptimizeReport> report = Status::Internal("not optimized");
      if (st.ok()) {
        Span optimize("optimizer.Optimize", request);
        report = optimizer.Optimize(plan);
        s.optimize_s.push_back(optimize.Stop());
        st = report.status();
      }
      Dfs dfs = e.workload.dfs;
      Result<WorkflowDataflow> flow = Status::Internal("not executed");
      if (st.ok()) {
        s.AddPhases(*report);
        Span run("exec.WorkflowRunner.Run", request);
        flow = WorkflowRunner(plan.cluster(), pool).Run(report->plan, &dfs);
        s.run_s.push_back(run.Stop());
        st = flow.status();
      }
      s.op_s.push_back(op.Stop());
      pass.seconds += s.op_s.back();
      ++pass.ops;
      bool ok = st.ok() && MatchesOracle(e.workload.plan, dfs, e.oracle);
      if (!st.ok()) out->Fail(e.abbr + ": " + st.ToString());
      else if (!ok) out->Fail(e.abbr + ": outputs differ from the oracle");
      if (st.ok()) ok = CheckDeterministic(e.abbr, &s, *report, *flow, out) && ok;
      out->Attempt(ok);
    }
    GlobalTracer().set_recording(false);
    passes.push_back(pass);
  }
  const ThreadPool::Stats pool_stats = pool->stats();
  if (!FinishPasses(entries, pool, out)) return;
  std::printf("table1-loop: %zu passes over %zu workflows\n", passes.size(),
              entries.size());
  ReportPlans(cfg, entries, stats, passes, pool_stats, pool->threads(), out);
  if (cfg.trace) ReportLayerProbes(entries, stats, pool, out);
}

void RunTable1Exec(const RunConfig& cfg, ThreadPool* pool, Results* out) {
  const int rows = cfg.shortened
                       ? kShortenedRows
                       : kExecRowsFactor * WorkloadOptions{}.sample_rows;
  std::vector<Entry> entries;
  std::vector<WfStats> stats;
  if (!SetUp(cfg, rows, pool, /*optimize=*/true, &entries, &stats, out)) {
    return;
  }

  std::vector<PassTiming> passes;
  pool->ResetStats();
  const Clock::time_point start = Clock::now();
  while (NeedAnotherPass(cfg, passes, start)) {
    PassTiming pass;
    pass.traced = PassIsTraced(cfg, passes.size());
    GlobalTracer().set_recording(pass.traced);
    for (size_t w = 0; w < entries.size(); ++w) {
      const Entry& e = entries[w];
      WfStats& s = stats[w];
      const std::string request =
          "pass" + std::to_string(passes.size()) + "/" + e.abbr;
      Span op("op.table1-exec", request);
      Dfs dfs = e.workload.dfs;
      Span run("exec.WorkflowRunner.Run", request);
      Result<WorkflowDataflow> flow =
          WorkflowRunner(e.report.plan.cluster(), pool)
              .Run(e.report.plan, &dfs);
      s.run_s.push_back(run.Stop());
      s.op_s.push_back(op.Stop());
      pass.seconds += s.op_s.back();
      ++pass.ops;
      bool ok = flow.ok() && MatchesOracle(e.workload.plan, dfs, e.oracle);
      if (!flow.ok()) {
        out->Fail(e.abbr + ": " + flow.status().ToString());
      } else {
        if (!ok) out->Fail(e.abbr + ": outputs differ from the oracle");
        ok = CheckDeterministic(e.abbr, &s, e.report, *flow, out) && ok;
      }
      out->Attempt(ok);
    }
    GlobalTracer().set_recording(false);
    passes.push_back(pass);
  }
  const ThreadPool::Stats pool_stats = pool->stats();
  if (!FinishPasses(entries, pool, out)) return;
  std::printf("table1-exec: %zu passes over %zu workflows at %d rows\n",
              passes.size(), entries.size(), rows);
  ReportPlans(cfg, entries, stats, passes, pool_stats, pool->threads(), out);
  if (cfg.trace) ReportLayerProbes(entries, stats, pool, out);
}

}  // namespace perfbench
