// Adaptive suffix re-optimization (optimizer/reoptimize.h +
// exec/adaptive_runner.h): the no-op contract under accurate profiles, the
// suffix-only splice under injected mis-profiles (the executed prefix never
// re-runs), thread-count invariance of the whole adaptive loop, the
// profile-perturbation injector's determinism, and the stubbyd `reoptimize`
// knob (daemon trace == sequential session loop).

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/threading.h"
#include "exec/adaptive_runner.h"
#include "exec/workflow_runner.h"
#include "optimizer/reoptimize.h"
#include "optimizer/stubby.h"
#include "profiler/perturb.h"
#include "reuse/result_store.h"
#include "reuse/session.h"
#include "service/stubbyd.h"
#include "test_workflows.h"

namespace stubby {
namespace {

using ::stubby::testing::MakeChain;
using ::stubby::testing::ProfileInPlace;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The chain plan with every profile-derived statistic skewed by seeded
/// factors (magnitude 4: each statistic lands log-uniformly in [0.2, 5]).
/// The data itself is untouched, so execution — and the oracle — are
/// unchanged; only predictions lie.
Plan PerturbedChain(const WorkflowFactory& f, uint64_t seed = 3) {
  Plan plan = const_cast<WorkflowFactory&>(f).plan();
  PerturbOptions p;
  p.seed = seed;
  p.magnitude = 4.0;
  EXPECT_TRUE(PerturbProfiles(&plan, p).ok());
  return plan;
}

std::vector<Row> OutRows(const Dfs& dfs, const std::string& id = "OUT") {
  auto ds = dfs.Get(id);
  EXPECT_TRUE(ds.ok()) << ds.status();
  return ds.ok() ? (*ds)->AllRows() : std::vector<Row>{};
}

TEST(PerturbTest, DeterministicAndDataPreserving) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok()) << f.status();
  ProfileInPlace(&*f);

  // PlanSignature is structural and ignores annotations, so the injector's
  // effect is observed on the annotation values themselves.
  auto in_records = [](const Plan& p) {
    return p.datasets().at("IN").annotation.num_records.value_or(0);
  };
  Plan a = PerturbedChain(*f);
  Plan b = PerturbedChain(*f);
  EXPECT_EQ(in_records(a), in_records(b));  // pure function of (plan, opts)

  // The injector actually moved the input-size annotation...
  const uint64_t clean = in_records(f->plan());
  EXPECT_NE(clean, in_records(a));

  // ...a different seed moves it differently,
  Plan c = PerturbedChain(*f, /*seed=*/4);
  EXPECT_NE(in_records(a), in_records(c));

  // and magnitude 0 disables the injector entirely.
  Plan d = const_cast<WorkflowFactory&>(*f).plan();
  PerturbOptions off;
  off.magnitude = 0.0;
  ASSERT_TRUE(PerturbProfiles(&d, off).ok());
  EXPECT_EQ(in_records(d), clean);

  // Execution of the perturbed plan is bit-identical to the clean plan:
  // only annotations moved, never data or job semantics.
  Dfs clean_dfs = f->dfs();
  Dfs skew_dfs = f->dfs();
  WorkflowRunner runner(f->plan().cluster());
  ASSERT_TRUE(runner.Run(f->plan(), &clean_dfs).ok());
  ASSERT_TRUE(runner.Run(a, &skew_dfs).ok());
  EXPECT_TRUE(RowsBitIdentical(OutRows(clean_dfs), OutRows(skew_dfs)));
}

TEST(ReoptimizeFromEnvTest, ParsesStubbyReopt) {
  unsetenv("STUBBY_REOPT");
  EXPECT_FALSE(ReoptimizeFromEnv());
  EXPECT_TRUE(ReoptimizeFromEnv(/*fallback=*/true));
  setenv("STUBBY_REOPT", "0", 1);
  EXPECT_FALSE(ReoptimizeFromEnv(/*fallback=*/true));
  setenv("STUBBY_REOPT", "1", 1);
  EXPECT_TRUE(ReoptimizeFromEnv());
  unsetenv("STUBBY_REOPT");
}

TEST(BuildSuffixPlanTest, PromotesExecutedOutputsToObservedBaseInputs) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok()) << f.status();
  ProfileInPlace(&*f);

  // Execute the full chain once so MID exists physically.
  Dfs dfs = f->dfs();
  WorkflowRunner runner(f->plan().cluster());
  ASSERT_TRUE(runner.Run(f->plan(), &dfs).ok());

  auto suffix = BuildSuffixPlan(f->plan(), {"Jp"}, dfs);
  ASSERT_TRUE(suffix.ok()) << suffix.status();
  EXPECT_EQ(suffix->num_jobs(), 1u);
  EXPECT_TRUE(suffix->GetJob("Jc").ok());

  // MID became a base input annotated with the *observed* dataset, not
  // whatever the original (possibly wrong) profile claimed.
  const DatasetVertex& mid = suffix->datasets().at("MID");
  EXPECT_TRUE(mid.is_base_input);
  auto stored = dfs.Get("MID");
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(mid.annotation.num_records, (*stored)->logical_rows());
  EXPECT_EQ(mid.annotation.bytes, (*stored)->logical_bytes());

  // The suffix is a valid standalone plan, and re-optimizing it yields an
  // executable single-job plan costed from the corrected profiles.
  StubbyOptions opts;
  auto replan = ReoptimizeSuffix(*suffix, dfs, opts, nullptr);
  ASSERT_TRUE(replan.ok()) << replan.status();
  EXPECT_GE(replan->plan.num_jobs(), 1u);
  EXPECT_TRUE(replan->plan.Validate().ok());
}

TEST(AdaptiveRunnerTest, NoOpBelowThresholdBitIdenticalToWorkflowRunner) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok()) << f.status();
  ProfileInPlace(&*f);

  Dfs plain_dfs = f->dfs();
  WorkflowRunner plain(f->plan().cluster());
  auto plain_flow = plain.Run(f->plan(), &plain_dfs);
  ASSERT_TRUE(plain_flow.ok()) << plain_flow.status();

  StubbyOptions opts;
  opts.reoptimize = true;  // default threshold: accurate profiles stay under
  Dfs adaptive_dfs = f->dfs();
  AdaptiveRunner runner(f->plan().cluster(), nullptr, opts);
  auto run = runner.Run(f->plan(), &adaptive_dfs);
  ASSERT_TRUE(run.ok()) << run.status();

  EXPECT_EQ(run->stats.reoptimizations, 0u)
      << "accurate profiles fired a re-optimization (max_rel_error="
      << run->stats.max_rel_error << ")";
  EXPECT_GE(run->stats.checks, 1u);  // two jobs -> one mid-run check
  EXPECT_EQ(run->stats.jobs_executed, 2u);
  EXPECT_EQ(PlanSignature(run->final_plan), PlanSignature(f->plan()));

  // Exact no-op: same makespan bits, same per-job accounting, same output
  // bits as the plain runner.
  EXPECT_TRUE(SameBits(run->dataflow.makespan_sec, plain_flow->makespan_sec))
      << run->dataflow.makespan_sec << " vs " << plain_flow->makespan_sec;
  ASSERT_EQ(run->dataflow.jobs.size(), plain_flow->jobs.size());
  for (size_t i = 0; i < run->dataflow.jobs.size(); ++i) {
    EXPECT_EQ(run->dataflow.jobs[i].ToString(),
              plain_flow->jobs[i].ToString());
  }
  EXPECT_TRUE(RowsBitIdentical(OutRows(adaptive_dfs), OutRows(plain_dfs)));
}

TEST(AdaptiveRunnerTest, MisprofileTriggersSuffixOnlyReplan) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok()) << f.status();
  ProfileInPlace(&*f);
  Plan perturbed = PerturbedChain(*f);

  // Oracle: the clean plan as written.
  Dfs oracle_dfs = f->dfs();
  WorkflowRunner plain(f->plan().cluster());
  ASSERT_TRUE(plain.Run(f->plan(), &oracle_dfs).ok());

  StubbyOptions opts;
  opts.reoptimize = true;
  // Tight threshold: any surviving skew on Jp's observed map phases trips
  // the check (magnitude-4 factors land within 5% of 1 only by accident).
  opts.reoptimize_threshold = 0.05;
  Dfs dfs = f->dfs();
  AdaptiveRunner runner(perturbed.cluster(), nullptr, opts);
  auto run = runner.Run(perturbed, &dfs);
  ASSERT_TRUE(run.ok()) << run.status();

  // The check fired and a suffix was replanned...
  EXPECT_GE(run->stats.reoptimizations, 1u) << run->stats.ToString();
  EXPECT_GT(run->stats.max_rel_error, opts.reoptimize_threshold);
  EXPECT_GE(run->stats.suffix_jobs_replanned, 1u);

  // ...but the executed prefix never re-ran: every job id executed exactly
  // once, and the executed set covers the original workflow.
  std::set<std::string> seen;
  for (const std::string& jid : run->stats.executed_order) {
    EXPECT_TRUE(seen.insert(jid).second)
        << "job " << jid << " executed twice: " << run->stats.ToString();
  }
  EXPECT_EQ(run->stats.jobs_executed, run->stats.executed_order.size());
  EXPECT_EQ(run->stats.executed_order.front(), "Jp");

  // Outputs still match the oracle (the replanned suffix may aggregate in
  // a different order, so tolerance-aware).
  EXPECT_TRUE(RowsApproxEqual(OutRows(dfs), OutRows(oracle_dfs), 1e-6));
}

TEST(AdaptiveRunnerTest, ReduceOnlyMisprofileTriggersReplan) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok()) << f.status();
  ProfileInPlace(&*f);

  // Skew ONLY Jp's reduce-stage statistics. Map-side predictions stay
  // exact, so every map-phase error term reads ~0 — only the reduce-side
  // terms folded into MaxRelativeError (job output records/bytes, and
  // reduce input when the combiner is inactive) can trip the check. Before
  // those terms existed, this mis-profile sailed through unnoticed.
  Plan perturbed = const_cast<WorkflowFactory&>(*f).plan();
  auto jp = perturbed.GetMutableJob("Jp");
  ASSERT_TRUE(jp.ok()) << jp.status();
  Stage& reduce = (*jp)->branches[0].reduce_stages[0];
  ASSERT_TRUE(reduce.stats.has_value());
  reduce.stats->record_selectivity *= 4.0;
  reduce.stats->byte_selectivity *= 4.0;

  // Oracle: the clean plan as written (the skew never touches data).
  Dfs oracle_dfs = f->dfs();
  WorkflowRunner plain(f->plan().cluster());
  ASSERT_TRUE(plain.Run(f->plan(), &oracle_dfs).ok());

  StubbyOptions opts;
  opts.reoptimize = true;
  opts.reoptimize_threshold = 0.05;
  Dfs dfs = f->dfs();
  AdaptiveRunner runner(perturbed.cluster(), nullptr, opts);
  auto run = runner.Run(perturbed, &dfs);
  ASSERT_TRUE(run.ok()) << run.status();

  EXPECT_GE(run->stats.reoptimizations, 1u)
      << "reduce-side error terms failed to fire: "
      << run->stats.ToString();
  EXPECT_GT(run->stats.max_rel_error, opts.reoptimize_threshold);
  EXPECT_TRUE(RowsApproxEqual(OutRows(dfs), OutRows(oracle_dfs), 1e-6));
}

TEST(AdaptiveRunnerTest, ThreadCountInvariance) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok()) << f.status();
  ProfileInPlace(&*f);
  Plan perturbed = PerturbedChain(*f);

  StubbyOptions opts;
  opts.reoptimize = true;
  opts.reoptimize_threshold = 0.05;  // force the splice path on every run

  struct Snapshot {
    std::string stats;
    std::string final_plan;
    double makespan = 0.0;
    std::vector<Row> out;
  };
  std::map<int, Snapshot> by_threads;
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    Dfs dfs = f->dfs();
    AdaptiveRunner runner(perturbed.cluster(), &pool, opts);
    auto run = runner.Run(perturbed, &dfs);
    ASSERT_TRUE(run.ok()) << run.status();
    by_threads[threads] = {run->stats.ToString(),
                           PlanSignature(run->final_plan),
                           run->dataflow.makespan_sec, OutRows(dfs)};
  }
  const Snapshot& base = by_threads.at(1);
  EXPECT_NE(base.stats.find("reoptimizations=1"), std::string::npos)
      << base.stats;
  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const Snapshot& got = by_threads.at(threads);
    EXPECT_EQ(got.stats, base.stats);
    EXPECT_EQ(got.final_plan, base.final_plan);
    EXPECT_TRUE(SameBits(got.makespan, base.makespan))
        << got.makespan << " vs " << base.makespan;
    EXPECT_TRUE(RowsBitIdentical(got.out, base.out));
  }
}

TEST(ReoptSessionTest, ReoptOnIsBitIdenticalToOffWithAccurateProfiles) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok()) << f.status();
  ProfileInPlace(&*f);

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    ReuseSession session(nullptr);
    StubbyOptions off;
    auto r_off = session.Run(f->plan(), f->dfs(), off, &pool);
    ASSERT_TRUE(r_off.ok()) << r_off.status();
    StubbyOptions on = off;
    on.reoptimize = true;
    auto r_on = session.Run(f->plan(), f->dfs(), on, &pool);
    ASSERT_TRUE(r_on.ok()) << r_on.status();

    EXPECT_EQ(r_on->adaptive.reoptimizations, 0u);
    EXPECT_EQ(PlanSignature(r_on->report.plan),
              PlanSignature(r_off->report.plan));
    EXPECT_TRUE(SameBits(r_on->report.estimated_cost,
                         r_off->report.estimated_cost));
    EXPECT_TRUE(SameBits(r_on->simulated_cost, r_off->simulated_cost))
        << r_on->simulated_cost << " vs " << r_off->simulated_cost;
    ASSERT_EQ(r_on->outputs.size(), r_off->outputs.size());
    for (const auto& [id, rows] : r_off->outputs) {
      EXPECT_TRUE(RowsBitIdentical(rows, r_on->outputs.at(id))) << id;
    }
  }
}

TEST(ReoptServiceTest, DaemonKnobMatchesSequentialSessions) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok()) << f.status();
  ProfileInPlace(&*f);
  // Perturbed submissions: runs that splice mid-execution must still commit
  // through the wave-OCC protocol exactly like a sequential loop. The low
  // threshold matches the splice-forcing runner tests above.
  auto plan = std::make_shared<const Plan>(PerturbedChain(*f));
  auto dfs = std::make_shared<const Dfs>(f->dfs());

  StubbyOptions sub_opts;
  sub_opts.reoptimize_threshold = 0.05;

  // Sequential baseline: fresh store, re-opt forced on per session.
  ResultStore seq_store;
  ReuseSession seq_session(&seq_store);
  StubbyOptions seq_opts = sub_opts;
  seq_opts.reoptimize = true;
  std::vector<ReuseSessionResult> sequential;
  for (int i = 0; i < 3; ++i) {
    auto r = seq_session.Run(*plan, *dfs, seq_opts);
    ASSERT_TRUE(r.ok()) << r.status();
    sequential.push_back(std::move(*r));
  }
  // The first sequential run actually spliced; later runs are elided via
  // the whole-workflow hit, so they never execute (and never adapt).
  EXPECT_GE(sequential[0].adaptive.reoptimizations, 1u)
      << sequential[0].adaptive.ToString();

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ServiceOptions service_options;
    service_options.wave_size = 3;
    service_options.reoptimize = true;  // the daemon-side knob under test
    ThreadPool pool(threads);
    StubbyService service(service_options, &pool);
    for (int i = 0; i < 3; ++i) {
      Submission sub;
      sub.tenant = "t" + std::to_string(i);
      sub.name = "reopt";
      sub.plan = plan;
      sub.dfs = dfs;
      sub.options = sub_opts;  // reoptimize itself left off: the knob forces it
      ASSERT_TRUE(service.Submit(std::move(sub)).ok());
    }
    std::vector<RequestResult> results = service.Drain();
    ASSERT_EQ(results.size(), 3u);
    for (int i = 0; i < 3; ++i) {
      SCOPED_TRACE("request " + std::to_string(i));
      ASSERT_TRUE(results[i].status.ok()) << results[i].status;
      const ReuseSessionResult& got = results[i].session;
      const ReuseSessionResult& want = sequential[i];
      EXPECT_EQ(PlanSignature(got.report.plan),
                PlanSignature(want.report.plan));
      EXPECT_TRUE(SameBits(got.report.estimated_cost,
                           want.report.estimated_cost));
      EXPECT_EQ(got.reuse.ToString(), want.reuse.ToString());
      EXPECT_EQ(got.adaptive.ToString(), want.adaptive.ToString());
      ASSERT_EQ(got.outputs.size(), want.outputs.size());
      for (const auto& [id, rows] : want.outputs) {
        EXPECT_TRUE(RowsBitIdentical(rows, got.outputs.at(id))) << id;
      }
    }
    EXPECT_EQ(service.store().Serialize(), seq_store.Serialize());
  }
}

}  // namespace
}  // namespace stubby
