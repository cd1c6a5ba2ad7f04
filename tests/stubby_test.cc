// End-to-end tests of the Stubby optimizer, parameterized over all eight
// evaluation workflows: the optimized plan must validate, produce the same
// results as the original, and not cost more. Plus ablation switches and
// the information spectrum.

#include <gtest/gtest.h>

#include "baselines/pig_baseline.h"
#include "common/threading.h"
#include "exec/workflow_runner.h"
#include "optimizer/stubby.h"
#include "profiler/profiler.h"
#include "reuse/result_store.h"
#include "reuse/session.h"
#include "test_workflows.h"
#include "workloads/registry.h"

namespace stubby {
namespace {

class StubbyOnWorkload : public ::testing::TestWithParam<std::string> {
 protected:
  // Small samples keep the full 8-workflow sweep fast.
  static constexpr int kRows = 6000;

  Result<Workload> MakeProfiled() {
    WorkloadOptions options;
    options.sample_rows = kRows;
    STUBBY_ASSIGN_OR_RETURN(Workload w, MakeWorkload(GetParam(), options));
    Profiler profiler(options.cluster);
    Dfs dfs = w.dfs;
    STUBBY_RETURN_NOT_OK(profiler.ProfilePlan(&w.plan, &dfs));
    return w;
  }

  static std::vector<Row> OutputRows(const Plan& plan, const Dfs& dfs,
                                     const std::string& id) {
    auto ds = dfs.Get(id);
    return ds.ok() ? (*ds)->AllRows() : std::vector<Row>{};
  }
};

TEST_P(StubbyOnWorkload, OptimizedPlanIsEquivalentAndNoWorse) {
  auto w = MakeProfiled();
  ASSERT_TRUE(w.ok()) << w.status();

  StubbyOptimizer optimizer;
  auto report = optimizer.Optimize(w->plan);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->plan.Validate().ok());
  EXPECT_FALSE(report->fallback);

  WorkflowRunner runner(w->plan.cluster());
  Dfs original_dfs = w->dfs;
  auto original = runner.Run(w->plan, &original_dfs);
  ASSERT_TRUE(original.ok()) << original.status();
  Dfs optimized_dfs = w->dfs;
  auto optimized = runner.Run(report->plan, &optimized_dfs);
  ASSERT_TRUE(optimized.ok()) << optimized.status();

  // Equivalence on every terminal output.
  for (const auto& [id, ds] : w->plan.datasets()) {
    if (!ds.is_workflow_output) continue;
    EXPECT_TRUE(RowsApproxEqual(OutputRows(w->plan, original_dfs, id),
                                OutputRows(report->plan, optimized_dfs, id),
                                1e-6))
        << GetParam() << " output " << id;
  }
  // Simulated performance must not regress (it should usually improve).
  EXPECT_LE(optimized->makespan_sec, original->makespan_sec * 1.05)
      << GetParam();
}

TEST_P(StubbyOnWorkload, BeatsOrMatchesTheBaseline) {
  auto w = MakeProfiled();
  ASSERT_TRUE(w.ok()) << w.status();
  auto baseline = PigBaseline(w->plan);
  ASSERT_TRUE(baseline.ok());
  StubbyOptimizer optimizer;
  auto report = optimizer.Optimize(w->plan);
  ASSERT_TRUE(report.ok());

  WorkflowRunner runner(w->plan.cluster());
  Dfs bdfs = w->dfs, sdfs = w->dfs;
  auto tb = runner.Run(*baseline, &bdfs);
  auto ts = runner.Run(report->plan, &sdfs);
  ASSERT_TRUE(tb.ok() && ts.ok());
  EXPECT_LE(ts->makespan_sec, tb->makespan_sec * 1.02) << GetParam();
}

TEST_P(StubbyOnWorkload, OptimizationIsDeterministic) {
  auto w = MakeProfiled();
  ASSERT_TRUE(w.ok()) << w.status();
  StubbyOptimizer optimizer;
  auto r1 = optimizer.Optimize(w->plan);
  auto r2 = optimizer.Optimize(w->plan);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(PlanSignature(r1->plan), PlanSignature(r2->plan));
  EXPECT_DOUBLE_EQ(r1->estimated_cost, r2->estimated_cost);
}

INSTANTIATE_TEST_SUITE_P(AllWorkflows, StubbyOnWorkload,
                         ::testing::ValuesIn(AllWorkloadAbbrs()),
                         [](const auto& info) { return info.param; });

TEST(StubbyTest, SubspaceSwitchesRestrictTransformations) {
  auto f = ::stubby::testing::MakeChain();
  ASSERT_TRUE(f.ok());
  ::stubby::testing::ProfileInPlace(&*f);

  StubbyOptions no_packing;
  no_packing.enable_intra_vertical = false;
  no_packing.enable_inter_vertical = false;
  no_packing.enable_horizontal = false;
  no_packing.enable_partition_function = false;
  auto report = StubbyOptimizer(no_packing).Optimize(f->plan());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->plan.num_jobs(), 2u);  // structure untouched
  EXPECT_TRUE(report->applied.empty());
}

TEST(StubbyTest, MissingSchemaAnnotationsDisableVerticalPacking) {
  // Information spectrum: without schema annotations Stubby must not
  // consider intra-job vertical packing (Section 8's example), yet it can
  // still tune configurations.
  auto f = ::stubby::testing::MakeChain();
  ASSERT_TRUE(f.ok());
  ::stubby::testing::ProfileInPlace(&*f);
  Plan plan = f->plan();
  for (const auto& [jid, job] : f->plan().jobs()) {
    (*plan.GetMutableJob(jid))->branches[0].annotations.schema.reset();
  }
  auto report = StubbyOptimizer().Optimize(plan);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->plan.num_jobs(), 2u);
  for (const auto& line : report->applied) {
    EXPECT_EQ(line.find("intra-pack"), std::string::npos) << line;
  }
}

TEST(StubbyTest, FlippedPhaseOrderStillValidAndEquivalent) {
  auto f = ::stubby::testing::MakeSiblings();
  ASSERT_TRUE(f.ok());
  ::stubby::testing::ProfileInPlace(&*f);
  StubbyOptions flipped;
  flipped.flip_phase_order = true;
  auto report = StubbyOptimizer(flipped).Optimize(f->plan());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->plan.Validate().ok());
  ::stubby::testing::ExpectEquivalent(*f, f->plan(), report->plan);
}

// The task-parallel core's contract: thread count moves wall time only.
// Execute and optimize the BR workflow (the largest: 7 jobs, the Figure 1
// running example) at 1, 2, and all hardware threads, and require every
// observable — output rows, makespan, chosen plan, cost bits, applied
// trail, and the full costing-counter set — to be identical.
class ThreadCountInvariance : public ::testing::Test {
 protected:
  static std::vector<int> ThreadCounts() {
    // Oversubscription past the hardware width is deliberate: results may
    // not depend on the physical core count either.
    std::vector<int> counts = {1, 2, 4, 8};
    if (ThreadPool::HardwareThreads() > 8) {
      counts.push_back(ThreadPool::HardwareThreads());
    }
    return counts;
  }

  static Result<Workload> MakeProfiledBR() {
    WorkloadOptions options;
    options.sample_rows = 6000;
    STUBBY_ASSIGN_OR_RETURN(Workload w, MakeWorkload("BR", options));
    Profiler profiler(options.cluster);
    Dfs dfs = w.dfs;
    STUBBY_RETURN_NOT_OK(profiler.ProfilePlan(&w.plan, &dfs));
    return w;
  }

  /// Exact textual digest of every workflow output dataset, in dataset-id
  /// order then row order — any bit-level divergence shows up here.
  static std::string OutputDigest(const Plan& plan, const Dfs& dfs) {
    std::string digest;
    for (const auto& [id, ds] : plan.datasets()) {
      if (!ds.is_workflow_output) continue;
      digest += id + ":\n";
      auto data = dfs.Get(id);
      if (!data.ok()) continue;
      for (const Row& row : (*data)->AllRows()) {
        digest += row.ToString();
        digest += '\n';
      }
    }
    return digest;
  }

  static void ExpectSameCounters(const CostInstrumentation& a,
                                 const CostInstrumentation& b) {
    EXPECT_EQ(a.whatif_invocations, b.whatif_invocations);
    EXPECT_EQ(a.full_predictions, b.full_predictions);
    EXPECT_EQ(a.job_predictions, b.job_predictions);
    EXPECT_EQ(a.rrs_evaluations, b.rrs_evaluations);
    EXPECT_EQ(a.reuse_priced_candidates, b.reuse_priced_candidates);
  }
};

TEST_F(ThreadCountInvariance, ExecutionIsBitIdentical) {
  auto w = MakeProfiledBR();
  ASSERT_TRUE(w.ok()) << w.status();

  std::string ref_digest;
  double ref_makespan = 0.0;
  bool first = true;
  for (int threads : ThreadCounts()) {
    ThreadPool pool(threads);
    WorkflowRunner runner(w->plan.cluster(), &pool);
    Dfs dfs = w->dfs;
    auto flow = runner.Run(w->plan, &dfs);
    ASSERT_TRUE(flow.ok()) << flow.status();
    const std::string digest = OutputDigest(w->plan, dfs);
    ASSERT_FALSE(digest.empty());
    if (first) {
      ref_digest = digest;
      ref_makespan = flow->makespan_sec;
      first = false;
    } else {
      EXPECT_EQ(digest, ref_digest) << "threads=" << threads;
      EXPECT_EQ(flow->makespan_sec, ref_makespan) << "threads=" << threads;
    }
  }
}

TEST_F(ThreadCountInvariance, OptimizationIsBitIdentical) {
  auto w = MakeProfiledBR();
  ASSERT_TRUE(w.ok()) << w.status();

  std::optional<OptimizeReport> ref;
  for (int threads : ThreadCounts()) {
    ThreadPool pool(threads);
    StubbyOptions opts;
    opts.pool = &pool;
    auto report = StubbyOptimizer(opts).Optimize(w->plan);
    ASSERT_TRUE(report.ok()) << report.status();
    if (!ref) {
      ref = std::move(*report);
      continue;
    }
    EXPECT_EQ(PlanSignature(report->plan), PlanSignature(ref->plan))
        << "threads=" << threads;
    EXPECT_EQ(report->estimated_cost, ref->estimated_cost)
        << "threads=" << threads;
    EXPECT_EQ(report->applied, ref->applied) << "threads=" << threads;
    EXPECT_EQ(report->units_processed, ref->units_processed);
    EXPECT_EQ(report->subplans_enumerated, ref->subplans_enumerated);
    ExpectSameCounters(report->costing, ref->costing);
  }
}

TEST_F(ThreadCountInvariance, ReuseAwareSearchIsBitIdentical) {
  // The reuse-aware unit search (store probes + rewritten-candidate pricing
  // inside the parallel costing batch) must keep the whole determinism
  // contract: plans, cost bits, applied logs, costing counters, reuse
  // counters, and the store's post-run state are identical at every width.
  auto w = MakeProfiledBR();
  ASSERT_TRUE(w.ok()) << w.status();

  // Warm a store with one session run, then freeze its bytes: every width
  // starts from a byte-identical catalog.
  ResultStore warm;
  ReuseSession warmup(&warm);
  StubbyOptions warmup_opts;
  warmup_opts.reuse_whole_workflow = false;
  auto first = warmup.Run(w->plan, w->dfs, warmup_opts);
  ASSERT_TRUE(first.ok()) << first.status();
  const std::string warm_bytes = warm.Serialize();

  std::optional<OptimizeReport> ref;
  std::optional<std::string> ref_store;
  for (int threads : ThreadCounts()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto store = ResultStore::Deserialize(warm_bytes);
    ASSERT_TRUE(store.ok());
    ThreadPool pool(threads);
    StubbyOptions opts = warmup_opts;
    opts.reuse_store = &*store;
    opts.reuse_dfs = &w->dfs;
    opts.pool = &pool;
    auto report = StubbyOptimizer(opts).Optimize(w->plan);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_GT(report->reuse.search_probes, 0u) << report->reuse.ToString();
    if (!ref) {
      ref = std::move(*report);
      ref_store = store->Serialize();
      continue;
    }
    EXPECT_EQ(PlanSignature(report->plan), PlanSignature(ref->plan));
    EXPECT_EQ(report->estimated_cost, ref->estimated_cost);
    EXPECT_EQ(report->applied, ref->applied);
    EXPECT_EQ(report->reuse.ToString(), ref->reuse.ToString());
    ExpectSameCounters(report->costing, ref->costing);
    EXPECT_EQ(store->Serialize(), *ref_store);
  }
}

TEST(StubbyTest, ReportsOverheadAndUnits) {
  auto f = ::stubby::testing::MakeChain();
  ASSERT_TRUE(f.ok());
  ::stubby::testing::ProfileInPlace(&*f);
  auto report = StubbyOptimizer().Optimize(f->plan());
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->units_processed, 0);
  EXPECT_GT(report->subplans_enumerated, 0);
  EXPECT_GT(report->optimization_time_sec, 0.0);
  EXPECT_GT(report->estimated_cost, 0.0);
}

}  // namespace
}  // namespace stubby
