// Tests for the what-if engine's plan pricer (cost/whatif.h). The oracle:
// every configuration point the pricer prices must equal
// WhatIfEngine::Cost of a plan copy with the point's configurations
// applied — the same cost and fallback bits, the same predicted dataflow
// (every job field and every job finish time), and the same what-if and
// prediction-pass counts.

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <set>

#include "common/strings.h"
#include "cost/cost_cache.h"
#include "cost/whatif.h"
#include "optimizer/bloom.h"
#include "optimizer/configuration.h"
#include "optimizer/horizontal.h"
#include "optimizer/partition_fn.h"
#include "optimizer/rrs.h"
#include "optimizer/search.h"
#include "optimizer/stubby.h"
#include "optimizer/unit.h"
#include "optimizer/vertical.h"
#include "test_workflows.h"
#include "workflow/serialize.h"
#include "workloads/registry.h"

namespace stubby {
namespace {

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectSameJob(const JobDataflow& a, const JobDataflow& b) {
  SCOPED_TRACE("job " + a.job_id);
  EXPECT_EQ(a.job_id, b.job_id);
  EXPECT_EQ(a.num_map_tasks, b.num_map_tasks);
  EXPECT_EQ(a.num_reduce_tasks, b.num_reduce_tasks);
  EXPECT_EQ(a.map_input_records, b.map_input_records);
  EXPECT_EQ(a.map_input_bytes, b.map_input_bytes);
  EXPECT_EQ(a.map_input_stored_bytes, b.map_input_stored_bytes);
  EXPECT_EQ(Bits(a.map_cpu_units), Bits(b.map_cpu_units));
  EXPECT_EQ(a.map_output_records, b.map_output_records);
  EXPECT_EQ(a.map_output_bytes, b.map_output_bytes);
  EXPECT_EQ(a.combine_output_records, b.combine_output_records);
  EXPECT_EQ(a.combine_output_bytes, b.combine_output_bytes);
  EXPECT_EQ(Bits(a.combine_cpu_units), Bits(b.combine_cpu_units));
  EXPECT_EQ(a.reduce_input_records, b.reduce_input_records);
  EXPECT_EQ(a.reduce_input_bytes, b.reduce_input_bytes);
  EXPECT_EQ(Bits(a.reduce_cpu_units), Bits(b.reduce_cpu_units));
  EXPECT_EQ(a.output_records, b.output_records);
  EXPECT_EQ(a.output_bytes, b.output_bytes);
  EXPECT_EQ(a.output_compressed, b.output_compressed);
  EXPECT_EQ(a.tee_bytes, b.tee_bytes);
  EXPECT_EQ(a.bloom_build_records, b.bloom_build_records);
  EXPECT_EQ(a.bloom_build_bytes, b.bloom_build_bytes);
  EXPECT_EQ(Bits(a.bloom_build_cpu_units), Bits(b.bloom_build_cpu_units));
  EXPECT_EQ(a.bloom_filter_bytes, b.bloom_filter_bytes);
  EXPECT_EQ(a.max_map_task_input_bytes, b.max_map_task_input_bytes);
  EXPECT_EQ(a.max_reduce_input_bytes, b.max_reduce_input_bytes);
  EXPECT_EQ(a.nonempty_reduce_partitions, b.nonempty_reduce_partitions);
  EXPECT_EQ(a.pipelines_per_task, b.pipelines_per_task);
}

void ExpectSameEstimate(const CostEstimate& a, const CostEstimate& b) {
  EXPECT_EQ(Bits(a.cost), Bits(b.cost));
  EXPECT_EQ(a.fallback, b.fallback);
  EXPECT_EQ(Bits(a.dataflow.makespan_sec), Bits(b.dataflow.makespan_sec));
  ASSERT_EQ(a.dataflow.jobs.size(), b.dataflow.jobs.size());
  for (size_t i = 0; i < a.dataflow.jobs.size(); ++i) {
    ExpectSameJob(a.dataflow.jobs[i], b.dataflow.jobs[i]);
  }
  ASSERT_EQ(a.dataflow.job_finish_sec.size(), b.dataflow.job_finish_sec.size());
  for (const auto& [id, t] : a.dataflow.job_finish_sec) {
    auto it = b.dataflow.job_finish_sec.find(id);
    ASSERT_NE(it, b.dataflow.job_finish_sec.end()) << id;
    EXPECT_EQ(Bits(t), Bits(it->second)) << id;
  }
}

/// One configuration point: the configuration each tuned job requests.
using Point = std::vector<JobConfig>;

/// Prices every point of `plan` through a pricer and through applied plan
/// copies and expects identical results. Returns the pricer's estimates
/// for further checks.
std::vector<CostEstimate> ExpectPricerMatchesOracle(
    const Plan& plan, const std::vector<std::string>& tuned,
    const std::vector<Point>& points) {
  std::vector<CostEstimate> out;
  WhatIfEngine pricing(plan.cluster());
  WhatIfEngine oracle(plan.cluster());
  CostInstrumentation pricing_stats;
  CostInstrumentation oracle_stats;
  pricing.set_instrumentation(&pricing_stats);
  oracle.set_instrumentation(&oracle_stats);
  auto pricer = pricing.Compile(plan, tuned);
  EXPECT_TRUE(pricer.ok()) << pricer.status();
  if (!pricer.ok()) return out;
  // Twice over the points: a pricer carries nothing from one point to the
  // next, so a revisited point prices to the same bits.
  for (int round = 0; round < 2; ++round) {
    for (const Point& point : points) {
      std::vector<JobConfig> configs;
      Plan applied = plan;
      for (size_t i = 0; i < tuned.size(); ++i) {
        const JobVertex& job = **plan.GetJob(tuned[i]);
        configs.push_back(EffectiveConfig(job, point[i]));
        EXPECT_TRUE(ApplyConfiguration(&applied, tuned[i], point[i]).ok());
      }
      CostEstimate priced = pricing.Cost(*pricer, configs);
      ExpectSameEstimate(priced, oracle.Cost(applied));
      if (round == 0) out.push_back(std::move(priced));
    }
  }
  EXPECT_EQ(pricing_stats.whatif_invocations, oracle_stats.whatif_invocations);
  EXPECT_EQ(pricing_stats.full_predictions, oracle_stats.full_predictions);
  // The pricer predicts only what a point can change.
  EXPECT_LE(pricing_stats.job_predictions, oracle_stats.job_predictions);
  return out;
}

/// The tuned jobs of a candidate and the RRS points a short search visits
/// on it: the current and rule-of-thumb seeds, then the seeded rounds.
struct CandidatePoints {
  std::vector<std::string> tuned;
  std::vector<Point> points;
};

CandidatePoints PointsFor(const Plan& plan,
                          const std::vector<std::string>& scope) {
  CandidatePoints out;
  std::vector<ConfigSpace> spaces;
  std::vector<double> current;
  std::vector<double> thumb;
  for (const std::string& id : scope) {
    auto job = plan.GetJob(id);
    if (!job.ok()) continue;
    ConfigSpace space = SpaceForJob(**job, plan.cluster());
    if (space.size() == 0) continue;
    std::vector<double> c = space.ConfigToPoint((*job)->config);
    std::vector<double> t =
        space.ConfigToPoint(RuleOfThumbConfig(**job, plan.cluster(), &plan));
    current.insert(current.end(), c.begin(), c.end());
    thumb.insert(thumb.end(), t.begin(), t.end());
    out.tuned.push_back(id);
    spaces.push_back(std::move(space));
  }
  if (out.tuned.empty()) return out;
  auto to_point = [&](const std::vector<double>& x) {
    Point point;
    size_t offset = 0;
    for (size_t i = 0; i < spaces.size(); ++i) {
      std::vector<double> slice(
          x.begin() + static_cast<long>(offset),
          x.begin() + static_cast<long>(offset + spaces[i].size()));
      point.push_back(spaces[i].PointToConfig(
          slice, (*plan.GetJob(out.tuned[i]))->config));
      offset += spaces[i].size();
    }
    return point;
  };
  RrsOptions options;
  options.budget = 12;
  options.explore_samples = 4;
  options.exploit_samples = 3;
  RecursiveRandomSearch rrs(options, 17);
  WhatIfEngine engine(plan.cluster());
  rrs.MinimizeBatches(
      current.size(),
      [&](const std::vector<std::vector<double>>& xs) {
        std::vector<double> values;
        for (const auto& x : xs) {
          out.points.push_back(to_point(x));
          Plan applied = plan;
          for (size_t i = 0; i < out.tuned.size(); ++i) {
            EXPECT_TRUE(ApplyConfiguration(&applied, out.tuned[i],
                                           out.points.back()[i])
                            .ok());
          }
          values.push_back(engine.Cost(applied).cost);
        }
        return values;
      },
      {current, thumb});
  return out;
}

std::vector<std::string> Renamed(
    const std::vector<std::string>& ids,
    const std::map<std::string, std::string>& renames) {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const std::string& id : ids) {
    auto it = renames.find(id);
    const std::string& mapped = it == renames.end() ? id : it->second;
    if (seen.insert(mapped).second) out.push_back(mapped);
  }
  return out;
}

class PricerOnWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(PricerOnWorkload, MatchesAppliedPlanCostAtEveryRrsPoint) {
  WorkloadOptions options;
  options.sample_rows = 3000;
  auto w = MakeWorkload(GetParam(), options);
  ASSERT_TRUE(w.ok()) << w.status();
  Profiler profiler(options.cluster);
  Dfs dfs = w->dfs;
  ASSERT_TRUE(profiler.ProfilePlan(&w->plan, &dfs).ok());
  const Plan& plan = w->plan;

  std::vector<std::vector<std::shared_ptr<Transformation>>> groups = {
      {std::make_shared<IntraJobVerticalPacking>(),
       std::make_shared<InterJobVerticalPacking>(),
       std::make_shared<PartitionFunctionTransform>(),
       std::make_shared<BloomTransferTransform>()},
      {std::make_shared<HorizontalPacking>(false),
       std::make_shared<PartitionFunctionTransform>()}};
  UnitSearchOptions unit_options;
  unit_options.rrs.budget = 6;
  WhatIfEngine whatif(plan.cluster());
  size_t checked = 0;
  for (const auto& group : groups) {
    UnitOptimizer optimizer(group, &whatif, unit_options);
    std::set<std::string> processed;
    while (auto unit = NextUnit(plan, processed)) {
      SCOPED_TRACE(unit->ToString());
      auto candidates = optimizer.EnumerateSubplans(plan, *unit);
      ASSERT_TRUE(candidates.ok()) << candidates.status();
      for (const SubplanCandidate& cand : *candidates) {
        if (cand.fallback) continue;
        CandidatePoints cp =
            PointsFor(cand.plan, Renamed(unit->AllJobs(), cand.renames));
        if (cp.tuned.empty()) continue;
        ExpectPricerMatchesOracle(cand.plan, cp.tuned, cp.points);
        ++checked;
      }
      for (const auto& p : unit->producers) processed.insert(p);
    }
  }
  EXPECT_GT(checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllWorkflows, PricerOnWorkload,
                         ::testing::ValuesIn(AllWorkloadAbbrs()),
                         [](const auto& info) { return info.param; });

/// What Optimize (default options, one thread) chose for a Table 1
/// workload profiled at 3,000 rows, and the work it did. The values were
/// read from the optimizer before its plan copies shared split points and
/// before the schedule simulation dispatched from ordered ready lists; both
/// changes are meant to move no bit of them.
struct RecordedOptimize {
  uint64_t plan_hash;  ///< HashString(ExportPlan(chosen plan))
  const char* cost;    ///< estimated cost, printed with %a
  uint64_t whatif_invocations;
  uint64_t full_predictions;
  uint64_t job_predictions;
  uint64_t rrs_evaluations;
  uint64_t reuse_priced_candidates;
  int units_processed;
  int subplans_enumerated;
};

const std::map<std::string, RecordedOptimize>& RecordedOptimizes() {
  static const std::map<std::string, RecordedOptimize> recorded = {
      {"IR",
       {0x2f655234bd162e44, "0x1.c2f3cb71c7022p+11", 2223, 2223, 4961,
        2200, 0, 5, 22}},
      {"SN",
       {0xbc10158831f4fc33, "0x1.9dd573ff78e0dp+12", 2728, 2728, 8823,
        2700, 0, 8, 27}},
      {"LA",
       {0xe9c19bfbb9dbf8e3, "0x1.9ad7b4bda20ccp+10", 3839, 3839, 11133,
        3800, 0, 7, 38}},
      {"WG",
       {0xb7c5200fd9db8f81, "0x1.527e0d4288b28p+14", 6061, 6061, 17116,
        6000, 0, 8, 60}},
      {"BA",
       {0x22179e1f0e3a03eb, "0x1.1479bb98e09d1p+9", 5354, 5354, 19920,
        5300, 0, 7, 53}},
      {"BR",
       {0xedf1dd1ef6bafd4e, "0x1.0974860006069p+10", 28483, 28483, 127308,
        28200, 0, 8, 282}},
      {"PJ",
       {0x8f954b18d7d3c269, "0x1.0db96ef105c02p+6", 6263, 6263, 12627,
        6200, 0, 3, 62}},
      {"US",
       {0x664ea5f938709059, "0x1.548327ccb14dcp+10", 7071, 7071, 17023,
        7000, 0, 4, 70}},
  };
  return recorded;
}

class OptimizerOnWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(OptimizerOnWorkload, ChoosesTheRecordedPlan) {
  auto pin = RecordedOptimizes().find(GetParam());
  ASSERT_NE(pin, RecordedOptimizes().end()) << GetParam();
  WorkloadOptions options;
  options.sample_rows = 3000;
  auto w = MakeWorkload(GetParam(), options);
  ASSERT_TRUE(w.ok()) << w.status();
  Profiler profiler(options.cluster);
  Dfs dfs = w->dfs;
  ASSERT_TRUE(profiler.ProfilePlan(&w->plan, &dfs).ok());
  auto report = StubbyOptimizer().Optimize(w->plan);
  ASSERT_TRUE(report.ok()) << report.status();

  const uint64_t plan_hash = HashString(ExportPlan(report->plan));
  const std::string cost = StrFormat("%a", report->estimated_cost);
  const CostInstrumentation& got = report->costing;
  SCOPED_TRACE(StrFormat(
      "recorded now: {0x%llx, \"%s\", %llu, %llu, %llu, %llu, %llu, %d, %d}",
      static_cast<unsigned long long>(plan_hash), cost.c_str(),
      static_cast<unsigned long long>(got.whatif_invocations),
      static_cast<unsigned long long>(got.full_predictions),
      static_cast<unsigned long long>(got.job_predictions),
      static_cast<unsigned long long>(got.rrs_evaluations),
      static_cast<unsigned long long>(got.reuse_priced_candidates),
      report->units_processed, report->subplans_enumerated));
  const RecordedOptimize& want = pin->second;
  EXPECT_EQ(plan_hash, want.plan_hash);
  EXPECT_EQ(cost, want.cost);
  EXPECT_EQ(got.whatif_invocations, want.whatif_invocations);
  EXPECT_EQ(got.full_predictions, want.full_predictions);
  EXPECT_EQ(got.job_predictions, want.job_predictions);
  EXPECT_EQ(got.rrs_evaluations, want.rrs_evaluations);
  EXPECT_EQ(got.reuse_priced_candidates, want.reuse_priced_candidates);
  EXPECT_EQ(report->units_processed, want.units_processed);
  EXPECT_EQ(report->subplans_enumerated, want.subplans_enumerated);
}

INSTANTIATE_TEST_SUITE_P(AllWorkflows, OptimizerOnWorkload,
                         ::testing::ValuesIn(AllWorkloadAbbrs()),
                         [](const auto& info) { return info.param; });

/// IN -> J1 -> MID -> J2 (unaligned read), J1's map stage tees TEE -> J3
/// (aligned read), and J0 over IN alone. Tuning J1 changes J2 through the
/// compression of MID, and J3 through the partition count of TEE.
Plan MakeTeePlan() {
  ClusterSpec cluster;
  WorkflowFactory f(cluster);
  Schema in({"K", "V"});
  std::vector<Row> rows;
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    rows.push_back(Row{rng.NextInt(0, 499), rng.NextDouble(0, 100)});
  }
  EXPECT_TRUE(f.AddBase("IN", in, Layout{}, 8, rows, 40 * testing::kGB).ok());
  const Schema sum = AggOutputSchema({"K"}, {{"V", AggOp::kSum, "S"}});
  for (const char* id : {"MID", "OUT0", "OUT2", "OUT3"}) {
    EXPECT_TRUE(f.AddDataset(id, sum, std::string(id) != "MID").ok());
  }
  EXPECT_TRUE(f.AddDataset("TEE", in).ok());
  auto add = [&](const std::string& id, const std::string& input,
                 const Schema& schema, const std::string& field,
                 std::vector<Stage> stages, const std::string& output) {
    WorkflowFactory::JobDef j;
    j.id = id;
    j.inputs = {In(input, std::move(stages))};
    j.map_output_schema = schema;
    j.reduce_stages = {Stage::Reduce(
        AggReduce("sum_" + id, schema, {"K"}, {{field, AggOp::kSum, "S"}}),
        {"K"})};
    j.combiner =
        AggCombine("comb_" + id, schema, {"K"}, {{field, AggOp::kSum, field}});
    j.output = output;
    EXPECT_TRUE(f.AddJob(std::move(j)).ok());
  };
  add("J0", "IN", in, "V", {}, "OUT0");
  add("J1", "IN", in, "V",
      {Stage::Map(FilterRangeMap("keep", in, "V", 0, 80))}, "MID");
  add("J2", "MID", sum, "S", {}, "OUT2");
  add("J3", "TEE", in, "V", {}, "OUT3");
  Plan plan = f.plan();
  (*plan.GetMutableJob("J1"))->branches[0].inputs[0].map_stages[0].tee_dataset =
      "TEE";
  (*plan.GetMutableJob("J3"))->branches[0].inputs[0].aligned = true;
  // Hand-set statistics: pricing needs them, not their realism.
  for (const auto& [jid, job] : plan.jobs()) {
    JobVertex* j = *plan.GetMutableJob(jid);
    for (Branch& b : j->branches) {
      for (BranchInput& input : b.inputs) {
        for (Stage& s : input.map_stages) s.stats = StageStats{0.8, 0.8};
      }
      for (Stage& s : b.reduce_stages) s.stats = StageStats{0.1, 0.1};
      ProfileAnnotation profile;
      profile.k2_distinct_groups = 500;
      b.annotations.profile = profile;
    }
  }
  return plan;
}

TEST(PlanPricerTest, ReachesDownstreamJobsThroughCompressionAndTees) {
  const Plan plan = MakeTeePlan();
  ASSERT_TRUE(WhatIfEngine(plan.cluster()).IsCostable(plan));
  const JobConfig base = (*plan.GetJob("J1"))->config;
  std::vector<Point> points;
  for (bool compress : {false, true}) {
    for (double split_mb : {16.0, 256.0}) {
      JobConfig c = base;
      c.compress_output = compress;
      c.split_mb = split_mb;
      c.num_reduce_tasks = compress ? 7 : 40;
      points.push_back({c});
    }
  }
  std::vector<CostEstimate> priced =
      ExpectPricerMatchesOracle(plan, {"J1"}, points);
  ASSERT_EQ(priced.size(), points.size());
  // The points do reach J2 (MID's compression sets its unaligned split
  // count) and J3 (TEE's partitions follow J1's map tasks), so a pricer
  // that treated either as fixed would fail the oracle above.
  auto tasks = [&](size_t p, const std::string& id) {
    return priced[p].dataflow.FindJob(id)->num_map_tasks;
  };
  EXPECT_NE(tasks(0, "J2"), tasks(2, "J2"));
  EXPECT_NE(tasks(0, "J3"), tasks(1, "J3"));
  EXPECT_EQ(tasks(0, "J0"), tasks(3, "J0"));
}

TEST(PlanPricerTest, PredictsOnlyTunedAndDownstreamJobsPerPoint) {
  const Plan plan = MakeTeePlan();
  WhatIfEngine engine(plan.cluster());
  CostInstrumentation stats;
  engine.set_instrumentation(&stats);
  auto pricer = engine.Compile(plan, {"J2"});
  ASSERT_TRUE(pricer.ok()) << pricer.status();
  // J0, J1 and J3 are fixed: predicted once, at compile time.
  EXPECT_EQ(stats.job_predictions, 3u);
  EXPECT_EQ(stats.full_predictions, 0u);
  engine.Cost(*pricer, {(*plan.GetJob("J2"))->config});
  EXPECT_EQ(stats.job_predictions, 4u);
  EXPECT_EQ(stats.full_predictions, 1u);
  EXPECT_EQ(stats.whatif_invocations, 1u);
}

TEST(PlanPricerTest, CompileRejectsUnknownAndRepeatedTunedJobs) {
  const Plan plan = MakeTeePlan();
  WhatIfEngine engine(plan.cluster());
  EXPECT_FALSE(engine.Compile(plan, {"nope"}).ok());
  EXPECT_FALSE(engine.Compile(plan, {"J1", "J1"}).ok());
}

}  // namespace
}  // namespace stubby
