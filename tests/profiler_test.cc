// Tests for profiler/: measured stage statistics, histograms with heavy
// hitters, group cardinality, predicted combining, pruned-input reads, and
// every recorded annotation pinned bit for bit.

#include <gtest/gtest.h>

#include <map>

#include "common/strings.h"
#include "cost/whatif.h"
#include "test_workflows.h"

namespace stubby {
namespace {

using ::stubby::testing::MakeChain;
using ::stubby::testing::MakeSelectiveJoin;
using ::stubby::testing::MakeSiblings;
using ::stubby::testing::ProfileInPlace;

TEST(ProfilerTest, StageStatsMeasureSelectivity) {
  // A filter passing ~40% of rows must profile with ~0.4 selectivity.
  ClusterSpec cluster;
  WorkflowFactory f(cluster);
  Schema schema({"k", "x"});
  std::vector<Row> rows;
  Rng rng(3);
  for (int i = 0; i < 4000; ++i) {
    rows.push_back(Row{rng.NextInt(0, 9), rng.NextDouble(0, 100)});
  }
  Layout layout;
  ASSERT_TRUE(
      f.AddBase("IN", schema, layout, 4, rows, testing::kGB).ok());
  ASSERT_TRUE(f.AddDataset("OUT", Schema({"k", "c"}), true).ok());
  WorkflowFactory::JobDef j;
  j.id = "J";
  j.inputs = {In("IN", {Stage::Map(FilterRangeMap("f", schema, "x", 0, 40))})};
  j.map_output_schema = schema;
  j.reduce_stages = {Stage::Reduce(
      AggReduce("count", schema, {"k"}, {{"x", AggOp::kCount, "c"}}), {"k"})};
  j.output = "OUT";
  ASSERT_TRUE(f.AddJob(std::move(j)).ok());
  ProfileInPlace(&f);

  const JobVertex& job = *(*f.plan().GetJob("J"));
  const Stage& filter = job.branches[0].inputs[0].map_stages[0];
  ASSERT_TRUE(filter.stats.has_value());
  EXPECT_NEAR(filter.stats->record_selectivity, 0.4, 0.05);
  const Stage& reduce = job.branches[0].reduce_stages[0];
  ASSERT_TRUE(reduce.stats.has_value());
  // 10 groups out of ~1600 filtered rows.
  EXPECT_NEAR(reduce.stats->record_selectivity, 10.0 / 1600.0, 0.005);
  EXPECT_NEAR(reduce.stats->groups_per_record, 10.0 / 1600.0, 0.005);
}

/// Everything the profiler records for a job, at full precision: every
/// branch's profile and the stats of every stage of every input, merged
/// stages and the reduce side included.
std::string ProfileFingerprint(const JobVertex& job) {
  std::string out;
  auto stage_line = [&](const std::string& side, const Stage& s) {
    out += StrFormat("  %s %s sel=%.17g bsel=%.17g groups=%.17g cpu=%.17g\n",
                     side.c_str(), s.name().c_str(),
                     s.stats->record_selectivity, s.stats->byte_selectivity,
                     s.stats->groups_per_record, s.stats->cpu_per_record);
  };
  for (const Branch& b : job.branches) {
    const ProfileAnnotation& p = *b.annotations.profile;
    out += StrFormat(
        "%s: rec_bytes=%.17g groups=%.17g top=%.17g combine_cpu=%.17g\n",
        b.tag.c_str(), p.avg_input_record_bytes, p.k2_distinct_groups,
        p.k2_max_group_fraction, p.combine_cpu_per_record);
    for (const KeyHistogram& h : p.key_histograms) {
      out += StrFormat("  %s [%.17g,%.17g] distinct=%llu top=%.17g:",
                       h.field.c_str(), h.min, h.max,
                       static_cast<unsigned long long>(h.distinct),
                       h.max_key_fraction);
      for (double f : h.bucket_fractions) out += StrFormat(" %.17g", f);
      for (const auto& [v, f] : h.heavy_hitters) {
        out += StrFormat(" (%.17g:%.17g)", v, f);
      }
      out += "\n";
    }
    for (size_t ii = 0; ii < b.inputs.size(); ++ii) {
      for (const Stage& s : b.inputs[ii].map_stages) {
        stage_line("in" + std::to_string(ii), s);
      }
    }
    for (const Stage& s : b.merged_map_stages) stage_line("merged", s);
    for (const Stage& s : b.reduce_stages) stage_line("reduce", s);
  }
  return out;
}

/// ProfileFingerprint of every job of `plan`, in job-id order.
std::string PlanFingerprint(const Plan& plan) {
  std::string out;
  for (const auto& [id, job] : plan.jobs()) {
    out += id + ":\n" + ProfileFingerprint(job);
  }
  return out;
}

/// One job counting the rows of each key of a range-partitioned input
/// whose x passes a filter, reading the partitions `prune` names.
Result<WorkflowFactory> MakePrunedScan(std::vector<int> prune) {
  ClusterSpec cluster;
  WorkflowFactory f(cluster);
  Schema schema({"k", "x"});
  std::vector<Row> rows;
  Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    rows.push_back(Row{rng.NextInt(0, 89), rng.NextDouble(0, 100)});
  }
  PartitionSpec range;
  range.type = PartitionType::kRange;
  range.partition_fields = {"k"};
  range.sort_fields = {"k"};
  range.split_points = {Row{int64_t{30}}, Row{int64_t{60}}};
  Layout layout;
  layout.partitioning = range;
  STUBBY_RETURN_NOT_OK(f.AddBase("IN", schema, layout, 3, rows, testing::kGB));
  STUBBY_RETURN_NOT_OK(f.AddDataset("OUT", Schema({"k", "c"}), true));
  WorkflowFactory::JobDef j;
  j.id = "J";
  BranchInput in =
      In("IN", {Stage::Map(FilterRangeMap("f", schema, "x", 0, 50))});
  in.prune_partitions = std::move(prune);
  j.inputs = {in};
  j.map_output_schema = schema;
  j.reduce_stages = {Stage::Reduce(
      AggReduce("count", schema, {"k"}, {{"x", AggOp::kCount, "c"}}), {"k"})};
  j.output = "OUT";
  STUBBY_RETURN_NOT_OK(f.AddJob(std::move(j)));
  return f;
}

TEST(ProfilerTest, PrunedInputProfilesTheExecutedPartitionSet) {
  // A prune list names a partition set, as the executor reads it:
  // duplicates and order do not change what is profiled, and an entry
  // naming a partition the input does not have is an error.
  auto profile_with = [&](std::vector<int> prune) -> Result<std::string> {
    STUBBY_ASSIGN_OR_RETURN(WorkflowFactory f, MakePrunedScan(prune));
    Plan plan = f.plan();
    Dfs dfs = f.dfs();
    STUBBY_RETURN_NOT_OK(Profiler(ClusterSpec{}).ProfilePlan(&plan, &dfs));
    STUBBY_ASSIGN_OR_RETURN(const JobVertex* job, plan.GetJob("J"));
    return ProfileFingerprint(*job);
  };
  auto want = profile_with({0, 1});
  ASSERT_TRUE(want.ok()) << want.status();
  for (const std::vector<int>& prune :
       {std::vector<int>{0, 1, 1}, std::vector<int>{1, 0}}) {
    auto got = profile_with(prune);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, *want) << "prune list of size " << prune.size();
  }
  // The fingerprint does tell partition sets apart.
  auto all = profile_with({});
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_NE(*all, *want);

  EXPECT_TRUE(profile_with({0, 17}).status().IsInvalidArgument());
}

TEST(ProfilerTest, AnnotationsMatchRecordedBits) {
  // Every annotation the profiler writes, hashed over its full-precision
  // fingerprint and pinned: plans annotated by one build must price the
  // same in the next. The fixtures draw their data with Rng::NextInt and
  // Rng::NextDouble only (integer arithmetic and one multiply), so no libm
  // result reaches an annotation. The chain pins one value with the
  // combiner off and on: its grouped stage is recorded against the
  // pre-combine map output.
  auto chain_with_combiner = []() -> Result<WorkflowFactory> {
    STUBBY_ASSIGN_OR_RETURN(WorkflowFactory f, MakeChain());
    STUBBY_ASSIGN_OR_RETURN(JobVertex * jp, f.plan().GetMutableJob("Jp"));
    jp->config.use_combiner = true;
    return f;
  };
  std::vector<std::pair<std::string, Result<WorkflowFactory>>> fixtures;
  fixtures.emplace_back("chain", MakeChain());
  fixtures.emplace_back("chain+combiner", chain_with_combiner());
  fixtures.emplace_back("siblings", MakeSiblings());
  fixtures.emplace_back("pruned", MakePrunedScan({0, 1}));
  fixtures.emplace_back("selective_join", MakeSelectiveJoin());
  const std::map<std::string, uint64_t> recorded = {
      {"chain", 0x2abc6f73a400a107ull},
      {"chain+combiner", 0x2abc6f73a400a107ull},
      {"siblings", 0x2f21db747ff1e50aull},
      {"pruned", 0x22c22879305e2791ull},
      {"selective_join", 0xbfa6d34651ed0ae1ull}};
  for (auto& [name, f] : fixtures) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(f.ok()) << f.status();
    Plan plan = f->plan();
    Dfs dfs = f->dfs();
    ASSERT_TRUE(Profiler(ClusterSpec{}).ProfilePlan(&plan, &dfs).ok());
    const std::string fingerprint = PlanFingerprint(plan);
    EXPECT_EQ(HashString(fingerprint), recorded.at(name)) << fingerprint;
  }
}

TEST(ProfilerTest, ProfileCarriesHistogramsAndGroups) {
  auto f = MakeChain(4000, /*distinct_k=*/50, /*distinct_z=*/40);
  ASSERT_TRUE(f.ok());
  ProfileInPlace(&*f);
  const JobVertex& jp = *(*f->plan().GetJob("Jp"));
  const auto& profile = jp.branches[0].annotations.profile;
  ASSERT_TRUE(profile.has_value());
  const KeyHistogram* hk = profile->FindHistogram("K");
  ASSERT_NE(hk, nullptr);
  EXPECT_EQ(hk->distinct, 50u);
  EXPECT_NEAR(hk->min, 0, 1);
  EXPECT_NEAR(hk->max, 49, 1);
  // Roughly uniform: no heavy hitter dominates.
  EXPECT_LT(hk->max_key_fraction, 0.1);
  // 4000 draws over 50*40 = 2000 possible (K,Z) groups hit about
  // 2000*(1-exp(-2)) ~ 1729 of them.
  EXPECT_NEAR(profile->k2_distinct_groups, 1729, 120);
  EXPECT_GT(profile->avg_input_record_bytes, 8);
}

TEST(ProfilerTest, HeavyHittersAreExtracted) {
  ClusterSpec cluster;
  WorkflowFactory f(cluster);
  Schema schema({"k", "v"});
  std::vector<Row> rows;
  Rng rng(4);
  for (int i = 0; i < 3000; ++i) {
    // Value 7 carries ~50% of the mass.
    int64_t k = (i % 2 == 0) ? 7 : rng.NextInt(100, 1000);
    rows.push_back(Row{k, 1.0});
  }
  Layout layout;
  ASSERT_TRUE(f.AddBase("IN", schema, layout, 4, rows, testing::kGB).ok());
  ASSERT_TRUE(f.AddDataset("OUT", Schema({"k", "s"}), true).ok());
  WorkflowFactory::JobDef j;
  j.id = "J";
  j.inputs = {In("IN", {})};
  j.map_output_schema = schema;
  j.reduce_stages = {Stage::Reduce(
      AggReduce("sum", schema, {"k"}, {{"v", AggOp::kSum, "s"}}), {"k"})};
  j.output = "OUT";
  ASSERT_TRUE(f.AddJob(std::move(j)).ok());
  ProfileInPlace(&f);

  const auto& profile =
      (*f.plan().GetJob("J"))->branches[0].annotations.profile;
  ASSERT_TRUE(profile.has_value());
  const KeyHistogram* h = profile->FindHistogram("k");
  ASSERT_NE(h, nullptr);
  EXPECT_NEAR(h->max_key_fraction, 0.5, 0.05);
  ASSERT_FALSE(h->heavy_hitters.empty());
  EXPECT_DOUBLE_EQ(h->heavy_hitters[0].first, 7.0);
  EXPECT_NEAR(h->heavy_hitters[0].second, 0.5, 0.05);
  EXPECT_NEAR(profile->k2_max_group_fraction, 0.5, 0.05);
  // The histogram+hitters must still integrate to ~1.
  EXPECT_NEAR(h->FractionInRange(-1e9, 1e9), 1.0, 0.02);
}

TEST(ProfilerTest, CombiningPredictedFromDistinctGroups) {
  // Small logical size => few map tasks => many rows per task over only 10
  // groups, so per-task combining collapses heavily. The what-if engine
  // prices it from the profiled group count alone.
  auto f = MakeChain(4000, /*distinct_k=*/5, /*distinct_z=*/2,
                     /*logical_bytes=*/2 * testing::kGB);
  ASSERT_TRUE(f.ok());
  ProfileInPlace(&*f);
  Plan plan = f->plan();
  JobVertex* jp = *plan.GetMutableJob("Jp");
  const auto& profile = jp->branches[0].annotations.profile;
  ASSERT_TRUE(profile.has_value());
  EXPECT_EQ(profile->k2_distinct_groups, 10.0);
  jp->config.use_combiner = true;
  auto flow = WhatIfEngine(plan.cluster()).PredictDataflow(plan);
  ASSERT_TRUE(flow.ok()) << flow.status();
  const JobDataflow* df = flow->FindJob("Jp");
  ASSERT_NE(df, nullptr);
  ASSERT_GT(df->map_output_records, 0u);
  EXPECT_LT(static_cast<double>(df->combine_output_records),
            0.2 * static_cast<double>(df->map_output_records));
}

TEST(ProfilerTest, NoiseIsDeterministicAndBounded) {
  auto f1 = MakeChain(2000);
  auto f2 = MakeChain(2000);
  ASSERT_TRUE(f1.ok() && f2.ok());
  ProfilerOptions opts;
  opts.noise = 0.1;
  Profiler profiler(ClusterSpec{}, opts);
  Dfs d1 = f1->dfs(), d2 = f2->dfs();
  ASSERT_TRUE(profiler.ProfilePlan(&f1->plan(), &d1).ok());
  ASSERT_TRUE(profiler.ProfilePlan(&f2->plan(), &d2).ok());
  const Stage& s1 = (*f1->plan().GetJob("Jp"))->branches[0].reduce_stages[0];
  const Stage& s2 = (*f2->plan().GetJob("Jp"))->branches[0].reduce_stages[0];
  EXPECT_DOUBLE_EQ(s1.stats->record_selectivity,
                   s2.stats->record_selectivity);  // deterministic
  // Noise within 10% of the exact measurement.
  auto exact = MakeChain(2000);
  ProfileInPlace(&*exact);
  const Stage& se =
      (*exact->plan().GetJob("Jp"))->branches[0].reduce_stages[0];
  EXPECT_NEAR(s1.stats->record_selectivity, se.stats->record_selectivity,
              0.11 * se.stats->record_selectivity);
}

}  // namespace
}  // namespace stubby
