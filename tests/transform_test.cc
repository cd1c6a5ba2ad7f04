// Tests for optimizer/transformations: preconditions (checked on
// annotations, never on UDF internals), postconditions, plan equivalence
// after application, and the conditions ledger.

#include <gtest/gtest.h>

#include "optimizer/horizontal.h"
#include "optimizer/partition_fn.h"
#include "optimizer/transform.h"
#include "optimizer/vertical.h"
#include "test_workflows.h"

namespace stubby {
namespace {

using ::stubby::testing::ExpectEquivalent;
using ::stubby::testing::MakeChain;
using ::stubby::testing::MakeSiblings;
using ::stubby::testing::ProfileInPlace;

std::vector<std::string> AllJobs(const Plan& plan) {
  std::vector<std::string> out;
  for (const auto& [jid, job] : plan.jobs()) out.push_back(jid);
  return out;
}

TEST(IntraPackTest, FindsTheChainApplication) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  IntraJobVerticalPacking intra;
  auto apps = intra.FindApplications(f->plan(), AllJobs(f->plan()));
  ASSERT_EQ(apps.size(), 1u);
  EXPECT_NE(apps[0].description.find("Jc"), std::string::npos);
}

TEST(IntraPackTest, RequiresSchemaAnnotations) {
  // The information spectrum: remove the consumer's K2 annotation and the
  // transformation must disappear.
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  Plan plan = f->plan();
  (*plan.GetMutableJob("Jc"))->branches[0].annotations.schema.reset();
  IntraJobVerticalPacking intra;
  EXPECT_TRUE(intra.FindApplications(plan, AllJobs(plan)).empty());
  // Same if the producer's K3 annotation is missing.
  Plan plan2 = f->plan();
  (*plan2.GetMutableJob("Jp"))->branches[0].annotations.schema->k3.reset();
  EXPECT_TRUE(intra.FindApplications(plan2, AllJobs(plan2)).empty());
}

TEST(IntraPackTest, RequiresPrefixGrouping) {
  // Consumer grouping {Z} is not a prefix of the producer's (K, Z).
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  Plan plan = f->plan();
  auto jc = plan.GetMutableJob("Jc");
  Branch& bc = (*jc)->branches[0];
  Schema mid({"K", "Z", "S"});
  bc.reduce_stages = {Stage::Reduce(
      AggReduce("sum_z", mid, {"Z"}, {{"S", AggOp::kSum, "T"}}), {"Z"})};
  bc.partition = PartitionSpec::DefaultFor({"Z"});
  bc.annotations.schema->k2 = FieldSet{"Z"};
  // Keep OUT's schema consistent.
  (*plan.GetMutableDataset("OUT"))->schema = Schema({"Z", "T"});
  ASSERT_TRUE(plan.Validate().ok());
  IntraJobVerticalPacking intra;
  EXPECT_TRUE(intra.FindApplications(plan, AllJobs(plan)).empty());
}

TEST(IntraPackTest, AppliedPlanIsValidEquivalentAndConditioned) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  ProfileInPlace(&*f);
  IntraJobVerticalPacking intra;
  auto apps = intra.FindApplications(f->plan(), AllJobs(f->plan()));
  ASSERT_EQ(apps.size(), 1u);
  auto packed = apps[0].apply(f->plan());
  ASSERT_TRUE(packed.ok()) << packed.status();
  EXPECT_TRUE(packed->Validate().ok());

  const JobVertex& jp = *(*packed->GetJob("Jp"));
  const JobVertex& jc = *(*packed->GetJob("Jc"));
  // Postcondition 1: the producer partitions on the intersection {K} and
  // the spec is frozen.
  EXPECT_EQ(jp.branches[0].partition.partition_fields,
            std::vector<std::string>{"K"});
  EXPECT_TRUE(jp.conditions.partition_frozen);
  // Postcondition 2: the consumer is map-only with aligned reads.
  EXPECT_TRUE(jc.map_only());
  EXPECT_TRUE(jc.branches[0].merge_mode());
  EXPECT_TRUE(jc.branches[0].inputs[0].aligned);
  // Equivalence on real data.
  ExpectEquivalent(*f, f->plan(), *packed);
}

TEST(IntraPackTest, FrozenIncompatibleProducerBlocks) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  Plan plan = f->plan();
  (*plan.GetMutableJob("Jp"))->conditions.partition_frozen = true;
  // Frozen with partition fields (K, Z) != required (K): blocked.
  IntraJobVerticalPacking intra;
  EXPECT_TRUE(intra.FindApplications(plan, AllJobs(plan)).empty());
}

TEST(IntraPackTest, PrunedInputBlocks) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  Plan plan = f->plan();
  (*plan.GetMutableJob("Jc"))->branches[0].inputs[0].prune_partitions = {0};
  IntraJobVerticalPacking intra;
  EXPECT_TRUE(intra.FindApplications(plan, AllJobs(plan)).empty());
}

TEST(InterPackTest, PacksMapOnlyConsumerIntoProducerAfterIntra) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  ProfileInPlace(&*f);
  IntraJobVerticalPacking intra;
  auto apps = intra.FindApplications(f->plan(), AllJobs(f->plan()));
  ASSERT_EQ(apps.size(), 1u);
  Plan mid = *apps[0].apply(f->plan());

  InterJobVerticalPacking inter;
  auto apps2 = inter.FindApplications(mid, AllJobs(mid));
  ASSERT_FALSE(apps2.empty());
  auto packed = apps2[0].apply(mid);
  ASSERT_TRUE(packed.ok()) << packed.status();
  EXPECT_EQ(packed->num_jobs(), 1u);
  EXPECT_TRUE(packed->HasJob("Jp+Jc"));
  // The intermediate dataset is gone (sole consumer, not a workflow output).
  EXPECT_FALSE(packed->HasDataset("MID"));
  EXPECT_EQ(apps2[0].renames.at("Jp"), "Jp+Jc");
  ExpectEquivalent(*f, f->plan(), *packed);
}

TEST(InterPackTest, TeePreservesIntermediateForOtherConsumers) {
  // Add a second consumer of MID; packing must keep MID materialized.
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  Plan plan = f->plan();
  Schema mid({"K", "Z", "S"});
  ASSERT_TRUE(f->AddDataset("OUT2", Schema({"Z", "M"}), true).ok());
  {
    WorkflowFactory::JobDef j;
    j.id = "Jd";
    j.inputs = {In("MID", {})};
    j.map_output_schema = mid;
    j.reduce_stages = {Stage::Reduce(
        AggReduce("max_z", mid, {"Z"}, {{"S", AggOp::kMax, "M"}}), {"Z"})};
    j.output = "OUT2";
    ASSERT_TRUE(f->AddJob(std::move(j)).ok());
  }
  ProfileInPlace(&*f);
  IntraJobVerticalPacking intra;
  // Jc can no longer intra-pack (MID has two consumers and the rewrite
  // would change the layout Jd... actually Jd reads plain, so it applies).
  auto apps = intra.FindApplications(f->plan(), AllJobs(f->plan()));
  ASSERT_FALSE(apps.empty());
  Plan midplan = *apps[0].apply(f->plan());
  InterJobVerticalPacking inter;
  bool packed_with_tee = false;
  for (auto& app : inter.FindApplications(midplan, AllJobs(midplan))) {
    if (app.description.find("tee") == std::string::npos) continue;
    auto packed = app.apply(midplan);
    ASSERT_TRUE(packed.ok()) << packed.status();
    EXPECT_TRUE(packed->HasDataset("MID"));
    ExpectEquivalent(*f, f->plan(), *packed);
    packed_with_tee = true;
    break;
  }
  EXPECT_TRUE(packed_with_tee);
}

TEST(InterPackTest, PacksMapOnlyProducerIntoConsumer) {
  // Build filter (map-only) -> aggregate chain.
  ClusterSpec cluster;
  WorkflowFactory f(cluster);
  Schema schema({"k", "v"});
  std::vector<Row> rows;
  Rng rng(8);
  for (int i = 0; i < 2000; ++i) {
    rows.push_back(Row{rng.NextInt(0, 20), rng.NextDouble(0, 10)});
  }
  Layout layout;
  ASSERT_TRUE(
      f.AddBase("IN", schema, layout, 4, rows, 8 * testing::kGB).ok());
  ASSERT_TRUE(f.AddDataset("MID", schema).ok());
  ASSERT_TRUE(f.AddDataset("OUT", Schema({"k", "s"}), true).ok());
  {
    WorkflowFactory::JobDef j;
    j.id = "Jf";
    j.inputs = {In("IN", {Stage::Map(FilterRangeMap("f", schema, "v", 0, 5))})};
    j.map_output_schema = schema;
    j.output = "MID";
    ASSERT_TRUE(f.AddJob(std::move(j)).ok());
  }
  {
    WorkflowFactory::JobDef j;
    j.id = "Ja";
    j.inputs = {In("MID", {})};
    j.map_output_schema = schema;
    j.reduce_stages = {Stage::Reduce(
        AggReduce("sum", schema, {"k"}, {{"v", AggOp::kSum, "s"}}), {"k"})};
    j.output = "OUT";
    ASSERT_TRUE(f.AddJob(std::move(j)).ok());
  }
  ASSERT_TRUE(f.plan().Validate().ok());
  ProfileInPlace(&f);

  InterJobVerticalPacking inter;
  auto apps = inter.FindApplications(f.plan(), AllJobs(f.plan()));
  ASSERT_EQ(apps.size(), 1u);
  auto packed = apps[0].apply(f.plan());
  ASSERT_TRUE(packed.ok()) << packed.status();
  EXPECT_EQ(packed->num_jobs(), 1u);
  EXPECT_FALSE(packed->HasDataset("MID"));
  ExpectEquivalent(f, f.plan(), *packed);
}

TEST(InterPackTest, ReplicatesMapOnlyProducerIntoAllConsumers) {
  // A map-only filter feeding two consumers: the one-to-many extension (i)
  // replicates the filter into both, eliminating the job and the
  // intermediate dataset.
  ClusterSpec cluster;
  WorkflowFactory f(cluster);
  Schema schema({"k", "v"});
  std::vector<Row> rows;
  Rng rng(12);
  for (int i = 0; i < 2000; ++i) {
    rows.push_back(Row{rng.NextInt(0, 20), rng.NextDouble(0, 10)});
  }
  Layout layout;
  ASSERT_TRUE(
      f.AddBase("IN", schema, layout, 4, rows, 8 * testing::kGB).ok());
  ASSERT_TRUE(f.AddDataset("MID", schema).ok());
  ASSERT_TRUE(f.AddDataset("OA", Schema({"k", "s"}), true).ok());
  ASSERT_TRUE(f.AddDataset("OB", Schema({"k", "m"}), true).ok());
  {
    WorkflowFactory::JobDef j;
    j.id = "Jf";
    j.inputs = {In("IN", {Stage::Map(FilterRangeMap("f", schema, "v", 0, 5))})};
    j.map_output_schema = schema;
    j.output = "MID";
    ASSERT_TRUE(f.AddJob(std::move(j)).ok());
  }
  for (const auto& [id, field, op, out] :
       {std::tuple{"Ja", "s", AggOp::kSum, "OA"},
        std::tuple{"Jb", "m", AggOp::kMax, "OB"}}) {
    WorkflowFactory::JobDef j;
    j.id = id;
    j.inputs = {In("MID", {})};
    j.map_output_schema = schema;
    j.reduce_stages = {Stage::Reduce(
        AggReduce(std::string("agg_") + id, schema, {"k"},
                  {{"v", op, field}}),
        {"k"})};
    j.output = out;
    ASSERT_TRUE(f.AddJob(std::move(j)).ok());
  }
  ASSERT_TRUE(f.plan().Validate().ok());
  ProfileInPlace(&f);

  InterJobVerticalPacking inter;
  bool replicated = false;
  for (auto& app : inter.FindApplications(f.plan(), AllJobs(f.plan()))) {
    if (app.description.find("replicated") == std::string::npos) continue;
    auto packed = app.apply(f.plan());
    ASSERT_TRUE(packed.ok()) << packed.status();
    EXPECT_EQ(packed->num_jobs(), 2u);
    EXPECT_FALSE(packed->HasDataset("MID"));
    EXPECT_TRUE(packed->HasJob("Jf+Ja"));
    EXPECT_TRUE(packed->HasJob("Jf+Jb"));
    ExpectEquivalent(f, f.plan(), *packed);
    replicated = true;
  }
  EXPECT_TRUE(replicated);
}

TEST(HorizontalPackTest, PacksSiblingsAndStaysEquivalent) {
  auto f = MakeSiblings();
  ASSERT_TRUE(f.ok());
  ProfileInPlace(&*f);
  HorizontalPacking packer(/*extended=*/false);
  auto apps = packer.FindApplications(f->plan(), AllJobs(f->plan()));
  ASSERT_EQ(apps.size(), 1u);
  auto packed = apps[0].apply(f->plan());
  ASSERT_TRUE(packed.ok()) << packed.status();
  EXPECT_EQ(packed->num_jobs(), 1u);
  const JobVertex& job = *(*packed->GetJob("Ja|Jb"));
  EXPECT_EQ(job.branches.size(), 2u);
  ExpectEquivalent(*f, f->plan(), *packed);
}

TEST(HorizontalPackTest, DependentJobsAreNotConcurrentlyRunnable) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  HorizontalPacking packer(/*extended=*/true);
  EXPECT_TRUE(packer.FindApplications(f->plan(), AllJobs(f->plan())).empty());
}

TEST(HorizontalPackTest, ExtendedFlagGatesDisjointInputs) {
  // Two siblings over two different base datasets.
  ClusterSpec cluster;
  WorkflowFactory f(cluster);
  Schema schema({"k", "v"});
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) rows.push_back(Row{int64_t{i % 5}, 1.0});
  Layout layout;
  ASSERT_TRUE(f.AddBase("A", schema, layout, 2, rows, testing::kGB).ok());
  ASSERT_TRUE(f.AddBase("B", schema, layout, 2, rows, testing::kGB).ok());
  ASSERT_TRUE(f.AddDataset("OA", Schema({"k", "s"}), true).ok());
  ASSERT_TRUE(f.AddDataset("OB", Schema({"k", "s"}), true).ok());
  for (const auto& [id, in, out] :
       {std::tuple{"Ja", "A", "OA"}, std::tuple{"Jb", "B", "OB"}}) {
    WorkflowFactory::JobDef j;
    j.id = id;
    j.inputs = {In(in, {})};
    j.map_output_schema = schema;
    j.reduce_stages = {Stage::Reduce(
        AggReduce("sum", schema, {"k"}, {{"v", AggOp::kSum, "s"}}), {"k"})};
    j.output = out;
    ASSERT_TRUE(f.AddJob(std::move(j)).ok());
  }
  HorizontalPacking strict(false), extended(true);
  EXPECT_TRUE(strict.FindApplications(f.plan(), AllJobs(f.plan())).empty());
  auto apps = extended.FindApplications(f.plan(), AllJobs(f.plan()));
  ASSERT_EQ(apps.size(), 1u);
  auto packed = apps[0].apply(f.plan());
  ASSERT_TRUE(packed.ok());
  ProfileInPlace(&f);
  ExpectEquivalent(f, f.plan(), *packed);
}

TEST(HorizontalPackTest, ConflictingFixedReduceCountsBlock) {
  auto f = MakeSiblings();
  ASSERT_TRUE(f.ok());
  Plan plan = f->plan();
  (*plan.GetMutableJob("Ja"))->conditions.num_reduce_fixed = 3;
  (*plan.GetMutableJob("Jb"))->conditions.num_reduce_fixed = 5;
  HorizontalPacking packer(false);
  auto apps = packer.FindApplications(plan, AllJobs(plan));
  ASSERT_EQ(apps.size(), 1u);
  EXPECT_FALSE(apps[0].apply(plan).ok());
}

TEST(PartitionFnTest, RangeTransformSetsSplitsAndPrunes) {
  // Producer keyed by a field the consumers filter on.
  auto f = MakeSiblings();
  ASSERT_TRUE(f.ok());
  // Add filter annotations + filter semantics on G for Ja.
  Plan plan0 = f->plan();
  {
    auto ja = plan0.GetMutableJob("Ja");
    FilterAnnotation fa;
    fa.field = "G";
    fa.lo = 0;
    fa.hi = 50;
    (*ja)->branches[0].annotations.filter = fa;
  }
  f->plan() = plan0;
  ProfileInPlace(&*f);

  // Range-partition a producer job feeding Ja... here Ja itself is a
  // consumer of a base dataset, so exercise the job-level transform on Ja's
  // own shuffle instead.
  PartitionFunctionTransform transform;
  auto apps = transform.FindApplications(f->plan(), AllJobs(f->plan()));
  ASSERT_FALSE(apps.empty());
  bool applied_range = false;
  for (auto& app : apps) {
    if (app.description.find("range-partition Ja") == std::string::npos) {
      continue;
    }
    auto next = app.apply(f->plan());
    ASSERT_TRUE(next.ok()) << next.status();
    const JobVertex& ja = *(*next->GetJob("Ja"));
    EXPECT_EQ(ja.branches[0].partition.type, PartitionType::kRange);
    EXPECT_FALSE(ja.branches[0].partition.split_points.empty());
    ExpectEquivalent(*f, f->plan(), *next);
    applied_range = true;
    break;
  }
  EXPECT_TRUE(applied_range);
}

TEST(PartitionFnTest, FrozenPartitionBlocksRangeTransform) {
  auto f = MakeSiblings();
  ASSERT_TRUE(f.ok());
  ProfileInPlace(&*f);
  Plan plan = f->plan();
  (*plan.GetMutableJob("Ja"))->conditions.partition_frozen = true;
  (*plan.GetMutableJob("Jb"))->conditions.partition_frozen = true;
  PartitionFunctionTransform transform;
  for (auto& app : transform.FindApplications(plan, AllJobs(plan))) {
    EXPECT_EQ(app.description.find("range-partition"), std::string::npos)
        << app.description;
  }
}

TEST(PartitionFnTest, BasePruningAgainstAnnotatedRangeLayout) {
  // Base dataset range-partitioned on k; a consumer with a filter on k gets
  // its read pruned.
  ClusterSpec cluster;
  WorkflowFactory f(cluster);
  Schema schema({"k", "v"});
  std::vector<Row> rows;
  for (int i = 0; i < 1000; ++i) rows.push_back(Row{int64_t{i % 100}, 1.0});
  Layout layout;
  PartitionSpec spec;
  spec.type = PartitionType::kRange;
  spec.partition_fields = {"k"};
  spec.sort_fields = {"k"};
  std::vector<Row> splits;
  for (int s = 10; s < 100; s += 10) splits.push_back(Row{s});
  spec.split_points = std::move(splits);
  layout.partitioning = spec;
  ASSERT_TRUE(f.AddBase("IN", schema, layout, 10, rows, testing::kGB).ok());
  ASSERT_TRUE(f.AddDataset("OUT", Schema({"k", "s"}), true).ok());
  WorkflowFactory::JobDef j;
  j.id = "J";
  j.inputs = {In("IN", {Stage::Map(FilterRangeMap("f", schema, "k", 0, 30))})};
  j.map_output_schema = schema;
  j.reduce_stages = {Stage::Reduce(
      AggReduce("sum", schema, {"k"}, {{"v", AggOp::kSum, "s"}}), {"k"})};
  j.output = "OUT";
  FilterAnnotation fa;
  fa.field = "k";
  fa.lo = 0;
  fa.hi = 30;
  j.filter_ann = fa;
  ASSERT_TRUE(f.AddJob(std::move(j)).ok());
  ProfileInPlace(&f);

  PartitionFunctionTransform transform;
  bool pruned = false;
  for (auto& app :
       transform.FindApplications(f.plan(), AllJobs(f.plan()))) {
    if (app.description.find("prune") == std::string::npos) continue;
    auto next = app.apply(f.plan());
    ASSERT_TRUE(next.ok());
    const BranchInput& in = (*next->GetJob("J"))->branches[0].inputs[0];
    EXPECT_EQ(in.prune_partitions, (std::vector<int>{0, 1, 2}));
    EXPECT_NEAR(in.prune_fraction, 0.3, 0.01);
    ExpectEquivalent(f, f.plan(), *next);
    pruned = true;
  }
  EXPECT_TRUE(pruned);
}

TEST(PartitionFnTest, RevertRangeToHashUnpinsReduceCount) {
  auto f = MakeSiblings();
  ASSERT_TRUE(f.ok());
  ProfileInPlace(&*f);
  Plan plan = f->plan();
  auto ja = plan.GetMutableJob("Ja");
  (*ja)->branches[0].partition.type = PartitionType::kRange;
  (*ja)->branches[0].partition.partition_fields = {"G"};
  (*ja)->branches[0].partition.split_points = {Row{int64_t{50}}};
  ASSERT_TRUE(plan.Validate().ok());
  ASSERT_EQ((*plan.GetJob("Ja"))->EffectiveReduceTasks(), 2);

  PartitionFunctionTransform transform;
  bool reverted = false;
  for (auto& app : transform.FindApplications(plan, AllJobs(plan))) {
    if (app.description.find("hash-partition Ja") == std::string::npos) {
      continue;
    }
    auto next = app.apply(plan);
    ASSERT_TRUE(next.ok());
    EXPECT_EQ((*next->GetJob("Ja"))->branches[0].partition.type,
              PartitionType::kHash);
    reverted = true;
  }
  EXPECT_TRUE(reverted);
}

TEST(PlanSignatureTest, DistinguishesStructureIgnoresConfig) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  std::string sig = PlanSignature(f->plan());
  Plan reconfigured = f->plan();
  (*reconfigured.GetMutableJob("Jp"))->config.num_reduce_tasks = 77;
  EXPECT_EQ(PlanSignature(reconfigured), sig);
  Plan pruned = f->plan();
  (*pruned.GetMutableJob("Jc"))->branches[0].inputs[0].prune_partitions = {0};
  EXPECT_NE(PlanSignature(pruned), sig);
}

}  // namespace
}  // namespace stubby
