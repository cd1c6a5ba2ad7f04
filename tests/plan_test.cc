// Tests for workflow/: plan graph structure, validation, subgraph
// classification, and DOT export.

#include <gtest/gtest.h>

#include "test_workflows.h"
#include "workflow/dot.h"
#include "workflow/subgraph.h"

namespace stubby {
namespace {

using ::stubby::testing::MakeChain;
using ::stubby::testing::MakeSiblings;

TEST(PlanTest, GraphStructureQueries) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  const Plan& plan = f->plan();
  EXPECT_EQ(plan.num_jobs(), 2u);
  EXPECT_EQ(plan.ProducerOf("MID"), "Jp");
  EXPECT_EQ(plan.ProducerOf("IN"), "");
  EXPECT_EQ(plan.ConsumersOf("MID"), std::vector<std::string>{"Jc"});
  EXPECT_EQ(plan.UpstreamJobs("Jc"), std::vector<std::string>{"Jp"});
  EXPECT_EQ(plan.DownstreamJobs("Jp"), std::vector<std::string>{"Jc"});
  auto order = plan.TopologicalOrder();
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(*order, (std::vector<std::string>{"Jp", "Jc"}));
  EXPECT_TRUE(plan.HasPath("Jp", "Jc"));
  EXPECT_FALSE(plan.HasPath("Jc", "Jp"));
}

TEST(PlanTest, ValidatePassesOnWellFormedPlans) {
  auto chain = MakeChain();
  ASSERT_TRUE(chain.ok());
  EXPECT_TRUE(chain->plan().Validate().ok());
  auto siblings = MakeSiblings();
  ASSERT_TRUE(siblings.ok());
  EXPECT_TRUE(siblings->plan().Validate().ok());
}

TEST(PlanTest, ValidateRejectsUnknownInputDataset) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  Plan plan = f->plan();
  auto job = plan.GetMutableJob("Jc");
  (*job)->branches[0].inputs[0].dataset_id = "NOPE";
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(PlanTest, ValidateRejectsSchemaMismatch) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  Plan plan = f->plan();
  auto job = plan.GetMutableJob("Jc");
  (*job)->branches[0].map_output_schema = Schema({"bogus"});
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(PlanTest, ValidateRejectsGroupingNotPrefixOfSort) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  Plan plan = f->plan();
  auto job = plan.GetMutableJob("Jp");
  (*job)->branches[0].partition.sort_fields = {"Z", "K"};
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(PlanTest, ValidateRejectsGroupedMapStageOnUnalignedInput) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  Plan plan = f->plan();
  auto job = plan.GetMutableJob("Jc");
  Branch& b = (*job)->branches[0];
  // Move the reduce stage into the (unaligned) map pipeline.
  b.inputs[0].map_stages.push_back(b.reduce_stages[0]);
  b.map_output_schema = b.reduce_stages[0].output_schema();
  b.reduce_stages.clear();
  b.partition = PartitionSpec();
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(PlanTest, ValidateRejectsDoubleProducer) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  Plan plan = f->plan();
  auto jp = plan.GetJob("Jp");
  JobVertex dup = **jp;
  dup.id = "Jp2";
  dup.branches[0].tag = "Jp2";
  ASSERT_TRUE(plan.AddJob(dup).ok());
  EXPECT_FALSE(plan.Validate().ok());  // MID produced twice
}

TEST(PlanTest, ValidateRejectsWriteToBaseInput) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  Plan plan = f->plan();
  auto job = plan.GetMutableJob("Jp");
  (*job)->branches[0].output_dataset = "IN";
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(PlanTest, ValidateRejectsReduceJobPinnedBelowOneTask) {
  // The executor runs a reduce side on exactly the pinned count, so a
  // count below 1 must be rejected before it reaches the executor.
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  Plan plan = f->plan();
  auto job = plan.GetMutableJob("Jp");
  ASSERT_TRUE(job.ok());
  ASSERT_FALSE((*job)->map_only());
  for (int pinned : {0, -1}) {
    (*job)->conditions.num_reduce_fixed = pinned;
    EXPECT_FALSE(plan.Validate().ok()) << "num_reduce_fixed=" << pinned;
  }
  (*job)->conditions.num_reduce_fixed = 1;
  EXPECT_TRUE(plan.Validate().ok());
}

TEST(PlanTest, RemoveOrphanDatasetsKeepsBaseAndOutputs) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  Plan plan = f->plan();
  plan.RemoveJob("Jc");
  plan.RemoveJob("Jp");
  plan.RemoveOrphanDatasets();
  EXPECT_TRUE(plan.HasDataset("IN"));    // base input survives
  EXPECT_TRUE(plan.HasDataset("OUT"));   // workflow output survives
  EXPECT_FALSE(plan.HasDataset("MID"));  // intermediate dropped
}

TEST(PlanTest, EffectiveReduceTasksHonorsConditionsAndRange) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  Plan plan = f->plan();
  auto job = plan.GetMutableJob("Jp");
  (*job)->config.num_reduce_tasks = 12;
  EXPECT_EQ((*job)->EffectiveReduceTasks(), 12);
  (*job)->conditions.num_reduce_fixed = 5;
  EXPECT_EQ((*job)->EffectiveReduceTasks(), 5);
  (*job)->conditions.num_reduce_fixed.reset();
  (*job)->branches[0].partition.type = PartitionType::kRange;
  (*job)->branches[0].partition.split_points = {Row{int64_t{1}},
                                                Row{int64_t{2}}};
  EXPECT_EQ((*job)->EffectiveReduceTasks(), 3);
}

/// The ToString line describing job `jid` (its "  <jid> ... cfg{...}" row).
std::string JobLine(const Plan& plan, const std::string& jid) {
  const std::string text = plan.ToString();
  const size_t at = text.find("\n  " + jid + " ");
  if (at == std::string::npos) return "";
  const size_t begin = at + 1;
  return text.substr(begin, text.find('\n', begin) - begin);
}

TEST(PlanTest, ToStringShowsEffectiveReduceTasksOfRangePartitionedJob) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  Plan plan = f->plan();
  auto job = plan.GetMutableJob("Jp");
  ASSERT_TRUE(job.ok());
  (*job)->config.num_reduce_tasks = 1;
  EXPECT_EQ(JobLine(plan, "Jp").find("effective_reduce_tasks"),
            std::string::npos)
      << JobLine(plan, "Jp");
  // Split points fix the count at splits + 1, whatever the config says.
  (*job)->branches[0].partition.type = PartitionType::kRange;
  (*job)->branches[0].partition.split_points = {Row{int64_t{1}},
                                                Row{int64_t{2}}};
  const std::string line = JobLine(plan, "Jp");
  EXPECT_NE(line.find("reduce_tasks=1,"), std::string::npos) << line;
  EXPECT_NE(line.find("effective_reduce_tasks=3"), std::string::npos) << line;
}

TEST(PlanTest, ToStringShowsPinnedReduceTaskCount) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  Plan plan = f->plan();
  auto job = plan.GetMutableJob("Jp");
  ASSERT_TRUE(job.ok());
  (*job)->config.num_reduce_tasks = 12;
  (*job)->conditions.num_reduce_fixed = 5;
  std::string line = JobLine(plan, "Jp");
  EXPECT_NE(line.find("reduce_tasks=12,"), std::string::npos) << line;
  EXPECT_NE(line.find("effective_reduce_tasks=5"), std::string::npos) << line;
  // A config that already matches the pinned count prints no override.
  (*job)->config.num_reduce_tasks = 5;
  line = JobLine(plan, "Jp");
  EXPECT_EQ(line.find("effective_reduce_tasks"), std::string::npos) << line;
}

TEST(SubgraphTest, ClassifiesChainAndSiblings) {
  auto chain = MakeChain();
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(ClassifyConsumer(chain->plan(), "Jp"), SubgraphType::kNoneToOne);
  EXPECT_EQ(ClassifyConsumer(chain->plan(), "Jc"), SubgraphType::kOneToOne);
  EXPECT_EQ(ClassifyProducer(chain->plan(), "Jp"), SubgraphType::kOneToOne);
  EXPECT_EQ(ClassifyProducer(chain->plan(), "Jc"), SubgraphType::kOneToNone);
  EXPECT_TRUE(IsOneToOne(chain->plan(), "Jp", "Jc"));
  EXPECT_FALSE(IsOneToOne(chain->plan(), "Jc", "Jp"));

  auto siblings = MakeSiblings();
  ASSERT_TRUE(siblings.ok());
  EXPECT_TRUE(ConcurrentlyRunnable(siblings->plan(), "Ja", "Jb"));
  EXPECT_FALSE(ConcurrentlyRunnable(chain->plan(), "Jp", "Jc"));
  EXPECT_EQ(SharedInputs(siblings->plan(), "Ja", "Jb"),
            std::vector<std::string>{"IN"});
}

TEST(DotTest, ExportMentionsAllVertices) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  std::string dot = PlanToDot(f->plan());
  for (const char* name : {"Jp", "Jc", "IN", "MID", "OUT", "digraph"}) {
    EXPECT_NE(dot.find(name), std::string::npos) << name;
  }
}

TEST(GroupBranchInputsTest, SharedScansGroupTogether) {
  auto f = MakeSiblings();
  ASSERT_TRUE(f.ok());
  // Horizontally pack manually: one job, two branches reading IN.
  JobVertex packed;
  packed.id = "packed";
  packed.branches = {(*f->plan().GetJob("Ja"))->branches[0],
                     (*f->plan().GetJob("Jb"))->branches[0]};
  std::vector<InputGroup> groups = GroupBranchInputs(packed);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].subscribers.size(), 2u);

  // Different prune lists must split the scan.
  packed.branches[1].inputs[0].prune_partitions = {0};
  groups = GroupBranchInputs(packed);
  EXPECT_EQ(groups.size(), 2u);
}

}  // namespace
}  // namespace stubby
