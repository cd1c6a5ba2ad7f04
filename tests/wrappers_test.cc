// Tests for exec/wrappers: pipeline execution, streaming group-by, tee
// side-outputs, and the combiner runner.

#include <gtest/gtest.h>

#include "exec/wrappers.h"
#include "workloads/udfs.h"

namespace stubby {
namespace {

class CollectTee : public TeeSink {
 public:
  void TeeEmit(const std::string& id, const Row& row) override {
    rows[id].push_back(row);
  }
  std::map<std::string, std::vector<Row>> rows;
};

TEST(PipelineRunnerTest, EmptyPipelinePassesThrough) {
  VectorEmitter out;
  auto runner = PipelineRunner::Make({}, Schema({"a"}), &out, nullptr);
  ASSERT_TRUE(runner.ok());
  (*runner)->Emit(Row{int64_t{1}});
  (*runner)->Finish();
  ASSERT_EQ(out.rows().size(), 1u);
}

TEST(PipelineRunnerTest, CountsEachStageWhenAsked) {
  // A filter then a grouped count: each stage counts the records and bytes
  // it takes and emits, and the grouped stage the groups it flushes.
  Schema in({"k", "x"});
  std::vector<Stage> stages = {
      Stage::Map(FilterRangeMap("f", in, "x", 0, 10)),
      Stage::Reduce(AggReduce("count", in, {"k"}, {{"x", AggOp::kCount, "c"}}),
                    {"k"})};
  std::vector<Row> rows = {Row{int64_t{1}, int64_t{5}},
                           Row{int64_t{1}, int64_t{50}},
                           Row{int64_t{1}, int64_t{7}},
                           Row{int64_t{2}, int64_t{3}}};
  std::vector<StageCounts> counts = {StageCounts{}};  // reset by Make
  VectorEmitter out;
  auto runner = PipelineRunner::Make(stages, in, &out, nullptr, &counts);
  ASSERT_TRUE(runner.ok());
  for (const Row& r : rows) (*runner)->Emit(r);
  (*runner)->Finish();
  ASSERT_EQ(counts.size(), 2u);
  ASSERT_EQ(out.rows().size(), 2u);

  auto bytes = [](const std::vector<Row>& rs) {
    uint64_t b = 0;
    for (const Row& r : rs) b += r.SerializedSize();
    return b;
  };
  std::vector<Row> kept = {rows[0], rows[2], rows[3]};
  EXPECT_EQ(counts[0].records_in, 4u);
  EXPECT_EQ(counts[0].bytes_in, bytes(rows));
  EXPECT_EQ(counts[0].records_out, 3u);
  EXPECT_EQ(counts[0].bytes_out, bytes(kept));
  EXPECT_EQ(counts[0].groups, 0u);
  EXPECT_EQ(counts[1].records_in, 3u);
  EXPECT_EQ(counts[1].bytes_in, bytes(kept));
  EXPECT_EQ(counts[1].records_out, 2u);
  EXPECT_EQ(counts[1].bytes_out, bytes(out.rows()));
  EXPECT_EQ(counts[1].groups, 2u);
}

TEST(PipelineRunnerTest, MapStageTransformsRows) {
  Schema in({"a", "b"});
  std::vector<Stage> stages = {Stage::Map(ProjectMap("proj", in, {"b"}))};
  VectorEmitter out;
  auto runner = PipelineRunner::Make(stages, in, &out, nullptr);
  ASSERT_TRUE(runner.ok());
  (*runner)->Emit(Row{int64_t{1}, int64_t{2}});
  (*runner)->Finish();
  ASSERT_EQ(out.rows().size(), 1u);
  EXPECT_EQ(out.rows()[0], (Row{int64_t{2}}));
}

TEST(PipelineRunnerTest, GroupedStageFlushesOnKeyChange) {
  Schema in({"k", "v"});
  std::vector<Stage> stages = {Stage::Reduce(
      AggReduce("sum", in, {"k"}, {{"v", AggOp::kSum, "s"}}), {"k"})};
  VectorEmitter out;
  auto runner = PipelineRunner::Make(stages, in, &out, nullptr);
  ASSERT_TRUE(runner.ok());
  // Clustered stream: k=1,1,2 — two groups.
  (*runner)->Emit(Row{int64_t{1}, int64_t{10}});
  (*runner)->Emit(Row{int64_t{1}, int64_t{5}});
  (*runner)->Emit(Row{int64_t{2}, int64_t{7}});
  (*runner)->Finish();
  ASSERT_EQ(out.rows().size(), 2u);
  EXPECT_EQ(out.rows()[0][0].AsInt(), 1);
  EXPECT_DOUBLE_EQ(out.rows()[0][1].AsDouble(), 15.0);
  EXPECT_DOUBLE_EQ(out.rows()[1][1].AsDouble(), 7.0);
}

TEST(PipelineRunnerTest, ChainedMapReduceMapWorks) {
  Schema in({"k", "v"});
  Schema mid({"k", "s"});
  auto to_double = std::make_shared<LambdaMapFn>(
      "double", mid, mid, [](const Row& r, Emitter* out) {
        out->Emit(Row{r[0], r[1].AsDouble() * 2});
      });
  std::vector<Stage> stages = {
      Stage::Reduce(AggReduce("sum", in, {"k"}, {{"v", AggOp::kSum, "s"}}),
                    {"k"}),
      Stage::Map(to_double),
  };
  VectorEmitter out;
  auto runner = PipelineRunner::Make(stages, in, &out, nullptr);
  ASSERT_TRUE(runner.ok());
  (*runner)->Emit(Row{int64_t{1}, int64_t{3}});
  (*runner)->Emit(Row{int64_t{1}, int64_t{4}});
  (*runner)->Finish();
  ASSERT_EQ(out.rows().size(), 1u);
  EXPECT_DOUBLE_EQ(out.rows()[0][1].AsDouble(), 14.0);
}

TEST(PipelineRunnerTest, GroupFieldMissingFails) {
  Schema in({"k", "v"});
  std::vector<Stage> stages = {Stage::Reduce(
      AggReduce("sum", in, {"k"}, {{"v", AggOp::kSum, "s"}}), {"zzz"})};
  VectorEmitter out;
  EXPECT_FALSE(PipelineRunner::Make(stages, in, &out, nullptr).ok());
}

TEST(PipelineRunnerTest, TeeMaterializesIntermediateRows) {
  Schema in({"a", "b"});
  Stage project = Stage::Map(ProjectMap("proj", in, {"b"}));
  project.tee_dataset = "side";
  Schema projected({"b"});
  auto inc = std::make_shared<LambdaMapFn>(
      "inc", projected, projected, [](const Row& r, Emitter* out) {
        out->Emit(Row{r[0].AsInt() + 1});
      });
  std::vector<Stage> stages = {project, Stage::Map(inc)};
  VectorEmitter out;
  CollectTee tee;
  auto runner = PipelineRunner::Make(stages, in, &out, &tee);
  ASSERT_TRUE(runner.ok());
  (*runner)->Emit(Row{int64_t{1}, int64_t{10}});
  (*runner)->Finish();
  ASSERT_EQ(out.rows().size(), 1u);
  EXPECT_EQ(out.rows()[0][0].AsInt(), 11);  // final got the increment
  ASSERT_EQ(tee.rows["side"].size(), 1u);
  EXPECT_EQ(tee.rows["side"][0][0].AsInt(), 10);  // tee saw the raw value
}

TEST(PipelineRunnerTest, CpuUnitsAccumulatePerStage) {
  Schema in({"a"});
  auto pass = std::make_shared<LambdaMapFn>(
      "pass", in, in, [](const Row& r, Emitter* out) { out->Emit(r); },
      /*cpu_weight=*/2.0);
  std::vector<Stage> stages = {Stage::Map(pass), Stage::Map(pass)};
  VectorEmitter out;
  auto runner = PipelineRunner::Make(stages, in, &out, nullptr);
  ASSERT_TRUE(runner.ok());
  for (int i = 0; i < 5; ++i) (*runner)->Emit(Row{int64_t{i}});
  (*runner)->Finish();
  EXPECT_DOUBLE_EQ((*runner)->cpu_units(), 5 * 2.0 + 5 * 2.0);
}

TEST(RunCombinerTest, CombinesSortedRuns) {
  Schema in({"k", "v"});
  auto combiner =
      AggCombine("c", in, {"k"}, {{"v", AggOp::kSum, "v"}});
  std::vector<Row> sorted = {
      Row{int64_t{1}, 2.0}, Row{int64_t{1}, 3.0}, Row{int64_t{2}, 4.0}};
  double cpu = 0;
  std::vector<Row> out = RunCombiner(*combiner, sorted, {0}, &cpu);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0][1].AsDouble(), 5.0);
  EXPECT_DOUBLE_EQ(out[1][1].AsDouble(), 4.0);
  EXPECT_GT(cpu, 0.0);
}

TEST(RunCombinerTest, NonAlgebraicOpsPassThrough) {
  Schema in({"k", "v"});
  auto combiner =
      AggCombine("c", in, {"k"}, {{"v", AggOp::kCount, "v"}});
  std::vector<Row> sorted = {Row{int64_t{1}, 2.0}, Row{int64_t{1}, 3.0}};
  double cpu = 0;
  std::vector<Row> out = RunCombiner(*combiner, sorted, {0}, &cpu);
  EXPECT_EQ(out.size(), 2u);  // count is not combinable in-place
}

}  // namespace
}  // namespace stubby
