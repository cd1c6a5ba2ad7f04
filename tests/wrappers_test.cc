// Tests for exec/wrappers: pipeline execution, streaming group-by, tee
// side-outputs, the combiner runner and the task side of the shuffle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
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
  std::vector<ShuffleRange> ranges = {ShuffleRange{0, 0, 3, 0, 3}};
  std::vector<Row> out = RunCombiner(*combiner, sorted, {0}, &ranges);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0][1].AsDouble(), 5.0);
  EXPECT_DOUBLE_EQ(out[1][1].AsDouble(), 4.0);
  EXPECT_EQ(ranges[0].begin, 0u);
  EXPECT_EQ(ranges[0].end, 2u);
}

TEST(RunCombinerTest, NonAlgebraicOpsPassThrough) {
  Schema in({"k", "v"});
  auto combiner =
      AggCombine("c", in, {"k"}, {{"v", AggOp::kCount, "v"}});
  std::vector<Row> sorted = {Row{int64_t{1}, 2.0}, Row{int64_t{1}, 3.0}};
  std::vector<ShuffleRange> ranges = {ShuffleRange{0, 0, 2, 0, 2}};
  std::vector<Row> out = RunCombiner(*combiner, sorted, {0}, &ranges);
  EXPECT_EQ(out.size(), 2u);  // count is not combinable in-place
}

TEST(RunCombinerTest, RunsNeverSpanTwoRanges) {
  // Equal keys on both sides of a range boundary combine separately.
  Schema in({"k", "v"});
  auto combiner =
      AggCombine("c", in, {"k"}, {{"v", AggOp::kSum, "v"}});
  std::vector<Row> sorted = {Row{int64_t{1}, 2.0}, Row{int64_t{1}, 3.0},
                             Row{int64_t{1}, 4.0}, Row{int64_t{1}, 5.0}};
  std::vector<ShuffleRange> ranges = {ShuffleRange{0, 0, 1, 0, 1},
                                      ShuffleRange{2, 1, 4, 0, 3}};
  std::vector<Row> out = RunCombiner(*combiner, sorted, {0}, &ranges);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0][1].AsDouble(), 2.0);
  EXPECT_DOUBLE_EQ(out[1][1].AsDouble(), 12.0);
  EXPECT_EQ(ranges[1].begin, 1u);
  EXPECT_EQ(ranges[1].end, 2u);
}

// ---------------------------------------------------------------------------
// The shuffle's oracle: the per-bucket algorithm map tasks ran before each
// kept one buffer, copied here. Rows are bucketed by PartitionOf in emission
// order, each bucket is stable-sorted on the sort fields, and each bucket is
// combined on its own clone of the combiner.
// ---------------------------------------------------------------------------

struct OracleBucket {
  int partition = 0;
  uint64_t sorted_bytes = 0;
  uint64_t pre_records = 0;
  std::vector<Row> rows;
};

std::vector<Row> OracleRunCombiner(const CombineFn& fn,
                                   std::vector<Row> sorted_rows,
                                   const std::vector<size_t>& group_indices) {
  VectorEmitter out;
  std::shared_ptr<CombineFn> instance = fn.Clone();
  std::vector<Row> group;
  size_t i = 0;
  while (i < sorted_rows.size()) {
    size_t j = i + 1;
    while (j < sorted_rows.size() &&
           EqualOnFields(sorted_rows[i], sorted_rows[j], group_indices)) {
      ++j;
    }
    Row key = sorted_rows[i].Project(group_indices);
    group.assign(std::make_move_iterator(sorted_rows.begin() + i),
                 std::make_move_iterator(sorted_rows.begin() + j));
    instance->Combine(key, group, &out);
    i = j;
  }
  return std::move(out.rows());
}

std::vector<OracleBucket> OracleShuffle(
    std::vector<Row> rows, const Partitioner& partitioner, int R,
    const CombineFn* combiner, const std::vector<size_t>& group_indices) {
  std::vector<std::vector<Row>> buckets(static_cast<size_t>(R));
  for (Row& row : rows) {
    int r = partitioner.PartitionOf(row, R);
    buckets[static_cast<size_t>(r)].push_back(std::move(row));
  }
  std::vector<OracleBucket> out;
  for (size_t r = 0; r < buckets.size(); ++r) {
    std::vector<Row>& bucket = buckets[r];
    if (bucket.empty()) continue;
    StableSortOnFields(&bucket, partitioner.sort_indices());
    OracleBucket ob;
    ob.partition = static_cast<int>(r);
    for (const Row& row : bucket) ob.sorted_bytes += row.SerializedSize();
    ob.pre_records = bucket.size();
    if (combiner != nullptr) {
      bucket = OracleRunCombiner(*combiner, std::move(bucket), group_indices);
    }
    ob.rows = std::move(bucket);
    out.push_back(std::move(ob));
  }
  return out;
}

/// A row's exact content: each value's kind and bits, so -0.0 and 0.0, or
/// 1 and 1.0, differ.
std::string RowBits(const Row& row) {
  std::string bits;
  for (const Value& v : row.values()) {
    if (v.is_string()) {
      bits += "s" + v.AsString() + "|";
    } else if (v.is_int()) {
      bits += "i" + std::to_string(v.AsInt()) + "|";
    } else {
      uint64_t u = 0;
      const double d = v.AsDouble();
      std::memcpy(&u, &d, sizeof(u));
      bits += "d" + std::to_string(u) + "|";
    }
  }
  return bits;
}

/// A map output row keyed on column 0: an int, a double (-0.0 beside 0.0,
/// 1.0 beside the int 1) or, with `strings`, a string key from a small
/// domain, so keys tie. Column 1 is the summed value; column 2 the row's
/// emission position. A wide row carries three more values (six in all,
/// past Row::kInline).
Row RandomShuffleRow(Rng* rng, bool strings, bool wide, int64_t position) {
  static const double kDoubles[] = {-0.0, 0.0, 1.0, 2.5, 7.0};
  static const char* const kStrings[] = {"", "a", "ab", "b", "ba"};
  Value key;
  switch (rng->NextUint64(strings ? 3 : 2)) {
    case 0:
      key = Value(rng->NextInt(0, 9));
      break;
    case 1:
      key = Value(kDoubles[rng->NextUint64(std::size(kDoubles))]);
      break;
    default:
      key = Value(kStrings[rng->NextUint64(std::size(kStrings))]);
  }
  std::vector<Value> values = {key, Value(rng->NextDouble(0, 100)),
                               Value(position)};
  if (wide) {
    values.emplace_back(rng->NextInt(0, 3));
    values.emplace_back(std::string("pad"));
    values.emplace_back(-0.0);
  }
  return Row(std::move(values));
}

TEST(ShuffleMapOutputTest, MatchesThePerBucketShuffle) {
  const Schema schema({"k", "v", "pos", "w1", "w2", "w3"});
  const std::vector<size_t> group = {0};
  const auto sum = AggCombine("sum", schema, {"k"}, {{"v", AggOp::kSum, "v"}});
  const auto count =
      AggCombine("count", schema, {"k"}, {{"v", AggOp::kCount, "v"}});
  const CombineFn* combiners[] = {nullptr, sum.get(), count.get()};
  Rng rng(2024);
  int compared = 0;
  for (int R : {1, 3, 16, 204}) {
    for (PartitionType type : {PartitionType::kHash, PartitionType::kRange}) {
      PartitionSpec spec = PartitionSpec::DefaultFor({"k"});
      spec.type = type;
      if (type == PartitionType::kRange) {
        // R - 1 split points drawn from the key domain, so keys equal to a
        // split point occur: ints 0.., with -0.0, 2.5 and a string among
        // the first ones.
        std::vector<Row> splits;
        static const Value kFirst[] = {Value(-0.0), Value(int64_t{1}),
                                       Value(2.5), Value("a")};
        for (int i = 0; i + 1 < R; ++i) {
          splits.push_back(i < static_cast<int>(std::size(kFirst))
                               ? Row{kFirst[i]}
                               : Row{Value("z" + std::to_string(i))});
        }
        std::sort(splits.begin(), splits.end());
        spec.split_points = std::move(splits);
      }
      auto partitioner = Partitioner::Make(spec, schema, R);
      ASSERT_TRUE(partitioner.ok()) << partitioner.status().ToString();
      for (const CombineFn* combiner : combiners) {
        for (int round = 0; round < 8; ++round) {
          // Round 0 is the empty task; then sizes up to 400 rows, with
          // string keys in odd rounds and wide rows from round 4 on.
          const size_t n =
              round == 0 ? 0 : 1 + static_cast<size_t>(rng.NextUint64(400));
          std::vector<Row> rows;
          for (size_t i = 0; i < n; ++i) {
            rows.push_back(RandomShuffleRow(&rng, round % 2 == 1,
                                            round >= 4 && rng.NextUint64(2),
                                            static_cast<int64_t>(i)));
          }
          const std::vector<OracleBucket> expected =
              OracleShuffle(rows, *partitioner, R, combiner, group);
          const ShuffledRows got =
              ShuffleMapOutput(rows, *partitioner, R, combiner, group);
          const std::string where =
              "R=" + std::to_string(R) + " type=" +
              PartitionTypeName(type) + " combiner=" +
              (combiner == nullptr ? "none" : combiner->name()) +
              " round=" + std::to_string(round);
          ASSERT_EQ(got.ranges.size(), expected.size()) << where;
          uint64_t bytes = 0;
          size_t next = 0;
          for (size_t i = 0; i < expected.size(); ++i) {
            const ShuffleRange& range = got.ranges[i];
            const OracleBucket& bucket = expected[i];
            ASSERT_EQ(range.partition, bucket.partition) << where;
            ASSERT_EQ(range.sorted_bytes, bucket.sorted_bytes) << where;
            ASSERT_EQ(range.pre_records, bucket.pre_records) << where;
            // Ranges tile the buffer in order.
            ASSERT_EQ(range.begin, next) << where;
            ASSERT_EQ(range.end - range.begin, bucket.rows.size()) << where;
            for (size_t j = 0; j < bucket.rows.size(); ++j) {
              ASSERT_EQ(RowBits(got.rows[range.begin + j]),
                        RowBits(bucket.rows[j]))
                  << where << " partition " << bucket.partition << " row "
                  << j;
            }
            next = range.end;
            bytes += bucket.sorted_bytes;
          }
          ASSERT_EQ(next, got.rows.size()) << where;
          ASSERT_EQ(got.bytes, bytes) << where;
          ++compared;
        }
      }
    }
  }
  EXPECT_EQ(compared, 4 * 2 * 3 * 8);
}

}  // namespace
}  // namespace stubby
