// Tests for mr/: Value, Row, Schema, JobConfig/ConfigSpace, Partitioner.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "mr/job_config.h"
#include "mr/partitioner.h"
#include "mr/schema.h"
#include "mr/tuple.h"
#include "mr/value.h"

namespace stubby {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value(int64_t{3}).is_int());
  EXPECT_TRUE(Value(2.5).is_double());
  EXPECT_TRUE(Value("hi").is_string());
  EXPECT_EQ(Value(int64_t{3}).AsInt(), 3);
  EXPECT_DOUBLE_EQ(Value(int64_t{3}).AsDouble(), 3.0);
  EXPECT_EQ(Value("hi").AsString(), "hi");
}

TEST(ValueTest, OrderingIsTotalAcrossTypes) {
  EXPECT_LT(Value(int64_t{1}), Value(int64_t{2}));
  EXPECT_LT(Value(1.5), Value(int64_t{2}));
  EXPECT_LT(Value(int64_t{5}), Value("a"));  // numerics before strings
  EXPECT_LT(Value("a"), Value("b"));
}

TEST(ValueTest, NumericEqualityAcrossIntAndDouble) {
  EXPECT_EQ(Value(int64_t{7}), Value(7.0));
  EXPECT_EQ(Value(int64_t{7}).Hash(), Value(7.0).Hash());
  EXPECT_NE(Value(int64_t{7}), Value(7.5));
}

TEST(ValueTest, SerializedSize) {
  EXPECT_EQ(Value(int64_t{1}).SerializedSize(), 8u);
  EXPECT_EQ(Value(1.0).SerializedSize(), 8u);
  EXPECT_EQ(Value("abcd").SerializedSize(), 8u);  // 4 prefix + 4 bytes
}

TEST(ValueTest, CopiesOwnTheirStringsAndMovesLeaveIntZero) {
  // Empty, 15 characters (libstdc++'s small-string limit) and 40.
  for (const std::string& text :
       {std::string(), std::string(15, 'q'), std::string(40, 'z')}) {
    Value a(text);
    Value b(a);
    EXPECT_EQ(b.AsString(), text);
    EXPECT_NE(&b.AsString(), &a.AsString());  // deep copy

    const std::string* chars = &a.AsString();
    Value c(std::move(a));
    EXPECT_EQ(&c.AsString(), chars);  // the string moves with its block
    ASSERT_TRUE(a.is_int());          // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(a.AsInt(), 0);

    // Assignment between every pair of kinds.
    Value d(1.5);
    d = c;
    EXPECT_EQ(d.AsString(), text);
    EXPECT_NE(&d.AsString(), &c.AsString());
    d = b;  // string over string
    EXPECT_EQ(d.AsString(), text);
    d = Value(int64_t{3});
    EXPECT_EQ(d.AsInt(), 3);
    d = std::move(c);
    EXPECT_EQ(&d.AsString(), chars);
    ASSERT_TRUE(c.is_int());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(c.AsInt(), 0);
    c = std::move(b);  // a moved-from value is reusable
    EXPECT_EQ(c.AsString(), text);
    d = 2.5;
    EXPECT_EQ(d.AsDouble(), 2.5);

    // Self-assignment keeps the value.
    Value& alias = c;
    c = alias;
    EXPECT_EQ(c.AsString(), text);
    c = std::move(alias);
    EXPECT_EQ(c.AsString(), text);
  }
  Value number(2.5);
  Value taken(std::move(number));
  EXPECT_EQ(taken.AsDouble(), 2.5);
  ASSERT_TRUE(number.is_int());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(number.AsInt(), 0);
}

TEST(ValueDeathTest, WrongKindAccessorEndsTheProcess) {
  EXPECT_DEATH((void)Value(1.5).AsInt(), "AsInt called on a double");
  EXPECT_DEATH((void)Value("7").AsInt(), "AsInt called on a string");
  EXPECT_DEATH((void)Value("7").AsDouble(), "AsDouble called on a string");
  EXPECT_DEATH((void)Value(int64_t{7}).AsString(),
               "AsString called on a int");
  EXPECT_DEATH((void)Value(7.0).AsString(), "AsString called on a double");
}

TEST(RowTest, ProjectAndCompare) {
  Row r{int64_t{1}, "x", 2.5};
  Row p = r.Project({2, 0});
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0], Value(2.5));
  EXPECT_EQ(p[1], Value(int64_t{1}));

  Row a{int64_t{1}, int64_t{5}};
  Row b{int64_t{1}, int64_t{9}};
  EXPECT_EQ(CompareOnFields(a, b, {0}), 0);
  EXPECT_LT(CompareOnFields(a, b, {0, 1}), 0);
  EXPECT_TRUE(EqualOnFields(a, b, {0}));
  EXPECT_FALSE(EqualOnFields(a, b, {1}));
}

/// `n` values cycling through every kind: ints, doubles and strings of
/// 0, 15 and 40 characters. `salt` varies the contents.
std::vector<Value> MixedValues(size_t n, int salt) {
  std::vector<Value> out;
  for (size_t i = 0; i < n; ++i) {
    const int64_t k = static_cast<int64_t>(i) + salt;
    switch (k % 5) {
      case 0: out.emplace_back(k * 7); break;
      case 1: out.emplace_back(0.5 * static_cast<double>(k)); break;
      case 2: out.emplace_back(std::string()); break;
      case 3:
        out.emplace_back(std::string(15, static_cast<char>('a' + k % 26)));
        break;
      default:
        out.emplace_back(std::string(40, 'z') + std::to_string(k));
        break;
    }
  }
  return out;
}

/// Checks every reader of `row` against the same reader computed from
/// `ref`, the plain vector of values the row should hold.
void ExpectRowIs(const Row& row, const std::vector<Value>& ref) {
  ASSERT_EQ(row.size(), ref.size());
  EXPECT_EQ(row.empty(), ref.empty());
  const std::span<const Value> values = row.values();
  ASSERT_EQ(values.size(), ref.size());
  uint64_t bytes = 4;  // per-row framing
  uint64_t hash = 0xcbf29ce484222325ULL;
  std::string text = "(";
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(&values[i], &row[i]);
    EXPECT_EQ(row[i].is_int(), ref[i].is_int()) << i;
    EXPECT_EQ(row[i].is_string(), ref[i].is_string()) << i;
    EXPECT_EQ(row[i], ref[i]) << i;
    bytes += ref[i].SerializedSize();
    hash = HashCombine(hash, ref[i].Hash());
    if (i > 0) text += ", ";
    text += ref[i].ToString();
  }
  EXPECT_EQ(row.SerializedSize(), bytes);
  EXPECT_EQ(row.Hash(), hash);
  EXPECT_EQ(row.ToString(), text + ")");
}

TEST(RowTest, EveryWidthAgreesWithAVectorOfValues) {
  std::vector<std::vector<Value>> refs;
  std::vector<Row> rows;
  for (size_t n = 0; n <= 7; ++n) {
    for (int salt : {0, 3}) {
      const std::vector<Value> ref = MixedValues(n, salt);
      const Row built(ref);
      Row appended;
      for (const Value& v : ref) appended.Append(v);
      ExpectRowIs(built, ref);
      ExpectRowIs(appended, ref);
      EXPECT_EQ(built, appended);
      refs.push_back(ref);
      rows.push_back(built);
    }
  }
  // == and < over every pair read as the vectors of values read.
  for (size_t a = 0; a < rows.size(); ++a) {
    for (size_t b = 0; b < rows.size(); ++b) {
      const bool equal = refs[a].size() == refs[b].size() &&
                         std::equal(refs[a].begin(), refs[a].end(),
                                    refs[b].begin());
      const bool less = std::lexicographical_compare(
          refs[a].begin(), refs[a].end(), refs[b].begin(), refs[b].end());
      EXPECT_EQ(rows[a] == rows[b], equal) << a << " " << b;
      EXPECT_EQ(rows[a] < rows[b], less) << a << " " << b;
    }
  }
}

TEST(RowTest, CopyAndMoveInEveryDirection) {
  // Widths 0, 1 and 4 are inline, 5 and 7 spilled.
  const std::vector<size_t> widths = {0, 1, 4, 5, 7};
  for (size_t from : widths) {
    const std::vector<Value> src_ref = MixedValues(from, 1);
    const Row src(src_ref);
    {
      Row copy(src);
      ExpectRowIs(copy, src_ref);
      ExpectRowIs(src, src_ref);
      for (size_t i = 0; i < from; ++i) {
        if (src[i].is_string()) {
          EXPECT_NE(&copy[i].AsString(), &src[i].AsString());
        }
      }
      std::vector<const std::string*> chars;
      for (size_t i = 0; i < from; ++i) {
        chars.push_back(copy[i].is_string() ? &copy[i].AsString() : nullptr);
      }
      Row moved(std::move(copy));
      ExpectRowIs(moved, src_ref);
      EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
      for (size_t i = 0; i < from; ++i) {
        if (chars[i] != nullptr) {
          EXPECT_EQ(&moved[i].AsString(), chars[i]);
        }
      }
      // A moved-from row is reusable, past the inline values too.
      const std::vector<Value> again = MixedValues(6, 2);
      for (const Value& v : again) copy.Append(v);
      ExpectRowIs(copy, again);
    }
    for (size_t to : widths) {
      const std::vector<Value> dst_ref = MixedValues(to, 4);
      Row copied(dst_ref);
      copied = src;
      ExpectRowIs(copied, src_ref);
      ExpectRowIs(src, src_ref);
      Row moved(dst_ref);
      Row donor(src);
      moved = std::move(donor);
      ExpectRowIs(moved, src_ref);
      EXPECT_TRUE(donor.empty());  // NOLINT(bugprone-use-after-move)
      donor = Row(dst_ref);
      ExpectRowIs(donor, dst_ref);
    }
    Row self(src_ref);
    Row& alias = self;
    self = alias;
    ExpectRowIs(self, src_ref);
    self = std::move(alias);
    ExpectRowIs(self, src_ref);
  }
}

TEST(RowTest, AppendPastInlineAndProjectBothWays) {
  Row row;
  std::vector<Value> ref;
  for (const Value& v : MixedValues(9, 2)) {
    row.Append(v);
    ref.push_back(v);
    ExpectRowIs(row, ref);
  }
  // Narrower: a spilled row projected to two values.
  ExpectRowIs(row.Project({6, 0}), {ref[6], ref[0]});
  // Wider: an inline row projected to six values, repeats included.
  const Row narrow = row.Project({1, 2, 3});
  ExpectRowIs(narrow.Project({0, 1, 2, 2, 1, 0}),
              {ref[1], ref[2], ref[3], ref[3], ref[2], ref[1]});
  ExpectRowIs(narrow.Project({}), {});
}

TEST(RowTest, LexicographicOrdering) {
  EXPECT_LT((Row{int64_t{1}, int64_t{2}}), (Row{int64_t{1}, int64_t{3}}));
  EXPECT_LT((Row{int64_t{1}}), (Row{int64_t{1}, int64_t{0}}));
}

TEST(RowTest, ApproxEquality) {
  Row a{int64_t{1}, 100.0};
  Row b{int64_t{1}, 100.0 + 1e-12};
  Row c{int64_t{1}, 100.1};
  EXPECT_TRUE(RowApproxEqual(a, b));
  EXPECT_FALSE(RowApproxEqual(a, c));
  EXPECT_TRUE(RowsApproxEqual({a, c}, {c, b}, 1e-9));
  EXPECT_FALSE(RowsApproxEqual({a}, {a, b}, 1e-9));
}

/// A random value for sort-oracle column `kind`: 0 ints, 1 doubles,
/// 2 strings, 3 any of these. The small domains give duplicates and hold
/// -0.0 beside 0.0, ints above 2^53 that are equal as doubles, and ints and
/// doubles of the same value. NaN stays out: with it neither order is a
/// strict weak order.
Value RandomSortValue(Rng* rng, int kind) {
  static const int64_t kInts[] = {-3, 0, 1, 2, 7, int64_t{1} << 53,
                                  (int64_t{1} << 53) + 1,
                                  (int64_t{1} << 53) + 2};
  static const double kDoubles[] = {-2.5, -0.0, 0.0, 1.0,
                                    1.5,  2.0,  9007199254740992.0, 7.25};
  static const char* const kStrings[] = {"", "a", "ab", "abc", "b", "ba"};
  if (kind == 3) kind = static_cast<int>(rng->NextUint64(3));
  if (kind == 0) return Value(kInts[rng->NextUint64(std::size(kInts))]);
  if (kind == 1) return Value(kDoubles[rng->NextUint64(std::size(kDoubles))]);
  return Value(kStrings[rng->NextUint64(std::size(kStrings))]);
}

TEST(RowTest, StableSortOnFieldsMatchesStableSortWithCompareOnFields) {
  Rng rng(97);
  for (int round = 0; round < 300; ++round) {
    // Empty and one-row inputs first, then random sizes.
    const size_t n = round < 2 ? static_cast<size_t>(round)
                               : 2 + static_cast<size_t>(rng.NextUint64(300));
    // Columns 0-3 are int, double, string and mixed; column 4 is the row's
    // input position, so equal ids mean the same row (stability included).
    std::vector<size_t> columns = {0, 1, 2, 3};
    rng.Shuffle(&columns);
    const std::vector<size_t> fields(
        columns.begin(), columns.begin() + 1 + rng.NextUint64(3));
    std::vector<Row> rows;
    for (size_t i = 0; i < n; ++i) {
      std::vector<Value> values;
      for (int kind = 0; kind < 4; ++kind) {
        values.push_back(RandomSortValue(&rng, kind));
      }
      values.emplace_back(static_cast<int64_t>(i));
      rows.emplace_back(std::move(values));
    }
    std::vector<Row> expected = rows;
    std::stable_sort(expected.begin(), expected.end(),
                     [&](const Row& a, const Row& b) {
                       return CompareOnFields(a, b, fields) < 0;
                     });
    StableSortOnFields(&rows, fields);
    ASSERT_EQ(rows.size(), expected.size());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(rows[i][4].AsInt(), expected[i][4].AsInt())
          << "round " << round << " position " << i;
      ASSERT_EQ(rows[i].ToString(), expected[i].ToString());
    }
  }
}

TEST(SchemaTest, IndexLookup) {
  Schema s({"a", "b", "c"});
  EXPECT_EQ(s.IndexOf("b"), 1u);
  EXPECT_FALSE(s.IndexOf("z").has_value());
  auto idx = s.IndicesOf({"c", "a"});
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, (std::vector<size_t>{2, 0}));
  EXPECT_FALSE(s.IndicesOf({"a", "q"}).ok());
}

TEST(SchemaTest, ContainsAndConcat) {
  Schema s({"a", "b"});
  EXPECT_TRUE(s.Contains(FieldSet{"a", "b"}));
  EXPECT_FALSE(s.Contains(FieldSet{"a", "x"}));
  Schema c = s.Concat(Schema({"b", "c"}));
  EXPECT_EQ(c.fields(), (std::vector<std::string>{"a", "b", "b#1", "c"}));
}

TEST(SchemaTest, FieldSetOperations) {
  FieldSet a{"x", "y"}, b{"y", "z"};
  EXPECT_EQ(Intersect(a, b), FieldSet{"y"});
  EXPECT_EQ(Union(a, b), (FieldSet{"x", "y", "z"}));
  EXPECT_EQ(Minus(a, b), FieldSet{"x"});
  EXPECT_TRUE(IsSubset(FieldSet{"y"}, a));
  EXPECT_FALSE(IsSubset(a, b));
}

TEST(JobConfigTest, ToStringAndEquality) {
  JobConfig a, b;
  EXPECT_EQ(a, b);
  b.num_reduce_tasks = 7;
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.ToString().find("reduce_tasks=1"), std::string::npos);
}

TEST(ConfigSpaceTest, PointRoundTrip) {
  ConfigSpace space = ConfigSpace::Default(100, /*has_combiner=*/true);
  JobConfig c;
  c.num_reduce_tasks = 55;
  c.io_sort_mb = 256;
  c.io_sort_factor = 20;
  c.compress_map_output = true;
  c.compress_output = false;
  c.split_mb = 128;
  c.use_combiner = true;
  JobConfig round = space.PointToConfig(space.ConfigToPoint(c), JobConfig{});
  EXPECT_EQ(round.num_reduce_tasks, 55);
  EXPECT_EQ(round.io_sort_mb, 256);
  EXPECT_EQ(round.io_sort_factor, 20);
  EXPECT_TRUE(round.compress_map_output);
  EXPECT_FALSE(round.compress_output);
  EXPECT_TRUE(round.use_combiner);
}

TEST(ConfigSpaceTest, ClampsOutOfRangePoints) {
  ConfigSpace space = ConfigSpace::Default(100, false);
  std::vector<double> point(space.size(), 2.0);  // beyond the unit cube
  JobConfig c = space.PointToConfig(point, JobConfig{});
  EXPECT_EQ(c.num_reduce_tasks, 200);  // hi bound = 2*max_reduce_tasks
  EXPECT_EQ(c.io_sort_mb, 512);
}

class HashPartitionerProperty : public ::testing::TestWithParam<int> {};

TEST_P(HashPartitionerProperty, SameKeySamePartitionAndInRange) {
  const int R = GetParam();
  Schema schema({"k", "v"});
  Partitioner p =
      *Partitioner::Make(PartitionSpec::DefaultFor({"k"}), schema);
  Rng rng(1234);
  for (int i = 0; i < 500; ++i) {
    int64_t k = rng.NextInt(0, 50);
    Row a{k, rng.NextInt(0, 1000)};
    Row b{k, rng.NextInt(0, 1000)};
    int pa = p.PartitionOf(a, R);
    EXPECT_GE(pa, 0);
    EXPECT_LT(pa, R);
    EXPECT_EQ(pa, p.PartitionOf(b, R)) << "key " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(ReducerCounts, HashPartitionerProperty,
                         ::testing::Values(1, 2, 7, 64, 1024));

TEST(RangePartitionerTest, BucketsBySplitPoints) {
  Schema schema({"k"});
  PartitionSpec spec;
  spec.type = PartitionType::kRange;
  spec.partition_fields = {"k"};
  spec.sort_fields = {"k"};
  spec.split_points = {Row{int64_t{10}}, Row{int64_t{20}}};
  Partitioner p = *Partitioner::Make(spec, schema);
  EXPECT_EQ(p.PartitionOf(Row{int64_t{3}}, 3), 0);
  EXPECT_EQ(p.PartitionOf(Row{int64_t{10}}, 3), 1);  // boundary goes right
  EXPECT_EQ(p.PartitionOf(Row{int64_t{15}}, 3), 1);
  EXPECT_EQ(p.PartitionOf(Row{int64_t{99}}, 3), 2);
}

TEST(RangePartitionerTest, RangeIsOrderPreserving) {
  Schema schema({"k"});
  PartitionSpec spec;
  spec.type = PartitionType::kRange;
  spec.partition_fields = {"k"};
  spec.sort_fields = {"k"};
  std::vector<Row> splits;
  for (int s = 5; s < 100; s += 5) splits.push_back(Row{s});
  spec.split_points = std::move(splits);
  Partitioner p = *Partitioner::Make(spec, schema);
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    int64_t a = rng.NextInt(0, 120), b = rng.NextInt(0, 120);
    if (a > b) std::swap(a, b);
    EXPECT_LE(p.PartitionOf(Row{a}, 20), p.PartitionOf(Row{b}, 20));
  }
}

TEST(RangePartitionerTest, MatchesUpperBoundOverTheProjectedKey) {
  // PartitionOf compares a row's partition fields against the split points
  // in place; the reference projects the key into its own row and takes
  // upper_bound. Keys of one to three fields, read from scattered schema
  // positions, of ints, doubles (-0.0 beside 0.0), strings or a mix; rows
  // equal to each split point, below the first and above the last.
  const Schema schema({"f0", "f1", "f2", "f3", "f4"});
  Rng rng(11);
  const double kDoubles[] = {-0.0, 0.0, 0.5, -1.5, 2.0, 4.0};
  const char* kStrings[] = {"", "a", "ab", "b", "ba", "c"};
  for (int mode = 0; mode < 4; ++mode) {  // int, double, string, mixed
    auto value = [&]() -> Value {
      const int m = mode < 3 ? mode : static_cast<int>(rng.NextUint64(3));
      if (m == 0) return rng.NextInt(-4, 4);
      if (m == 2) return kStrings[rng.NextUint64(6)];
      if (rng.NextDouble() < 0.5) return kDoubles[rng.NextUint64(6)];
      return rng.NextDouble(-4, 4);
    };
    for (size_t arity = 1; arity <= 3; ++arity) {
      std::vector<size_t> order = {0, 1, 2, 3, 4};
      rng.Shuffle(&order);
      const std::vector<size_t> key_at(order.begin(), order.begin() + arity);
      PartitionSpec spec;
      spec.type = PartitionType::kRange;
      for (size_t i : key_at) spec.partition_fields.push_back(schema.field(i));
      spec.sort_fields = spec.partition_fields;
      std::vector<Row> splits;
      for (int n = 0; n < 6; ++n) {
        Row split;
        for (size_t f = 0; f < arity; ++f) split.Append(value());
        splits.push_back(std::move(split));
      }
      std::sort(splits.begin(), splits.end());
      splits.erase(std::unique(splits.begin(), splits.end()), splits.end());
      spec.split_points = splits;
      const int R = static_cast<int>(splits.size()) + 1;
      auto p = Partitioner::Make(spec, schema, R);
      ASSERT_TRUE(p.ok()) << p.status();

      auto row_with_key = [&](const Row& key) {
        Row row;
        for (size_t f = 0; f < 5; ++f) row.Append(value());
        for (size_t f = 0; f < arity; ++f) row[key_at[f]] = key[f];
        return row;
      };
      std::vector<Row> rows;
      for (const Row& split : splits) rows.push_back(row_with_key(split));
      const Row below(std::vector<Value>(arity, Value(-1e9)));
      const Row above(std::vector<Value>(arity, Value("zzz")));
      rows.push_back(row_with_key(below));
      rows.push_back(row_with_key(above));
      for (int n = 0; n < 200; ++n) {
        Row row;
        for (size_t f = 0; f < 5; ++f) row.Append(value());
        rows.push_back(std::move(row));
      }
      for (const Row& row : rows) {
        const Row key = row.Project(key_at);
        const int want = static_cast<int>(
            std::upper_bound(splits.begin(), splits.end(), key) -
            splits.begin());
        EXPECT_EQ(p->PartitionOf(row, R), want)
            << "mode " << mode << " key " << key.ToString();
      }
      EXPECT_EQ(p->PartitionOf(row_with_key(below), R), 0);
      EXPECT_EQ(p->PartitionOf(row_with_key(above), R), R - 1);
    }
  }
}

TEST(PartitionerTest, MissingFieldFails) {
  Schema schema({"a"});
  EXPECT_FALSE(Partitioner::Make(PartitionSpec::DefaultFor({"b"}), schema)
                   .ok());
}

TEST(RangePartitionerTest, RejectsMoreSplitPartitionsThanReduceTasks) {
  // Two split points define three partitions; a job running only two reduce
  // tasks would silently fold the third key range into the last partition.
  Schema schema({"k"});
  PartitionSpec spec;
  spec.type = PartitionType::kRange;
  spec.partition_fields = {"k"};
  spec.sort_fields = {"k"};
  spec.split_points = {Row{int64_t{10}}, Row{int64_t{20}}};
  auto p = Partitioner::Make(spec, schema, /*num_partitions=*/2);
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument);
  // Enough reduce tasks (or an unchecked resolve with 0) is fine.
  EXPECT_TRUE(Partitioner::Make(spec, schema, 3).ok());
  EXPECT_TRUE(Partitioner::Make(spec, schema, 0).ok());
}

TEST(RowTest, ApproxMultisetEqualityToleratesSortPositionSwaps) {
  // Rows equal within tolerance can sort into different positions because
  // the sort is exact: a sorts (1.0, 5.0) first, b sorts (1.0+d, 5.0)
  // second. Pairwise post-sort comparison would wrongly fail; the
  // tolerance-aware matching must pair them crosswise.
  const double d = 1e-12;
  std::vector<Row> a = {Row{1.0, 5.0}, Row{1.0 + d, 1.0}};
  std::vector<Row> b = {Row{1.0, 1.0}, Row{1.0 + d, 5.0}};
  EXPECT_TRUE(RowsApproxEqual(a, b, 1e-9));
  EXPECT_TRUE(RowsApproxEqual(b, a, 1e-9));
  // Rows that differ beyond tolerance still fail...
  std::vector<Row> c = {Row{1.0, 5.0}, Row{2.0, 1.0}};
  EXPECT_FALSE(RowsApproxEqual(a, c, 1e-9));
  // ...as do equal-length multisets with mismatched multiplicities.
  std::vector<Row> e = {Row{1.0, 5.0}, Row{1.0, 5.0}};
  EXPECT_FALSE(RowsApproxEqual(a, e, 1e-9));
  EXPECT_FALSE(RowsApproxEqual(std::vector<Row>{Row{1.0}}, {}, 1e-9));
}

TEST(PartitionSpecTest, FixesNumPartitionsOnlyWithExplicitSplits) {
  PartitionSpec spec;
  spec.type = PartitionType::kRange;
  spec.partition_fields = {"k"};
  EXPECT_FALSE(spec.FixesNumPartitions());
  spec.split_points = {Row{int64_t{1}}};
  EXPECT_TRUE(spec.FixesNumPartitions());
  EXPECT_EQ(spec.NumRangePartitions(), 2);
}

}  // namespace
}  // namespace stubby
