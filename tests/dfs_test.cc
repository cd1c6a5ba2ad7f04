// Tests for dfs/: layouts, dataset construction, logical scaling, the DFS,
// PartitionData byte accounting, and prune-list partition selection.

#include <gtest/gtest.h>

#include "dfs/dfs.h"
#include "workflow/graph.h"

namespace stubby {
namespace {

std::vector<Row> MakeRows(int n) {
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back(Row{int64_t{i % 7}, int64_t{i}});
  }
  return rows;
}

TEST(DatasetTest, BlockLayoutSplitsIntoPartitions) {
  Layout layout;  // unpartitioned blocks
  auto ds = StoredDataset::FromRows("d", Schema({"k", "v"}), layout,
                                    MakeRows(100), 4);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ((*ds)->num_partitions(), 4u);
  EXPECT_EQ((*ds)->num_rows(), 100u);
  EXPECT_EQ((*ds)->AllRows().size(), 100u);
}

TEST(DatasetTest, HashLayoutGroupsKeys) {
  Layout layout;
  layout.partitioning = PartitionSpec::DefaultFor({"k"});
  auto ds = StoredDataset::FromRows("d", Schema({"k", "v"}), layout,
                                    MakeRows(100), 5);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ((*ds)->num_partitions(), 5u);
  // Every key must live in exactly one partition.
  for (int64_t key = 0; key < 7; ++key) {
    int partitions_with_key = 0;
    for (size_t p = 0; p < (*ds)->num_partitions(); ++p) {
      bool found = false;
      for (const Row& r : (*ds)->partition(p)) {
        if (r[0].AsInt() == key) found = true;
      }
      if (found) ++partitions_with_key;
    }
    EXPECT_EQ(partitions_with_key, 1) << "key " << key;
  }
}

TEST(DatasetTest, RangeLayoutRespectsSplitsAndOrder) {
  Layout layout;
  PartitionSpec spec;
  spec.type = PartitionType::kRange;
  spec.partition_fields = {"v"};
  spec.sort_fields = {"v"};
  spec.split_points = {Row{int64_t{50}}};
  layout.partitioning = spec;
  layout.order_fields = {"v"};
  auto ds = StoredDataset::FromRows("d", Schema({"k", "v"}), layout,
                                    MakeRows(100), 99 /*ignored*/);
  ASSERT_TRUE(ds.ok());
  ASSERT_EQ((*ds)->num_partitions(), 2u);  // range fixes the count
  for (const Row& r : (*ds)->partition(0)) EXPECT_LT(r[1].AsInt(), 50);
  for (const Row& r : (*ds)->partition(1)) EXPECT_GE(r[1].AsInt(), 50);
  // Ordered within partitions.
  for (size_t p = 0; p < 2; ++p) {
    const auto& rows = (*ds)->partition(p);
    for (size_t i = 1; i < rows.size(); ++i) {
      EXPECT_LE(rows[i - 1][1].AsInt(), rows[i][1].AsInt());
    }
  }
}

TEST(DatasetTest, LogicalScaleMultipliesSizes) {
  Layout layout;
  auto ds = StoredDataset::FromRows("d", Schema({"k", "v"}), layout,
                                    MakeRows(10), 1);
  ASSERT_TRUE(ds.ok());
  uint64_t raw = (*ds)->raw_bytes();
  (*ds)->set_logical_scale(100.0);
  EXPECT_EQ((*ds)->logical_rows(), 1000u);
  EXPECT_EQ((*ds)->logical_bytes(), raw * 100);
  (*ds)->set_logical_scale(0.5);  // clamped to >= 1
  EXPECT_EQ((*ds)->logical_scale(), 1.0);
}

TEST(DatasetTest, StoredBytesReflectCompression) {
  Layout compressed;
  compressed.compressed = true;
  auto ds = StoredDataset::FromRows("d", Schema({"k", "v"}), compressed,
                                    MakeRows(10), 1);
  ASSERT_TRUE(ds.ok());
  EXPECT_LT((*ds)->stored_bytes(0.4), (*ds)->raw_bytes());
  Layout plain;
  auto ds2 = StoredDataset::FromRows("d2", Schema({"k", "v"}), plain,
                                     MakeRows(10), 1);
  EXPECT_EQ((*ds2)->stored_bytes(0.4), (*ds2)->raw_bytes());
}

TEST(DatasetTest, SelectedPartitionsCanonicalizesAndRejectsOutOfRange) {
  Layout layout;
  auto ds = StoredDataset::FromRows("d", Schema({"k", "v"}), layout,
                                    MakeRows(90), 3);
  ASSERT_TRUE(ds.ok());
  ASSERT_EQ((*ds)->num_partitions(), 3u);

  auto all = SelectedPartitions(**ds, {});
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_EQ(*all, (std::vector<int>{0, 1, 2}));

  // Pruning selects a set: duplicates collapse, order is canonical.
  auto set = SelectedPartitions(**ds, {2, 0, 2});
  ASSERT_TRUE(set.ok()) << set.status();
  EXPECT_EQ(*set, (std::vector<int>{0, 2}));

  // A partition the dataset does not have is an error, never a skip.
  EXPECT_TRUE(SelectedPartitions(**ds, {0, 17}).status().IsInvalidArgument());
  EXPECT_TRUE(SelectedPartitions(**ds, {-3}).status().IsInvalidArgument());
}

TEST(PartitionDataTest, RaggedRowsStayRowNativeButReadable) {
  // Rows of different arity are stored as given, and the byte accounting
  // still sums per row.
  std::vector<Row> rows = {Row{int64_t{1}, int64_t{2}}, Row{int64_t{3}}};
  PartitionData pd(rows);
  EXPECT_EQ(pd.num_rows(), 2u);
  EXPECT_EQ(pd.rows()[1].Hash(), rows[1].Hash());
  EXPECT_EQ(pd.RangeBytes(0, 2), pd.raw_bytes());
  EXPECT_EQ(pd.RangeBytes(0, 1) + pd.RangeBytes(1, 2), pd.raw_bytes());
}

TEST(DfsTest, PutGetDrop) {
  Dfs dfs;
  Layout layout;
  auto ds = StoredDataset::FromRows("a", Schema({"k", "v"}), layout,
                                    MakeRows(5), 1);
  ASSERT_TRUE(dfs.Put(*ds).ok());
  EXPECT_TRUE(dfs.Exists("a"));
  EXPECT_FALSE(dfs.Put(*ds).ok());  // duplicate id
  EXPECT_TRUE(dfs.Get("a").ok());
  EXPECT_FALSE(dfs.Get("b").ok());
  dfs.Drop("a");
  EXPECT_FALSE(dfs.Exists("a"));
}

TEST(DfsTest, PutOrReplaceOverwrites) {
  Dfs dfs;
  Layout layout;
  dfs.PutOrReplace(*StoredDataset::FromRows("a", Schema({"k", "v"}), layout,
                                            MakeRows(5), 1));
  dfs.PutOrReplace(*StoredDataset::FromRows("a", Schema({"k", "v"}), layout,
                                            MakeRows(9), 1));
  EXPECT_EQ((*dfs.Get("a"))->num_rows(), 9u);
}

TEST(DfsTest, CopySharesDataButNotRegistry) {
  Dfs a;
  Layout layout;
  a.PutOrReplace(*StoredDataset::FromRows("x", Schema({"k", "v"}), layout,
                                          MakeRows(5), 1));
  Dfs b = a;  // copy
  b.PutOrReplace(*StoredDataset::FromRows("y", Schema({"k", "v"}), layout,
                                          MakeRows(5), 1));
  EXPECT_TRUE(b.Exists("x"));
  EXPECT_FALSE(a.Exists("y"));
}

}  // namespace
}  // namespace stubby
