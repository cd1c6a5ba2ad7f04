// StoredDataset: an in-memory stand-in for a dataset in the distributed
// file-system. Payloads are kept partitioned so that partition pruning,
// range layouts, and pre-sorted inputs behave like their on-disk
// counterparts.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "dfs/layout.h"
#include "mr/schema.h"
#include "mr/tuple.h"

namespace stubby {

/// One partition's payload: its rows plus per-row serialized-size prefix
/// sums, so the byte size of any row range is O(1). Cheap to copy: the
/// payload is an immutable shared representation, so cloning a dataset or
/// cutting map-task chunks shares rows instead of copying them. Concurrent
/// readers are safe.
class PartitionData {
 public:
  /// Empty partition.
  PartitionData();

  explicit PartitionData(std::vector<Row> rows);

  size_t num_rows() const { return rep_->rows.size(); }
  const std::vector<Row>& rows() const { return rep_->rows; }

  /// Sum of Row::SerializedSize over all rows.
  uint64_t raw_bytes() const { return rep_->byte_prefix.back(); }

  /// Sum of Row::SerializedSize over rows [lo, hi).
  uint64_t RangeBytes(size_t lo, size_t hi) const {
    return rep_->byte_prefix[hi] - rep_->byte_prefix[lo];
  }

 private:
  struct Rep {
    std::vector<Row> rows;
    std::vector<uint64_t> byte_prefix;  // size rows.size() + 1
  };
  std::shared_ptr<const Rep> rep_;
};

/// One dataset in the simulated DFS.
class StoredDataset {
 public:
  StoredDataset(std::string id, Schema schema, Layout layout)
      : id_(std::move(id)),
        schema_(std::move(schema)),
        layout_(std::move(layout)) {}

  const std::string& id() const { return id_; }
  const Schema& schema() const { return schema_; }
  const Layout& layout() const { return layout_; }

  size_t num_partitions() const { return partitions_.size(); }

  /// Partition `i`'s rows.
  const std::vector<Row>& partition(size_t i) const {
    return partitions_[i].rows();
  }

  /// Partition `i`'s shared payload (rows and byte prefix sums).
  const PartitionData& partition_data(size_t i) const {
    return partitions_[i];
  }

  /// Appends a (already laid-out) partition.
  void AddPartition(std::vector<Row> rows);
  void AddPartition(PartitionData partition);

  /// Physical record count across partitions (the in-memory sample).
  uint64_t num_rows() const { return num_rows_; }

  /// Physical uncompressed byte size of the sample.
  uint64_t raw_bytes() const { return raw_bytes_; }

  /// Scale factor: the stored rows are a sample standing in for a dataset
  /// `logical_scale` times larger. All execution *accounting* (task counts,
  /// I/O bytes, record counts) uses logical sizes; UDFs run on the sample.
  /// This is how the paper's multi-hundred-GB datasets are simulated at
  /// laptop scale with realistic task parallelism.
  double logical_scale() const { return logical_scale_; }
  void set_logical_scale(double s) { logical_scale_ = s < 1.0 ? 1.0 : s; }

  /// Logical record count / byte size (physical x scale).
  uint64_t logical_rows() const {
    return static_cast<uint64_t>(static_cast<double>(num_rows_) *
                                 logical_scale_);
  }
  uint64_t logical_bytes() const {
    return static_cast<uint64_t>(static_cast<double>(raw_bytes_) *
                                 logical_scale_);
  }

  /// Bytes occupied on (simulated) disk, after compression if any.
  uint64_t stored_bytes(double compress_ratio) const;

  /// All rows concatenated (for result comparison in tests).
  std::vector<Row> AllRows() const;

  /// Builds a dataset by distributing `rows` according to `layout` over
  /// `num_partitions` buckets (hash/range partitioning + per-partition sort).
  /// For an unpartitioned layout, rows are round-robin split into blocks of
  /// roughly block_mb.
  static Result<std::shared_ptr<StoredDataset>> FromRows(
      std::string id, const Schema& schema, Layout layout,
      std::vector<Row> rows, int num_partitions);

 private:
  std::string id_;
  Schema schema_;
  Layout layout_;
  std::vector<PartitionData> partitions_;
  uint64_t num_rows_ = 0;
  uint64_t raw_bytes_ = 0;
  double logical_scale_ = 1.0;
};

using DatasetPtr = std::shared_ptr<StoredDataset>;

}  // namespace stubby
