// Partition function model (Section 2.1 / Section 3.4). The default is hash
// partitioning on K2 with a per-partition sort on K2; Stubby's partition
// function transformation can switch to range partitioning, change split
// points, and change the per-partition sort fields (as vertical packing
// postconditions require).

#pragma once

#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "mr/schema.h"
#include "mr/tuple.h"

namespace stubby {

enum class PartitionType { kHash, kRange };

const char* PartitionTypeName(PartitionType t);

/// A range partition's split points: sorted boundary rows, read-only once
/// built. Copies share the rows, so copying a spec (and with it a branch, a
/// dataset layout, a Plan or a Dfs) bumps one reference count instead of
/// copying every row. A writer builds a std::vector<Row> and assigns it;
/// nothing mutates rows another copy may be reading, on any thread.
class SplitPoints {
 public:
  SplitPoints() = default;
  SplitPoints(std::vector<Row> rows);  // NOLINT(runtime/explicit)
  SplitPoints(std::initializer_list<Row> rows)
      : SplitPoints(std::vector<Row>(rows)) {}

  size_t size() const { return rows_ == nullptr ? 0 : rows_->size(); }
  bool empty() const { return size() == 0; }
  const Row& operator[](size_t i) const { return (*rows_)[i]; }
  const Row* begin() const {
    return rows_ == nullptr ? nullptr : rows_->data();
  }
  const Row* end() const { return begin() + size(); }

  /// Equal contents; rows shared by both sides compare equal at once.
  bool operator==(const SplitPoints& other) const;

 private:
  std::shared_ptr<const std::vector<Row>> rows_;  ///< null when empty
};

/// Declarative description of a job's partition function. Lives in the plan
/// so transformations can inspect and rewrite it.
struct PartitionSpec {
  PartitionType type = PartitionType::kHash;

  /// Fields of the map-output row that partitioning is computed on.
  std::vector<std::string> partition_fields;

  /// Fields the map output is sorted on within each partition (the grouping
  /// comparator groups on a prefix of this order).
  std::vector<std::string> sort_fields;

  /// For range partitioning: sorted boundary rows over `partition_fields`.
  /// n split points define n+1 partitions; a row belongs to the first
  /// partition whose upper boundary exceeds it.
  SplitPoints split_points;

  /// Alternative to explicit split points: a dataset id whose rows are the
  /// boundary rows, resolved at execution time. Used by workflows where a
  /// sampling job computes split points for a later sort job (e.g. the
  /// Social Network Analysis and Log Analysis workflows of Section 7.1).
  std::string split_points_from;

  /// Default spec for a job whose map-output key is `key_fields`: hash
  /// partition and sort on the key.
  static PartitionSpec DefaultFor(const std::vector<std::string>& key_fields);

  /// Range partitioning with explicit splits fixes the number of partitions
  /// at split_points+1.
  bool FixesNumPartitions() const {
    return type == PartitionType::kRange && !split_points.empty();
  }
  int NumRangePartitions() const {
    return static_cast<int>(split_points.size()) + 1;
  }

  bool operator==(const PartitionSpec& other) const;
  std::string ToString() const;
};

/// Executable partitioner bound to a concrete map-output schema.
class Partitioner {
 public:
  /// Resolves field names against `schema`; fails if any are missing. When
  /// `num_partitions` is positive, a range spec whose split points define
  /// more partitions than that is rejected with InvalidArgument — the
  /// extra key ranges could only be folded into the last partition, silently
  /// skewing data (callers that only resolve fields pass 0 to skip the
  /// check).
  static Result<Partitioner> Make(const PartitionSpec& spec,
                                  const Schema& schema,
                                  int num_partitions = 0);

  /// Partition index for `row` among `num_partitions` buckets.
  int PartitionOf(const Row& row, int num_partitions) const;

  /// Indices of the sort fields within the schema.
  const std::vector<size_t>& sort_indices() const { return sort_indices_; }
  const std::vector<size_t>& partition_indices() const {
    return partition_indices_;
  }

 private:
  Partitioner() = default;

  PartitionSpec spec_;
  std::vector<size_t> partition_indices_;
  std::vector<size_t> sort_indices_;
};

}  // namespace stubby
