#include "mr/partitioner.h"

#include <algorithm>

#include "common/strings.h"

namespace stubby {

const char* PartitionTypeName(PartitionType t) {
  switch (t) {
    case PartitionType::kHash:
      return "hash";
    case PartitionType::kRange:
      return "range";
  }
  return "?";
}

SplitPoints::SplitPoints(std::vector<Row> rows) {
  if (!rows.empty()) {
    rows_ = std::make_shared<const std::vector<Row>>(std::move(rows));
  }
}

bool SplitPoints::operator==(const SplitPoints& other) const {
  return rows_ == other.rows_ ||
         std::equal(begin(), end(), other.begin(), other.end());
}

PartitionSpec PartitionSpec::DefaultFor(
    const std::vector<std::string>& key_fields) {
  PartitionSpec spec;
  spec.type = PartitionType::kHash;
  spec.partition_fields = key_fields;
  spec.sort_fields = key_fields;
  return spec;
}

bool PartitionSpec::operator==(const PartitionSpec& other) const {
  return type == other.type && partition_fields == other.partition_fields &&
         sort_fields == other.sort_fields &&
         split_points == other.split_points &&
         split_points_from == other.split_points_from;
}

std::string PartitionSpec::ToString() const {
  std::string out = PartitionTypeName(type);
  out += "(" + Join(partition_fields, ",") + ")";
  if (!split_points.empty()) {
    out += StrFormat(" splits=%zu", split_points.size());
  }
  if (sort_fields != partition_fields) {
    out += " sort(" + Join(sort_fields, ",") + ")";
  }
  return out;
}

Result<Partitioner> Partitioner::Make(const PartitionSpec& spec,
                                      const Schema& schema,
                                      int num_partitions) {
  Partitioner p;
  p.spec_ = spec;
  STUBBY_ASSIGN_OR_RETURN(p.partition_indices_,
                          schema.IndicesOf(spec.partition_fields));
  STUBBY_ASSIGN_OR_RETURN(p.sort_indices_, schema.IndicesOf(spec.sort_fields));
  if (spec.type == PartitionType::kRange) {
    for (const Row& s : spec.split_points) {
      if (s.size() != spec.partition_fields.size()) {
        return Status::InvalidArgument(
            "range split point arity does not match partition fields");
      }
    }
    if (num_partitions > 0 &&
        static_cast<int>(spec.split_points.size()) + 1 > num_partitions) {
      return Status::InvalidArgument(StrFormat(
          "range partition spec defines %d partitions but the job runs only "
          "%d reduce tasks; the excess key ranges would silently fold into "
          "the last partition",
          static_cast<int>(spec.split_points.size()) + 1, num_partitions));
    }
  }
  return p;
}

int Partitioner::PartitionOf(const Row& row, int num_partitions) const {
  if (num_partitions <= 1) return 0;
  if (spec_.type == PartitionType::kHash) {
    uint64_t h = HashOnFields(row, partition_indices_);
    return static_cast<int>(h % static_cast<uint64_t>(num_partitions));
  }
  // Range: the row's partition fields compared in place against the sorted
  // split points, field by field as Row::operator< compares the projected
  // key (Make() checked that every split point has one value per partition
  // field, so the length tie-break never decides). Make() also guarantees
  // splits+1 <= num_partitions for executor-created partitioners, so the
  // clamp below cannot silently merge key ranges.
  auto key_less = [this](const Row& r, const Row& split) {
    for (size_t i = 0; i < partition_indices_.size(); ++i) {
      const Value& v = r[partition_indices_[i]];
      if (v < split[i]) return true;
      if (split[i] < v) return false;
    }
    return false;
  };
  const SplitPoints& splits = spec_.split_points;
  auto it = std::upper_bound(splits.begin(), splits.end(), row, key_less);
  int idx = static_cast<int>(it - splits.begin());
  return std::min(idx, num_partitions - 1);
}

}  // namespace stubby
