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
  // Range: projected key compared against sorted split points. Make()
  // guarantees splits+1 <= num_partitions for executor-created
  // partitioners, so the clamp below cannot silently merge key ranges.
  Row key = row.Project(partition_indices_);
  auto it = std::upper_bound(
      spec_.split_points.begin(), spec_.split_points.end(), key,
      [](const Row& a, const Row& b) { return a < b; });
  int idx = static_cast<int>(it - spec_.split_points.begin());
  return std::min(idx, num_partitions - 1);
}

}  // namespace stubby
