#include "dfs/dataset.h"

#include <algorithm>
#include <cmath>

namespace stubby {

// ---------------------------------------------------------------------------
// PartitionData

PartitionData::PartitionData() : PartitionData(std::vector<Row>{}) {}

PartitionData::PartitionData(std::vector<Row> rows) {
  auto rep = std::make_shared<Rep>();
  rep->byte_prefix.resize(rows.size() + 1, 0);
  for (size_t i = 0; i < rows.size(); ++i) {
    rep->byte_prefix[i + 1] = rep->byte_prefix[i] + rows[i].SerializedSize();
  }
  rep->rows = std::move(rows);
  rep_ = std::move(rep);
}

// ---------------------------------------------------------------------------
// StoredDataset

void StoredDataset::AddPartition(std::vector<Row> rows) {
  AddPartition(PartitionData(std::move(rows)));
}

void StoredDataset::AddPartition(PartitionData partition) {
  num_rows_ += partition.num_rows();
  raw_bytes_ += partition.raw_bytes();
  partitions_.push_back(std::move(partition));
}

uint64_t StoredDataset::stored_bytes(double compress_ratio) const {
  if (!layout_.compressed) return raw_bytes_;
  return static_cast<uint64_t>(std::llround(
      static_cast<double>(raw_bytes_) * compress_ratio));
}

std::vector<Row> StoredDataset::AllRows() const {
  std::vector<Row> out;
  out.reserve(num_rows_);
  for (const auto& p : partitions_) {
    const auto& rows = p.rows();
    out.insert(out.end(), rows.begin(), rows.end());
  }
  return out;
}

Result<std::shared_ptr<StoredDataset>> StoredDataset::FromRows(
    std::string id, const Schema& schema, Layout layout,
    std::vector<Row> rows, int num_partitions) {
  auto ds = std::make_shared<StoredDataset>(std::move(id), schema, layout);
  if (num_partitions < 1) num_partitions = 1;

  std::vector<std::vector<Row>> parts;
  if (layout.partitioning.has_value()) {
    int n = num_partitions;
    if (layout.partitioning->FixesNumPartitions()) {
      n = layout.partitioning->NumRangePartitions();
    }
    STUBBY_ASSIGN_OR_RETURN(Partitioner partitioner,
                            Partitioner::Make(*layout.partitioning, schema));
    parts.assign(static_cast<size_t>(n), {});
    for (auto& r : rows) {
      int p = partitioner.PartitionOf(r, n);
      parts[static_cast<size_t>(p)].push_back(std::move(r));
    }
  } else {
    // Block layout: contiguous chunks of roughly equal record count.
    size_t per =
        std::max<size_t>(1, (rows.size() + num_partitions - 1) /
                                static_cast<size_t>(num_partitions));
    for (size_t i = 0; i < rows.size(); i += per) {
      size_t end = std::min(rows.size(), i + per);
      parts.emplace_back(std::make_move_iterator(rows.begin() + i),
                         std::make_move_iterator(rows.begin() + end));
    }
    if (parts.empty()) parts.emplace_back();
  }

  if (!layout.order_fields.empty()) {
    STUBBY_ASSIGN_OR_RETURN(std::vector<size_t> order_idx,
                            schema.IndicesOf(layout.order_fields));
    for (auto& p : parts) {
      std::stable_sort(p.begin(), p.end(), [&](const Row& a, const Row& b) {
        return CompareOnFields(a, b, order_idx) < 0;
      });
    }
  }

  for (auto& p : parts) ds->AddPartition(std::move(p));
  return ds;
}

}  // namespace stubby
