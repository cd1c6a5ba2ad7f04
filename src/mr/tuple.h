// Row: one record (tuple of Values) flowing through the simulated MapReduce
// system, plus key-projection helpers used by sorting, grouping, and
// partitioning.

#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "mr/value.h"

namespace stubby {

/// A record. Field meaning is given externally by a Schema; rows themselves
/// are positional.
class Row {
 public:
  Row() = default;
  Row(std::initializer_list<Value> values) : values_(values) {}
  explicit Row(std::vector<Value> values) : values_(std::move(values)) {}

  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  const Value& operator[](size_t i) const { return values_[i]; }
  Value& operator[](size_t i) { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }

  void Append(Value v) { values_.push_back(std::move(v)); }

  /// Serialized size in bytes (per-row framing overhead included).
  uint64_t SerializedSize() const;

  /// Projection of the fields at `indices`, in that order.
  Row Project(const std::vector<size_t>& indices) const;

  bool operator==(const Row& other) const { return values_ == other.values_; }
  bool operator!=(const Row& other) const { return !(*this == other); }
  bool operator<(const Row& other) const;  // lexicographic

  /// Content hash over all fields.
  uint64_t Hash() const;

  /// "(v1, v2, ...)" rendering for debugging.
  std::string ToString() const;

 private:
  std::vector<Value> values_;
};

/// Compares two rows on the fields at `indices` (same positions in both),
/// lexicographically. Returns <0, 0, >0.
int CompareOnFields(const Row& a, const Row& b,
                    const std::vector<size_t>& indices);

/// Stable-sorts `rows` on the fields at `indices`, deciding every pair as
/// CompareOnFields does, so the result equals std::stable_sort with
/// CompareOnFields element for element. Each row's sort fields are read
/// once into a flat key array (a number as its double, a string as a
/// pointer into the row), a permutation of row indices is stable-sorted on
/// those keys, and the rows are then moved into that order.
void StableSortOnFields(std::vector<Row>* rows,
                        const std::vector<size_t>& indices);

/// True if rows agree on all fields at `indices`.
bool EqualOnFields(const Row& a, const Row& b,
                   const std::vector<size_t>& indices);

/// Combined hash over the fields at `indices`.
uint64_t HashOnFields(const Row& r, const std::vector<size_t>& indices);

/// Approximate row equality: numeric fields compare with relative tolerance
/// `rel_tol` (MapReduce double aggregation is summation-order dependent, so
/// equivalent plans produce results equal only up to rounding).
bool RowApproxEqual(const Row& a, const Row& b, double rel_tol = 1e-9);

/// Approximate multiset equality of row vectors: both are sorted, then each
/// row is greedily matched against the unmatched rows of the other side
/// within tolerance. (Plain pairwise comparison after sorting is wrong:
/// rows that are equal within tolerance can sort into different positions.)
bool RowsApproxEqual(std::vector<Row> a, std::vector<Row> b,
                     double rel_tol = 1e-9);

}  // namespace stubby
