// Row: one record (tuple of Values) flowing through the simulated MapReduce
// system, plus key-projection helpers used by sorting, grouping, and
// partitioning.

#pragma once

#include <cstdint>
#include <initializer_list>
#include <new>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "mr/value.h"

namespace stubby {

/// A record. Field meaning is given externally by a Schema; rows themselves
/// are positional.
///
/// A row is one flat block: up to kInline values live inside the row
/// itself, and a row that grows past kInline moves its values to one heap
/// block, which it keeps until it is assigned or destroyed. So a row of
/// four or fewer numbers costs no allocation at all, and freeing a vector
/// of them frees one buffer.
///
/// Invalidation: a reference, pointer or values() span into a row does not
/// survive a move of that row (vector growth, a sort, a move into a
/// bucket), because inline values move with the row. Read what is needed
/// before moving a row, or keep the row const while pointing into it. A
/// string value's characters do survive: they stay in their own heap block
/// and the moved Value takes that block along.
class Row {
 public:
  /// Values held inside the row. Four because 89% of the rows a Table 1
  /// run stores hold four or fewer values (DESIGN item 14).
  static constexpr size_t kInline = 4;

  Row() noexcept {}
  Row(std::initializer_list<Value> values);
  explicit Row(std::vector<Value> values);
  Row(const Row& other);
  /// Leaves `other` empty and reusable.
  Row(Row&& other) noexcept { TakeFrom(other); }
  Row& operator=(const Row& other);
  /// Leaves `other` empty and reusable.
  Row& operator=(Row&& other) noexcept {
    if (this != &other) {
      Clear();
      TakeFrom(other);
    }
    return *this;
  }
  ~Row() { Clear(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Value& operator[](size_t i) const { return values()[i]; }
  Value& operator[](size_t i) { return std::span<Value>(data(), size_)[i]; }
  std::span<const Value> values() const { return {data(), size_}; }

  void Append(Value v);

  /// Serialized size in bytes (per-row framing overhead included).
  uint64_t SerializedSize() const;

  /// Projection of the fields at `indices`, in that order.
  Row Project(const std::vector<size_t>& indices) const;

  bool operator==(const Row& other) const;
  bool operator!=(const Row& other) const { return !(*this == other); }
  bool operator<(const Row& other) const;  // lexicographic

  /// Content hash over all fields.
  uint64_t Hash() const;

  /// "(v1, v2, ...)" rendering for debugging.
  std::string ToString() const;

 private:
  bool spilled() const { return capacity_ > kInline; }
  const Value* data() const { return spilled() ? heap_ : inline_; }
  Value* data() { return spilled() ? heap_ : inline_; }

  /// Gives an empty inline row room for `n` values.
  void InitCapacity(size_t n);
  /// Copies `values` into this empty inline row.
  void CopyFrom(std::span<const Value> values);
  /// Moves the values to a heap block of room for at least `n`.
  void Grow(size_t n);
  /// Destroys every value and frees the heap block: the empty inline row.
  void Clear() noexcept {
    Value* v = data();
    for (uint32_t i = 0; i < size_; ++i) v[i].~Value();
    if (spilled()) ::operator delete(heap_);
    size_ = 0;
    capacity_ = kInline;
  }
  /// Takes `other`'s values into this empty inline row and leaves `other`
  /// the empty inline row.
  void TakeFrom(Row& other) noexcept {
    if (other.spilled()) {
      heap_ = other.heap_;
      capacity_ = other.capacity_;
      other.capacity_ = kInline;
    } else {
      for (uint32_t i = 0; i < other.size_; ++i) {
        new (&inline_[i]) Value(std::move(other.inline_[i]));
        other.inline_[i].~Value();
      }
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  union {
    Value inline_[kInline];  ///< the first size_ are live, unless spilled
    Value* heap_;            ///< spilled: a block of capacity_ values
  };
  uint32_t size_ = 0;
  uint32_t capacity_ = kInline;  ///< above kInline exactly when spilled
};

static_assert(sizeof(Row) <= 80);
static_assert(std::is_nothrow_move_constructible_v<Row>);

/// Compares two rows on the fields at `indices` (same positions in both),
/// lexicographically. Returns <0, 0, >0.
int CompareOnFields(const Row& a, const Row& b,
                    const std::vector<size_t>& indices);

/// Stable-sorts `rows` on the fields at `indices`, deciding every pair as
/// CompareOnFields does, so the result equals std::stable_sort with
/// CompareOnFields element for element. Each row's sort fields are read
/// once into a flat key array (a number as its double, a string as a
/// pointer to its heap string, which stays put when rows move), a
/// permutation of row indices is stable-sorted on those keys, and the rows
/// are then moved into that order.
///
/// With `partitions` (one id per row), the id is a leading key: rows sort
/// on (partition id, fields), and the ids are permuted along with the rows.
/// A map task's shuffle sorts its output this way (DESIGN item 14).
void StableSortOnFields(std::vector<Row>* rows,
                        const std::vector<size_t>& indices,
                        std::vector<int>* partitions = nullptr);

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
