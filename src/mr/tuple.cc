#include "mr/tuple.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/strings.h"

namespace stubby {

namespace {
constexpr uint64_t kRowOverheadBytes = 4;  // framing / length prefix
}

Row::Row(std::initializer_list<Value> values) : Row() {
  CopyFrom({values.begin(), values.size()});
}

Row::Row(std::vector<Value> values) : Row() {
  InitCapacity(values.size());
  Value* out = data();
  for (Value& v : values) {
    new (out + size_) Value(std::move(v));
    ++size_;
  }
}

Row::Row(const Row& other) : Row() { CopyFrom(other.values()); }

Row& Row::operator=(const Row& other) {
  if (this != &other) {
    Clear();
    CopyFrom(other.values());
  }
  return *this;
}

void Row::CopyFrom(std::span<const Value> values) {
  InitCapacity(values.size());
  Value* out = data();
  for (const Value& v : values) {
    new (out + size_) Value(v);
    ++size_;
  }
}

void Row::InitCapacity(size_t n) {
  if (n <= kInline) return;
  heap_ = static_cast<Value*>(::operator new(n * sizeof(Value)));
  capacity_ = static_cast<uint32_t>(n);
}

void Row::Grow(size_t n) {
  const size_t capacity = std::max<size_t>(n, 2 * size_t{capacity_});
  Value* block = static_cast<Value*>(::operator new(capacity * sizeof(Value)));
  Value* v = data();
  for (uint32_t i = 0; i < size_; ++i) {
    new (block + i) Value(std::move(v[i]));
    v[i].~Value();
  }
  if (spilled()) ::operator delete(heap_);
  heap_ = block;
  capacity_ = static_cast<uint32_t>(capacity);
}

void Row::Append(Value v) {
  if (size_ == capacity_) Grow(size_ + 1);
  new (data() + size_) Value(std::move(v));
  ++size_;
}

uint64_t Row::SerializedSize() const {
  uint64_t total = kRowOverheadBytes;
  for (const Value& v : values()) total += v.SerializedSize();
  return total;
}

Row Row::Project(const std::vector<size_t>& indices) const {
  Row out;
  out.InitCapacity(indices.size());
  Value* dst = out.data();
  for (size_t i : indices) {
    new (dst + out.size_) Value((*this)[i]);
    ++out.size_;
  }
  return out;
}

bool Row::operator==(const Row& other) const {
  if (size_ != other.size_) return false;
  const Value* a = data();
  const Value* b = other.data();
  for (uint32_t i = 0; i < size_; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

bool Row::operator<(const Row& other) const {
  const Value* a = data();
  const Value* b = other.data();
  const uint32_t n = std::min(size_, other.size_);
  for (uint32_t i = 0; i < n; ++i) {
    if (a[i] < b[i]) return true;
    if (b[i] < a[i]) return false;
  }
  return size_ < other.size_;
}

uint64_t Row::Hash() const {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const Value& v : values()) h = HashCombine(h, v.Hash());
  return h;
}

std::string Row::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < size_; ++i) {
    if (i > 0) out += ", ";
    out += (*this)[i].ToString();
  }
  out += ")";
  return out;
}

int CompareOnFields(const Row& a, const Row& b,
                    const std::vector<size_t>& indices) {
  for (size_t i : indices) {
    if (a[i] < b[i]) return -1;
    if (b[i] < a[i]) return 1;
  }
  return 0;
}

namespace {

/// One sort field of one row, as Value::operator< reads it: a number as
/// its double (an int compares as its double), or the value's heap string
/// (it stays put when the rows are moved into order).
struct SortKey {
  double number = 0.0;
  const std::string* string = nullptr;  ///< null for a number
};

/// Value::operator< on extracted keys: numbers before strings, numbers by
/// `<` both ways (so ±0 tie), strings lexicographically.
int CompareKeys(const SortKey& a, const SortKey& b) {
  if (a.string == nullptr) {
    if (b.string != nullptr) return -1;
    if (a.number < b.number) return -1;
    return b.number < a.number ? 1 : 0;
  }
  if (b.string == nullptr) return 1;
  return a.string->compare(*b.string);
}

}  // namespace

void StableSortOnFields(std::vector<Row>* rows,
                        const std::vector<size_t>& indices,
                        std::vector<int>* partitions) {
  const size_t n = rows->size();
  const size_t k = indices.size();
  if (n < 2 || (k == 0 && partitions == nullptr)) return;
  std::vector<SortKey> keys(n * k);
  for (size_t i = 0; i < n; ++i) {
    const Row& row = (*rows)[i];
    for (size_t f = 0; f < k; ++f) {
      const Value& v = row[indices[f]];
      SortKey& key = keys[i * k + f];
      if (v.is_string()) {
        key.string = &v.AsString();
      } else {
        key.number = v.AsDouble();
      }
    }
  }
  const int* part = partitions != nullptr ? partitions->data() : nullptr;
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (part != nullptr && part[a] != part[b]) return part[a] < part[b];
    const SortKey* ka = keys.data() + a * k;
    const SortKey* kb = keys.data() + b * k;
    for (size_t f = 0; f < k; ++f) {
      const int c = CompareKeys(ka[f], kb[f]);
      if (c != 0) return c < 0;
    }
    return false;
  });
  std::vector<Row> sorted;
  sorted.reserve(n);
  for (size_t i : order) sorted.push_back(std::move((*rows)[i]));
  rows->swap(sorted);
  if (partitions != nullptr) {
    std::vector<int> permuted;
    permuted.reserve(n);
    for (size_t i : order) permuted.push_back(part[i]);
    partitions->swap(permuted);
  }
}

bool EqualOnFields(const Row& a, const Row& b,
                   const std::vector<size_t>& indices) {
  return CompareOnFields(a, b, indices) == 0;
}

uint64_t HashOnFields(const Row& r, const std::vector<size_t>& indices) {
  uint64_t h = 0x100001b3ULL;
  for (size_t i : indices) h = HashCombine(h, r[i].Hash());
  return h;
}

bool RowApproxEqual(const Row& a, const Row& b, double rel_tol) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].is_string() || b[i].is_string()) {
      if (!(a[i] == b[i])) return false;
      continue;
    }
    double x = a[i].AsDouble();
    double y = b[i].AsDouble();
    double scale = std::max({1.0, std::fabs(x), std::fabs(y)});
    if (std::fabs(x - y) > rel_tol * scale) return false;
  }
  return true;
}

namespace {

// True when no row sorted at or after `b` can approx-match `a`. The sorted
// order is lexicographic, so the first field is non-decreasing down the
// vector; once it exceeds a's first field by more than the tolerance, every
// later row exceeds it too. Deeper fields cannot bound the scan: a later
// row may sort higher via a within-tolerance bump of an *earlier* field
// while agreeing with `a` at the field where `b` overshot, so overshoot in
// any field past the first says nothing about later rows.
bool DefinitelyAfter(const Row& a, const Row& b, double rel_tol) {
  if (a.size() == 0 || b.size() == 0) return false;
  if (a[0].is_string() || b[0].is_string()) {
    // Exact total order across types; string comparison has no tolerance.
    return a[0] < b[0];
  }
  double x = a[0].AsDouble();
  double y = b[0].AsDouble();
  double scale = std::max({1.0, std::fabs(x), std::fabs(y)});
  return y - x > rel_tol * scale;
}

}  // namespace

bool RowsApproxEqual(std::vector<Row> a, std::vector<Row> b,
                     double rel_tol) {
  if (a.size() != b.size()) return false;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  // Rows within tolerance of each other can sort to different positions
  // (the sort is exact, the comparison is not), so pairwise comparison of
  // the sorted vectors gives false negatives. Instead, greedily match each
  // a-row against the window of unmatched b-rows that are within tolerance
  // of it; the window is bounded because sorted rows beyond tolerance can
  // never match.
  std::vector<bool> used(b.size(), false);
  size_t first_unused = 0;
  for (const Row& ra : a) {
    while (first_unused < b.size() && used[first_unused]) ++first_unused;
    bool matched = false;
    for (size_t j = first_unused; j < b.size(); ++j) {
      if (used[j]) continue;
      if (RowApproxEqual(ra, b[j], rel_tol)) {
        used[j] = true;
        matched = true;
        break;
      }
      if (DefinitelyAfter(ra, b[j], rel_tol)) break;
    }
    if (!matched) return false;
  }
  return true;
}

}  // namespace stubby
