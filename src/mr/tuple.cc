#include "mr/tuple.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/strings.h"

namespace stubby {

namespace {
constexpr uint64_t kRowOverheadBytes = 4;  // framing / length prefix
}

uint64_t Row::SerializedSize() const {
  uint64_t total = kRowOverheadBytes;
  for (const auto& v : values_) total += v.SerializedSize();
  return total;
}

Row Row::Project(const std::vector<size_t>& indices) const {
  Row out;
  out.values_.reserve(indices.size());
  for (size_t i : indices) out.values_.push_back(values_[i]);
  return out;
}

bool Row::operator<(const Row& other) const {
  size_t n = std::min(values_.size(), other.values_.size());
  for (size_t i = 0; i < n; ++i) {
    if (values_[i] < other.values_[i]) return true;
    if (other.values_[i] < values_[i]) return false;
  }
  return values_.size() < other.values_.size();
}

uint64_t Row::Hash() const {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& v : values_) h = HashCombine(h, v.Hash());
  return h;
}

std::string Row::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ", ";
    out += values_[i].ToString();
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
/// its double (an int compares as its double), or the row's string.
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
                        const std::vector<size_t>& indices) {
  const size_t n = rows->size();
  const size_t k = indices.size();
  if (n < 2 || k == 0) return;
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
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const SortKey* ka = &keys[a * k];
    const SortKey* kb = &keys[b * k];
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
