#include "mr/value.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/strings.h"

namespace stubby {

namespace {
// Rank used to order across types so that sorting mixed columns is total.
int TypeRank(const Value& v) { return v.is_string() ? 1 : 0; }
}  // namespace

uint64_t Value::SerializedSize() const {
  if (is_int()) return 8;
  if (is_double()) return 8;
  return 4 + AsString().size();  // length prefix + bytes
}

bool Value::operator<(const Value& other) const {
  int ra = TypeRank(*this), rb = TypeRank(other);
  if (ra != rb) return ra < rb;
  if (ra == 1) return AsString() < other.AsString();
  return AsDouble() < other.AsDouble();
}

bool Value::operator==(const Value& other) const {
  int ra = TypeRank(*this), rb = TypeRank(other);
  if (ra != rb) return false;
  if (ra == 1) return AsString() == other.AsString();
  return AsDouble() == other.AsDouble();
}

uint64_t Value::Hash() const {
  if (is_string()) return HashString(AsString());
  if (is_int()) {
    uint64_t x = static_cast<uint64_t>(AsInt());
    // splitmix64 finalizer
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  }
  double d = AsDouble();
  // Normalize -0.0 and integral doubles so Hash agrees with operator==
  // across int/double representations of the same number.
  if (d == 0.0) d = 0.0;
  if (std::nearbyint(d) == d && std::fabs(d) < 9.2e18) {
    return Value(static_cast<int64_t>(d)).Hash();
  }
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  __builtin_memcpy(&bits, &d, sizeof(bits));
  return HashCombine(bits, 0x5bd1e995);
}

void Value::WrongKind(const char* accessor) const {
  const char* held = kind_ == Kind::kInt      ? "int"
                     : kind_ == Kind::kDouble ? "double"
                                              : "string";
  std::fprintf(stderr, "Value::%s called on a %s value\n", accessor, held);
  std::abort();
}

std::string Value::ToString() const {
  if (is_int()) return std::to_string(AsInt());
  if (is_double()) return StrFormat("%.6g", AsDouble());
  return AsString();
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

}  // namespace stubby
