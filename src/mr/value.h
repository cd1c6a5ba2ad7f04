// Value: a single typed field of a record flowing through the simulated
// MapReduce system. Kept deliberately small (int64 / double / string) — the
// workloads in the paper only need these.

#pragma once

#include <cstdint>
#include <ostream>
#include <string>

namespace stubby {

/// Dynamically typed field value, 16 bytes: a kind byte and an 8-byte
/// payload holding the int, the double, or an owning pointer to a heap
/// string. A copy deep-copies a string. A move steals the payload and
/// leaves the source reading as the int 0, whatever it held. A string's
/// characters stay in their heap block when the Value moves, so a reference
/// from AsString() survives a move of the Value; a reference to the Value
/// itself does not survive a move of the Row holding it (see Row).
class Value {
 public:
  Value() noexcept : i_(0), kind_(Kind::kInt) {}
  Value(int64_t v) noexcept  // NOLINT(runtime/explicit)
      : i_(v), kind_(Kind::kInt) {}
  Value(int v) noexcept  // NOLINT(runtime/explicit)
      : i_(v), kind_(Kind::kInt) {}
  Value(double v) noexcept  // NOLINT(runtime/explicit)
      : d_(v), kind_(Kind::kDouble) {}
  Value(std::string v)  // NOLINT(runtime/explicit)
      : s_(new std::string(std::move(v))), kind_(Kind::kString) {}
  Value(const char* v)  // NOLINT(runtime/explicit)
      : s_(new std::string(v)), kind_(Kind::kString) {}

  Value(const Value& other);
  Value(Value&& other) noexcept;
  Value& operator=(const Value& other);
  Value& operator=(Value&& other) noexcept;
  ~Value() {
    if (kind_ == Kind::kString) delete s_;
  }

  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_double() const { return kind_ == Kind::kDouble; }
  bool is_string() const { return kind_ == Kind::kString; }

  /// Integer content; must hold an int (anything else ends the process).
  int64_t AsInt() const {
    if (kind_ != Kind::kInt) WrongKind("AsInt");
    return i_;
  }
  /// Double content; coerces ints (a string ends the process).
  double AsDouble() const {
    if (kind_ == Kind::kDouble) return d_;
    if (kind_ != Kind::kInt) WrongKind("AsDouble");
    return static_cast<double>(i_);
  }
  /// String content; must hold a string (anything else ends the process).
  const std::string& AsString() const {
    if (kind_ != Kind::kString) WrongKind("AsString");
    return *s_;
  }

  /// Serialized size in bytes under the simulator's wire format. Drives all
  /// byte accounting in the execution engine and cost model.
  uint64_t SerializedSize() const;

  /// Total order across types: ints/doubles compare numerically among
  /// themselves, strings lexicographically; numeric < string.
  bool operator<(const Value& other) const;
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }
  bool operator<=(const Value& other) const { return !(other < *this); }

  /// Stable content hash.
  uint64_t Hash() const;

  /// Human-readable rendering for debugging and golden tests.
  std::string ToString() const;

 private:
  enum class Kind : uint8_t { kInt, kDouble, kString };

  /// Reports an accessor called on the wrong kind and aborts: the payload
  /// is never reinterpreted as another kind, in any build.
  [[noreturn]] void WrongKind(const char* accessor) const;

  /// Copies a number's payload from `other` (not a string); the kind byte
  /// is the caller's to set.
  void CopyNumber(const Value& other) noexcept {
    if (other.kind_ == Kind::kInt) {
      i_ = other.i_;
    } else {
      d_ = other.d_;
    }
  }
  /// Takes `other`'s payload and kind, and leaves it the int 0. Our own
  /// payload must own nothing.
  void Steal(Value& other) noexcept {
    switch (other.kind_) {
      case Kind::kInt: i_ = other.i_; break;
      case Kind::kDouble: d_ = other.d_; break;
      case Kind::kString: s_ = other.s_; break;
    }
    kind_ = other.kind_;
    other.i_ = 0;
    other.kind_ = Kind::kInt;
  }

  union {
    int64_t i_;
    double d_;
    std::string* s_;  ///< owned
  };
  Kind kind_;
};

static_assert(sizeof(Value) == 16);

inline Value::Value(const Value& other) : kind_(other.kind_) {
  if (other.kind_ == Kind::kString) {
    s_ = new std::string(*other.s_);
  } else {
    CopyNumber(other);
  }
}

inline Value::Value(Value&& other) noexcept { Steal(other); }

inline Value& Value::operator=(const Value& other) {
  if (this == &other) return *this;
  if (other.kind_ == Kind::kString) {
    if (kind_ == Kind::kString) {
      *s_ = *other.s_;
    } else {
      s_ = new std::string(*other.s_);
      kind_ = Kind::kString;
    }
    return *this;
  }
  if (kind_ == Kind::kString) delete s_;
  CopyNumber(other);
  kind_ = other.kind_;
  return *this;
}

inline Value& Value::operator=(Value&& other) noexcept {
  if (this == &other) return *this;
  if (kind_ == Kind::kString) delete s_;
  Steal(other);
  return *this;
}

std::ostream& operator<<(std::ostream& os, const Value& v);

}  // namespace stubby
