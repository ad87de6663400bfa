// Minimal JSON value type for the serve-layer line protocol.
//
// The repo writes JSON by hand everywhere it only *emits* (metrics,
// manifests, attribution reports); the serving daemon is the first layer
// that must also *parse* untrusted JSON, so this is a small, strict,
// dependency-free reader/writer:
//
//   * strict RFC-ish parsing: one value per parse, no trailing bytes, no
//     comments, objects reject duplicate keys — a malformed request must
//     become one structured `bad_json` reply, never a half-parsed request;
//   * deterministic emission: object keys are stored sorted and numbers
//     format through one fixed code path, so dump() of equal values is
//     byte-equal — the property the content-addressed result cache and the
//     cold-vs-warm byte-identity checks are built on.
//
// Not a general-purpose library on purpose: no \u surrogate pairs beyond
// the BMP, and documents nest at most kMaxDepth deep (a hostile request
// cannot stack-overflow the daemon). A number is a double, except that an
// integer lexeme (no fraction, no exponent) that fits a signed or unsigned
// 64-bit integer keeps its exact value and dumps without loss: a `seed`
// above 2^53 must not share a cache key with its nearest double.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace capmem::serve {

/// Thrown by Json::parse on malformed input; the daemon maps it to a
/// structured `bad_json` error reply.
class JsonError : public CheckError {
 public:
  explicit JsonError(const std::string& what) : CheckError(what) {}
};

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };
  static constexpr int kMaxDepth = 32;

  Json() = default;
  Json(std::nullptr_t) {}  // NOLINT: implicit, mirrors JSON literals
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double v) : type_(Type::kNumber), num_(v) {}
  Json(int v) : Json(static_cast<std::int64_t>(v)) {}
  Json(std::int64_t v)
      : type_(Type::kNumber),
        int_(v < 0 ? Int::kSigned : Int::kUnsigned),
        bits_(static_cast<std::uint64_t>(v)),
        num_(static_cast<double>(v)) {}
  Json(std::uint64_t v)
      : type_(Type::kNumber),
        int_(Int::kUnsigned),
        bits_(v),
        num_(static_cast<double>(v)) {}
  Json(const char* s) : type_(Type::kString), str_(s) {}
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}

  static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }
  static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }

  bool as_bool() const {
    CAPMEM_CHECK(is_bool());
    return bool_;
  }
  /// The number as a double (an exact integer rounds to the nearest).
  double as_number() const {
    CAPMEM_CHECK(is_number());
    return num_;
  }
  /// The exact value of a non-negative integer (an integer lexeme or an
  /// integer constructor argument); nullopt for any other value.
  std::optional<std::uint64_t> as_u64() const {
    if (int_ != Int::kUnsigned) return std::nullopt;
    return bits_;
  }
  const std::string& as_string() const {
    CAPMEM_CHECK(is_string());
    return str_;
  }
  const std::map<std::string, Json>& items() const {
    CAPMEM_CHECK(is_object());
    return obj_;
  }
  const std::vector<Json>& elements() const {
    CAPMEM_CHECK(is_array());
    return arr_;
  }

  /// Object field access; null-typed reference when absent.
  const Json* find(const std::string& key) const;
  /// Object field set (value becomes an object if null).
  Json& set(const std::string& key, Json v);
  /// Array append (value becomes an array if null).
  Json& push(Json v);

  /// Parses exactly one JSON document; trailing non-space bytes, depth
  /// beyond kMaxDepth and duplicate object keys all throw JsonError.
  static Json parse(const std::string& text);

  /// Deterministic single-line serialization (sorted object keys, fixed
  /// number formatting: exact integers as their digits, integral doubles
  /// below 2^53 without exponent, others via %.17g).
  std::string dump() const;

  bool operator==(const Json& o) const;

 private:
  void dump_to(std::string* out) const;

  /// How a number holds an exact integer: not at all (kNone, a double),
  /// negative (kSigned) or non-negative (kUnsigned), its bits in bits_.
  enum class Int : std::uint8_t { kNone, kSigned, kUnsigned };

  Type type_ = Type::kNull;
  bool bool_ = false;
  Int int_ = Int::kNone;
  std::uint64_t bits_ = 0;
  double num_ = 0;  ///< the value; for an exact integer, its nearest double
  std::string str_;
  std::map<std::string, Json> obj_;
  std::vector<Json> arr_;
};

}  // namespace capmem::serve
