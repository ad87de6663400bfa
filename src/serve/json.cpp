#include "serve/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace capmem::serve {

namespace {

struct Parser {
  const char* p;
  const char* end;

  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError("bad json: " + what + " at byte " +
                    std::to_string(static_cast<std::size_t>(
                        p - begin)));
  }
  const char* begin;

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
      ++p;
  }
  bool eat(char c) {
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!eat(c)) fail(std::string("expected '") + c + "'");
  }
  bool literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (static_cast<std::size_t>(end - p) >= n &&
        std::memcmp(p, lit, n) == 0) {
      p += n;
      return true;
    }
    return false;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (p >= end) fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(*p++);
      if (c == '"') return out;
      if (c == '\\') {
        if (p >= end) fail("unterminated escape");
        const char e = *p++;
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (end - p < 4) fail("short \\u escape");
            unsigned v = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = *p++;
              v <<= 4;
              if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape digit");
            }
            // BMP-only UTF-8 encoding; surrogate halves are rejected.
            if (v >= 0xD800 && v <= 0xDFFF) fail("surrogate \\u escape");
            if (v < 0x80) {
              out.push_back(static_cast<char>(v));
            } else if (v < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (v >> 6)));
              out.push_back(static_cast<char>(0x80 | (v & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (v >> 12)));
              out.push_back(static_cast<char>(0x80 | ((v >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (v & 0x3F)));
            }
            break;
          }
          default: fail("unknown escape");
        }
        continue;
      }
      if (c < 0x20) fail("control byte in string");
      out.push_back(static_cast<char>(c));
    }
  }

  Json parse_value(int depth) {
    if (depth > Json::kMaxDepth) fail("nesting too deep");
    skip_ws();
    if (p >= end) fail("unexpected end of input");
    const char c = *p;
    if (c == '{') {
      ++p;
      Json obj = Json::object();
      skip_ws();
      if (eat('}')) return obj;
      while (true) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        Json v = parse_value(depth + 1);
        if (obj.find(key) != nullptr) fail("duplicate key '" + key + "'");
        obj.set(key, std::move(v));
        skip_ws();
        if (eat(',')) continue;
        expect('}');
        return obj;
      }
    }
    if (c == '[') {
      ++p;
      Json arr = Json::array();
      skip_ws();
      if (eat(']')) return arr;
      while (true) {
        arr.push(parse_value(depth + 1));
        skip_ws();
        if (eat(',')) continue;
        expect(']');
        return arr;
      }
    }
    if (c == '"') return Json(parse_string());
    if (literal("null")) return Json();
    if (literal("true")) return Json(true);
    if (literal("false")) return Json(false);
    // Number: strtod on a validated charset, so "1e" or "-" fail loudly.
    const char* start = p;
    if (eat('-')) {
    }
    bool digits = false;
    bool integer = true;
    while (p < end && std::isdigit(static_cast<unsigned char>(*p))) {
      ++p;
      digits = true;
    }
    if (eat('.')) {
      integer = false;
      while (p < end && std::isdigit(static_cast<unsigned char>(*p))) {
        ++p;
        digits = true;
      }
    }
    if (p < end && (*p == 'e' || *p == 'E')) {
      integer = false;
      ++p;
      if (p < end && (*p == '+' || *p == '-')) ++p;
      bool exp_digits = false;
      while (p < end && std::isdigit(static_cast<unsigned char>(*p))) {
        ++p;
        exp_digits = true;
      }
      if (!exp_digits) fail("bad exponent");
    }
    if (!digits) fail("unexpected token");
    // An integer lexeme keeps its exact value when it fits 64 bits; one
    // that overflows is read as a double, like any other number.
    if (integer) {
      if (*start == '-') {
        std::int64_t v = 0;
        if (std::from_chars(start, p, v).ec == std::errc()) return Json(v);
      } else {
        std::uint64_t v = 0;
        if (std::from_chars(start, p, v).ec == std::errc()) return Json(v);
      }
    }
    const std::string tok(start, p);
    return Json(std::strtod(tok.c_str(), nullptr));
  }
};

void dump_string(const std::string& s, std::string* out) {
  out->push_back('"');
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(ch);
        }
    }
  }
  out->push_back('"');
}

void dump_number(double v, std::string* out) {
  if (std::isnan(v) || std::isinf(v)) {
    // JSON has no NaN/Inf; emit null so the document stays parseable.
    *out += "null";
    return;
  }
  // Integers inside the exactly-representable range print without a
  // fraction — the stable form the cache keys hash.
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(v));
    *out += buf;
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out += buf;
}

}  // namespace

const Json* Json::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const auto it = obj_.find(key);
  return it == obj_.end() ? nullptr : &it->second;
}

Json& Json::set(const std::string& key, Json v) {
  if (is_null()) type_ = Type::kObject;
  CAPMEM_CHECK(is_object());
  obj_[key] = std::move(v);
  return *this;
}

Json& Json::push(Json v) {
  if (is_null()) type_ = Type::kArray;
  CAPMEM_CHECK(is_array());
  arr_.push_back(std::move(v));
  return *this;
}

Json Json::parse(const std::string& text) {
  Parser parser{text.data(), text.data() + text.size(), text.data()};
  Json v = parser.parse_value(0);
  parser.skip_ws();
  if (parser.p != parser.end) parser.fail("trailing bytes after document");
  return v;
}

void Json::dump_to(std::string* out) const {
  switch (type_) {
    case Type::kNull: *out += "null"; return;
    case Type::kBool: *out += bool_ ? "true" : "false"; return;
    case Type::kNumber:
      if (int_ == Int::kUnsigned) {
        *out += std::to_string(bits_);
      } else if (int_ == Int::kSigned) {
        *out += std::to_string(static_cast<std::int64_t>(bits_));
      } else {
        dump_number(num_, out);
      }
      return;
    case Type::kString: dump_string(str_, out); return;
    case Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [k, v] : obj_) {  // std::map: sorted, deterministic
        if (!first) out->push_back(',');
        first = false;
        dump_string(k, out);
        out->push_back(':');
        v.dump_to(out);
      }
      out->push_back('}');
      return;
    }
    case Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const Json& v : arr_) {
        if (!first) out->push_back(',');
        first = false;
        v.dump_to(out);
      }
      out->push_back(']');
      return;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(&out);
  return out;
}

bool Json::operator==(const Json& o) const {
  if (type_ != o.type_) return false;
  switch (type_) {
    case Type::kNull: return true;
    case Type::kBool: return bool_ == o.bool_;
    case Type::kNumber:
      // Two exact integers compare exactly; otherwise as doubles.
      if (int_ != Int::kNone && o.int_ != Int::kNone) {
        return int_ == o.int_ && bits_ == o.bits_;
      }
      return num_ == o.num_;
    case Type::kString: return str_ == o.str_;
    case Type::kObject: return obj_ == o.obj_;
    case Type::kArray: return arr_ == o.arr_;
  }
  return false;
}

}  // namespace capmem::serve
