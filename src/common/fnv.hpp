// FNV-1a 64-bit: the one content/checksum hash of the repo (CAPSNAP1
// snapshot checksums and digests, CAPFILE1 seals, serve cache keys). Not
// cryptographic — it guards against truncation, bit rot and accidental
// cross-config loads, which is the threat model of a local cache file.
//
// Zero runs are folded instead of hashed byte by byte. For a zero byte the
// FNV-1a step is h = (h ^ 0) * P = h * P, so a run of n zero bytes is
// exactly h *= P^n (mod 2^64). The hasher counts pending zeros and applies
// P^n from a table of P^(2^k) — popcount(n) multiplies — before the next
// non-zero byte. The value is bit-identical to the byte-serial loop; only
// the cost of the zeros changes, which is what dominates snapshot bytes
// (the empty ways of the cache tag and stamp planes).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <string>

#include "common/byte_order.hpp"

namespace capmem::common {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Streaming FNV-1a with the same surface as the snapshot byte writer
/// (u8/u32/u64/i32/i64/f64/str/raw, all little-endian), so one encoder can
/// either write bytes or hash them.
class Fnv1a {
 public:
  explicit Fnv1a(std::uint64_t seed = kFnvOffset) : h_(seed) {}

  void u8(std::uint8_t v) { word(v, 1); }
  void u32(std::uint32_t v) { word(v, 4); }
  void u64(std::uint64_t v) { word(v, 8); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    raw(s.data(), s.size());
  }
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) word(load_le<std::uint64_t>(b + i), 8);
    for (; i < n; ++i) word(b[i], 1);
  }

  /// Streams `n` zero bytes without touching them: they join the pending
  /// run, so the cost is independent of `n`.
  void zeros(std::uint64_t n) { zeros_ += n; }

  /// The hash of everything streamed so far (pending zeros included).
  std::uint64_t value() const { return h_ * prime_pow(zeros_); }

 private:
  /// P^n mod 2^64 from the P^(2^k) table: popcount(n) multiplies.
  static std::uint64_t prime_pow(std::uint64_t n) {
    std::uint64_t r = 1;
    for (; n != 0; n &= n - 1) r *= kPow2[std::countr_zero(n)];
    return r;
  }

  /// Streams the low `nbytes` bytes of `v`, least significant first. Zero
  /// bytes below the lowest and above the highest non-zero byte join the
  /// pending run; the bytes between them are hashed one at a time.
  void word(std::uint64_t v, int nbytes) {
    if (v == 0) {
      zeros_ += static_cast<std::uint64_t>(nbytes);
      return;
    }
    const int lo = std::countr_zero(v) / 8;
    const int hi = (std::bit_width(v) + 7) / 8;
    h_ *= prime_pow(zeros_ + static_cast<std::uint64_t>(lo));
    for (int i = lo; i < hi; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * kFnvPrime;
    }
    zeros_ = static_cast<std::uint64_t>(nbytes - hi);
  }

  static constexpr std::array<std::uint64_t, 64> kPow2 = [] {
    std::array<std::uint64_t, 64> t{};
    std::uint64_t p = kFnvPrime;
    for (auto& e : t) {
      e = p;
      p *= p;
    }
    return t;
  }();

  std::uint64_t h_;
  std::uint64_t zeros_ = 0;  ///< zero bytes streamed but not yet multiplied in
};

/// FNV-1a 64-bit over `n` bytes, continuing from `seed` (chainable: pass a
/// previous result as the seed to hash a concatenation).
inline std::uint64_t fnv1a(const void* data, std::size_t n,
                           std::uint64_t seed = kFnvOffset) {
  Fnv1a h(seed);
  h.raw(data, n);
  return h.value();
}

}  // namespace capmem::common
