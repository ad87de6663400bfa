// common::Fnv1a folds zero runs as h *= P^n instead of hashing each zero
// byte. These tests hold it to the plain byte-serial FNV-1a loop on seeded
// buffers shaped to hit every folding edge: zero runs of every short length
// and across word and page boundaries, unaligned starts, odd tails, all
// zeros, a lone trailing non-zero byte, and seeds chained between calls.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/fnv.hpp"
#include "common/rng.hpp"

namespace capmem::common {
namespace {

std::uint64_t byte_loop(const std::uint8_t* p, std::size_t n,
                        std::uint64_t h = kFnvOffset) {
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kFnvPrime;
  return h;
}

std::uint64_t byte_loop(const std::vector<std::uint8_t>& b) {
  return byte_loop(b.data(), b.size());
}

/// Random bytes, about a third of them zero, so short zero runs and zero
/// bytes inside non-zero words are common.
std::vector<std::uint8_t> noise(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> b(n);
  for (auto& v : b) {
    const std::uint64_t r = rng.next_u64();
    v = r % 3 == 0 ? 0 : static_cast<std::uint8_t>(r >> 8);
  }
  return b;
}

TEST(Fnv1a, ZeroRunsOfEveryLengthMatchTheByteLoop) {
  Rng rng(1);
  std::vector<std::size_t> runs;
  for (std::size_t n = 0; n <= 64; ++n) runs.push_back(n);
  for (std::size_t n : {4095u, 4096u, 4097u, (1u << 20) + 3u}) {
    runs.push_back(n);
  }
  for (std::size_t run : runs) {
    for (std::size_t head : {0u, 1u, 5u, 8u, 13u}) {
      std::vector<std::uint8_t> b = noise(rng, head);
      b.insert(b.end(), run, 0);
      const std::vector<std::uint8_t> tail = noise(rng, 11);
      b.insert(b.end(), tail.begin(), tail.end());
      EXPECT_EQ(fnv1a(b.data(), b.size()), byte_loop(b))
          << "zero run " << run << " after " << head << " bytes";
    }
  }
}

TEST(Fnv1a, UnalignedStartsAndOddTailsMatchTheByteLoop) {
  Rng rng(2);
  std::vector<std::uint8_t> b = noise(rng, 4096);
  std::fill(b.begin() + 700, b.begin() + 2100, 0);  // a long run inside
  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t len : {0u, 1u, 7u, 9u, 63u, 1001u, 2047u, 4000u}) {
      if (off + len > b.size()) continue;
      EXPECT_EQ(fnv1a(b.data() + off, len), byte_loop(b.data() + off, len))
          << "offset " << off << " length " << len;
    }
  }
}

TEST(Fnv1a, AllZeroAndLoneTrailingByteMatchTheByteLoop) {
  for (std::size_t n : {1u, 8u, 15u, 4096u, 100003u}) {
    std::vector<std::uint8_t> b(n, 0);
    EXPECT_EQ(fnv1a(b.data(), n), byte_loop(b)) << "all-zero " << n;
    b.back() = 0x80;
    EXPECT_EQ(fnv1a(b.data(), n), byte_loop(b)) << "last byte only " << n;
  }
  EXPECT_EQ(fnv1a(nullptr, 0), kFnvOffset);
}

TEST(Fnv1a, ChainedSeedsMatchTheConcatenation) {
  // The serve cache key hashes a version word, then the schema hash, then
  // the canonical request, each call seeded with the previous result.
  Rng rng(3);
  const std::uint32_t version = 2;
  const std::uint64_t schema = 0x00000000ffff0000ull;
  const std::string canon =
      "{\"a\":0,\"b\":\"" + std::string(40, '\0') + "\"}";
  std::uint64_t h = fnv1a(&version, sizeof(version));
  h = fnv1a(&schema, sizeof(schema), h);
  h = fnv1a(canon.data(), canon.size(), h);

  std::vector<std::uint8_t> all(sizeof(version) + sizeof(schema));
  std::memcpy(all.data(), &version, sizeof(version));
  std::memcpy(all.data() + sizeof(version), &schema, sizeof(schema));
  all.insert(all.end(), canon.begin(), canon.end());
  EXPECT_EQ(h, byte_loop(all));

  const std::vector<std::uint8_t> b = noise(rng, 777);
  const std::uint64_t seed = 0x0123456789abcdefull;
  EXPECT_EQ(fnv1a(b.data(), b.size(), seed),
            byte_loop(b.data(), b.size(), seed));
}

TEST(Fnv1a, TypedFieldsHashTheirLittleEndianBytes) {
  // The streaming surface must see exactly the bytes the snapshot writer
  // emits: each field little-endian, in call order.
  Rng rng(4);
  std::vector<std::uint8_t> bytes;
  auto le = [&bytes](std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) bytes.push_back((v >> (8 * i)) & 0xff);
  };
  Fnv1a h;
  for (int i = 0; i < 2000; ++i) {
    // Values with zero low, middle and high bytes, and plain zeros.
    const std::uint64_t r = rng.next_u64();
    const std::uint64_t v = r & (~0ull << (r % 64)) & (~0ull >> (r % 61));
    const std::uint64_t neg = 0 - (v % 100);  // two's complement bytes
    const double d = static_cast<double>(v % 7) * 0.5;
    switch (rng.next_u64() % 8) {
      case 0:
        h.u8(static_cast<std::uint8_t>(v));
        le(v, 1);
        break;
      case 1:
        h.u32(static_cast<std::uint32_t>(v));
        le(v, 4);
        break;
      case 2:
        h.u64(v);
        le(v, 8);
        break;
      case 3:
        h.i32(-static_cast<std::int32_t>(v % 100));
        le(neg, 4);
        break;
      case 4:
        h.i64(-static_cast<std::int64_t>(v % 100));
        le(neg, 8);
        break;
      case 5:
        h.f64(d);
        le(std::bit_cast<std::uint64_t>(d), 8);
        break;
      case 6:
        h.raw(&v, 0);
        h.u64(0);
        le(0, 8);
        break;
      default: {
        const std::string s(v % 19, v % 2 ? 'x' : '\0');
        h.str(s);
        le(s.size(), 8);
        bytes.insert(bytes.end(), s.begin(), s.end());
      }
    }
    ASSERT_EQ(h.value(), byte_loop(bytes)) << "after field " << i;
  }
}

}  // namespace
}  // namespace capmem::common
