// Little-endian load/store: the byte order of every capmem file format
// (CAPSNAP1 snapshots, CAPFILE1 envelopes) and of the FNV-1a word loop.
// The host is little-endian, so a field's wire bytes are its memory bytes
// and a plane of u64 words travels as one memcpy.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace capmem::common {

static_assert(std::endian::native == std::endian::little,
              "capmem file formats store integers as their memory bytes");

/// Writes `v` as sizeof(T) little-endian bytes at `p`.
template <class T>
  requires std::is_arithmetic_v<T>
void store_le(std::uint8_t* p, T v) {
  std::memcpy(p, &v, sizeof v);
}

/// Reads sizeof(T) little-endian bytes at `p`.
template <class T>
  requires std::is_arithmetic_v<T>
T load_le(const std::uint8_t* p) {
  T v{};
  std::memcpy(&v, p, sizeof v);
  return v;
}

}  // namespace capmem::common
