// Crash-safe file writing shared by every layer that persists state.
//
// Two disciplines, composable:
//
//   * atomic_write_file: write-to-temp + fsync + rename in the target's own
//     directory, so a reader (or a process that died mid-write and was
//     restarted) sees either the complete old bytes or the complete new
//     bytes, never a torn prefix. This is the write path of the serve-layer
//     result cache and of the fuzz_diff --checkpoint ledger.
//
//   * seal/unseal: a checksummed envelope ("CAPFILE1" magic, caller version
//     word, payload length, FNV-1a checksum — the same codec discipline as
//     the CAPSNAP1 snapshot format) for content that must additionally
//     survive *disk* corruption: a bit flip or an out-of-band truncation is
//     detected on read and reported as a structured FileFormatError, never
//     decoded into garbage.
//
// Neither helper retries: callers that can recover (the serve cache
// quarantines and recomputes; the ledger rewrites next checkpoint) decide
// policy; this file only guarantees detection and atomicity.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/fnv.hpp"

namespace capmem::common {

/// Structured failure decoding a sealed file. Mirrors snap::SnapError's
/// taxonomy so harnesses can branch on *why* bytes were rejected.
class FileFormatError : public CheckError {
 public:
  enum class Kind {
    kTruncated,        ///< fewer bytes than the header promises
    kBadMagic,         ///< not a sealed capmem file at all
    kVersionMismatch,  ///< sealed under a different caller version
    kCorrupt,          ///< checksum mismatch: bytes changed after sealing
  };
  FileFormatError(Kind kind, const std::string& what)
      : CheckError(what), kind_(kind) {}
  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

const char* to_string(FileFormatError::Kind k);

/// Writes `data` to `path` atomically: a uniquely named temp file in the
/// same directory, fsync, then rename over the target. Throws CheckError
/// when the filesystem refuses (unwritable directory, rename failure);
/// the temp file is unlinked on every failure path.
void atomic_write_file(const std::string& path, const void* data,
                       std::size_t n);
/// The same write in its two halves, for callers that must publish under
/// their own lock: write_temp_file writes `data` to a uniquely named,
/// fsync'd temp file beside `path` and returns its name; rename_over
/// renames it over `path`. Each throws CheckError and unlinks the temp on
/// failure.
std::string write_temp_file(const std::string& path, const void* data,
                            std::size_t n);
void rename_over(const std::string& tmp, const std::string& path);
void atomic_write_file(const std::string& path, const std::string& text);
void atomic_write_file(const std::string& path,
                       const std::vector<std::uint8_t>& bytes);

/// Wraps `payload` in the checksummed envelope:
///   "CAPFILE1" | u32 version | u64 payload length | payload | u64 fnv
/// (all integers little-endian; the checksum covers everything before it).
std::vector<std::uint8_t> seal(std::uint32_t version,
                               const std::vector<std::uint8_t>& payload);

/// Validates and strips the envelope. `expect_version` >= 0 additionally
/// requires that exact caller version. Throws FileFormatError.
struct Unsealed {
  std::uint32_t version = 0;
  std::vector<std::uint8_t> payload;
};
Unsealed unseal(const std::vector<std::uint8_t>& bytes,
                std::int64_t expect_version = -1);

/// Identity of a file (device, inode). Every rename_over gives its path a
/// new identity, so equal ids mean the path still names the same file.
struct FileId {
  std::uint64_t dev = 0;
  std::uint64_t ino = 0;
  bool operator==(const FileId&) const = default;
};

/// Reads a whole file to its end; false when it does not exist. Throws
/// CheckError on read errors other than absence. `id` (nullable) receives
/// the identity of the file read.
bool read_file(const std::string& path, std::vector<std::uint8_t>* out,
               FileId* id = nullptr);

/// Identity of the file `path` names now; false when it names none.
bool file_id(const std::string& path, FileId* id);

}  // namespace capmem::common
