// Sharded, content-addressed, crash-safe persistent result cache.
//
// Layout under the cache directory:
//
//   shard-0 .. shard-f/          entries, sharded by the key's top nibble
//     <16 hex digits>.res        common::seal'd canonical result dump
//   quarantine/
//     <16 hex digits>.bad        rejected entry bytes, moved aside
//     <16 hex digits>.reason     one-line structured rejection reason
//
// The entry payload is the canonical Json dump of a reply's "result"
// object; serving a hit splices that string verbatim into the reply, which
// is what makes warm replies byte-identical to cold recomputation.
//
// Crash safety is layered: writes go through atomic_write_file (temp +
// fsync + rename), so a crash can only ever leave the old bytes or the new
// bytes; seal/unseal adds a per-entry FNV checksum + version word, so an
// entry corrupted *after* landing (bit rot, out-of-band truncation, a
// different build's format) is detected on read, moved to quarantine/ with
// a structured reason, and reported as a miss — corrupt bytes are never
// served, and the recomputed result overwrites the slot.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/atomic_file.hpp"

namespace capmem::serve {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t corrupt = 0;  ///< entries rejected and quarantined
  std::uint64_t stores = 0;
};

class ResultCache {
 public:
  /// Opens a cache rooted at `dir`. Throws CheckError when the root cannot
  /// be created. A shard or quarantine directory is created by the first
  /// write into it, so opening costs one mkdir, not eighteen: directory
  /// creation stalls behind a busy filesystem journal (fsync'd entry writes
  /// and deletions), and a server opens its cache on every start.
  explicit ResultCache(std::string dir);

  /// Looks up `key`. On a valid hit, fills `*result` with the stored
  /// canonical dump and returns true. A missing entry is a plain miss. An
  /// invalid entry (bad magic, version skew, checksum mismatch, torn
  /// payload) is quarantined, `*reason` (nullable) gets the structured
  /// kind, and the lookup reports a miss so the caller recomputes.
  bool lookup(std::uint64_t key, std::string* result, std::string* reason);

  /// Stores the canonical result dump for `key` (seal + atomic write).
  void store(std::uint64_t key, const std::string& result);

  /// Chaos hook: writes the entry with its sealed bytes truncated to
  /// `keep_bytes` — the on-disk image a non-atomic writer would leave if
  /// killed mid-write. The next lookup must quarantine it.
  void store_truncated(std::uint64_t key, const std::string& result,
                       std::size_t keep_bytes);

  CacheStats stats() const;
  const std::string& dir() const { return dir_; }
  /// Path of the entry file for `key` (for tests and chaos kills).
  std::string entry_path(std::uint64_t key) const;
  /// Path of the quarantined bytes for `key` ("" + .reason beside it).
  std::string quarantine_path(std::uint64_t key) const;

 private:
  /// Bit of made_shards_ that records the quarantine directory.
  static constexpr unsigned kQuarantineBit = 16;

  /// Moves the entry at `path` aside with a reason file, unless `path` no
  /// longer names the file `read_id` identifies. Returns whether it moved.
  bool quarantine(std::uint64_t key, const std::string& path,
                  const common::FileId& read_id, const std::string& why);
  std::string shard_dir(std::uint64_t key) const;
  /// Creates `path` the first time this cache needs it (made_shards_ bit).
  void make_dir_once(unsigned bit, const std::string& path);
  /// Writes sealed entry bytes, creating the shard directory first if this
  /// cache has not yet.
  void write_entry(std::uint64_t key, const std::vector<std::uint8_t>& sealed);

  std::string dir_;
  /// Guards stats_ and made_shards_, and orders the rename that publishes
  /// an entry against a quarantine's identity check and move. File reads
  /// and fsync'd writes run outside it, so one request's disk I/O never
  /// blocks another's lookup.
  mutable std::mutex mu_;
  CacheStats stats_;
  /// Bit i < 16: shard-i exists; bit kQuarantineBit: quarantine/ exists.
  std::uint32_t made_shards_ = 0;
};

}  // namespace capmem::serve
