#include "serve/cache.hpp"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/atomic_file.hpp"
#include "common/check.hpp"
#include "serve/protocol.hpp"

namespace capmem::serve {

namespace {

void ensure_dir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) return;
  throw CheckError("cannot create directory '" + path +
                   "': " + std::strerror(errno));
}

}  // namespace

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {
  ensure_dir(dir_);
}

std::string ResultCache::shard_dir(std::uint64_t key) const {
  char shard[16];
  std::snprintf(shard, sizeof(shard), "shard-%x",
                static_cast<unsigned>(key >> 60));
  return dir_ + "/" + shard;
}

std::string ResultCache::entry_path(std::uint64_t key) const {
  return shard_dir(key) + "/" + key_hex(key) + ".res";
}

void ResultCache::make_dir_once(unsigned bit, const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if ((made_shards_ & (1u << bit)) == 0) {
    ensure_dir(path);
    made_shards_ |= 1u << bit;
  }
}

void ResultCache::write_entry(std::uint64_t key,
                              const std::vector<std::uint8_t>& sealed) {
  make_dir_once(static_cast<unsigned>(key >> 60), shard_dir(key));
  const std::string path = entry_path(key);
  // The fsync'd write runs unlocked; only the rename that publishes it is
  // ordered against quarantine moves.
  const std::string tmp =
      common::write_temp_file(path, sealed.data(), sealed.size());
  std::lock_guard<std::mutex> lock(mu_);
  common::rename_over(tmp, path);
  ++stats_.stores;
}

std::string ResultCache::quarantine_path(std::uint64_t key) const {
  return dir_ + "/quarantine/" + key_hex(key) + ".bad";
}

bool ResultCache::lookup(std::uint64_t key, std::string* result,
                         std::string* reason) {
  const std::string path = entry_path(key);
  std::vector<std::uint8_t> bytes;
  common::FileId read_id;
  if (!common::read_file(path, &bytes, &read_id)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    return false;
  }
  try {
    common::Unsealed u = common::unseal(bytes, kServeFormatVersion);
    result->assign(reinterpret_cast<const char*>(u.payload.data()),
                   u.payload.size());
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.hits;
    return true;
  } catch (const common::FileFormatError& e) {
    const std::string why =
        std::string(common::to_string(e.kind())) + ": " + e.what();
    // Either way the caller recomputes, same as a plain miss.
    const bool moved = quarantine(key, path, read_id, why);
    if (moved && reason) *reason = why;
    std::lock_guard<std::mutex> lock(mu_);
    if (moved) ++stats_.corrupt;
    ++stats_.misses;
    return false;
  }
}

void ResultCache::store(std::uint64_t key, const std::string& result) {
  std::vector<std::uint8_t> payload(result.begin(), result.end());
  const std::vector<std::uint8_t> sealed =
      common::seal(kServeFormatVersion, payload);
  write_entry(key, sealed);
}

void ResultCache::store_truncated(std::uint64_t key,
                                  const std::string& result,
                                  std::size_t keep_bytes) {
  std::vector<std::uint8_t> payload(result.begin(), result.end());
  std::vector<std::uint8_t> sealed =
      common::seal(kServeFormatVersion, payload);
  if (keep_bytes < sealed.size()) sealed.resize(keep_bytes);
  write_entry(key, sealed);
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

bool ResultCache::quarantine(std::uint64_t key, const std::string& path,
                             const common::FileId& read_id,
                             const std::string& why) {
  make_dir_once(kQuarantineBit, dir_ + "/quarantine");
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Stores publish under mu_, so the path still names the file that was
    // read exactly when its identity is unchanged. Otherwise a concurrent
    // store replaced it (or a concurrent lookup moved it aside already),
    // and the entry there now is not the one found corrupt.
    common::FileId now;
    if (!common::file_id(path, &now) || !(now == read_id)) return false;
    // rename(2): atomic move-aside; the entry slot is free for the rewrite.
    const std::string bad = quarantine_path(key);
    if (std::rename(path.c_str(), bad.c_str()) != 0) {
      std::remove(path.c_str());  // same directory tree; removal suffices
    }
  }
  const std::string reason_path =
      dir_ + "/quarantine/" + key_hex(key) + ".reason";
  common::atomic_write_file(reason_path, why + "\n");
  return true;
}

}  // namespace capmem::serve
