#include "common/atomic_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

namespace capmem::common {

namespace {

constexpr char kMagic[8] = {'C', 'A', 'P', 'F', 'I', 'L', 'E', '1'};
constexpr std::size_t kHeaderBytes = 8 + 4 + 8;  // magic, version, length
constexpr std::size_t kChecksumBytes = 8;

[[noreturn]] void fail_errno(const std::string& what, const std::string& path) {
  std::ostringstream os;
  os << what << " '" << path << "': " << std::strerror(errno);
  throw CheckError(os.str());
}

}  // namespace

const char* to_string(FileFormatError::Kind k) {
  switch (k) {
    case FileFormatError::Kind::kTruncated: return "truncated";
    case FileFormatError::Kind::kBadMagic: return "bad-magic";
    case FileFormatError::Kind::kVersionMismatch: return "version-mismatch";
    case FileFormatError::Kind::kCorrupt: return "corrupt";
  }
  return "?";
}

std::string write_temp_file(const std::string& path, const void* data,
                            std::size_t n) {
  // Temp file in the target's directory so the rename cannot cross a
  // filesystem boundary (rename is only atomic within one).
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash);
  std::string tmp = dir + "/.captmp.XXXXXX";
  std::vector<char> tmpl(tmp.begin(), tmp.end());
  tmpl.push_back('\0');
  const int fd = ::mkstemp(tmpl.data());
  if (fd < 0) fail_errno("atomic_write_file: cannot create temp in", dir);
  tmp.assign(tmpl.data());

  const auto* p = static_cast<const std::uint8_t*>(data);
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, p + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      fail_errno("atomic_write_file: write to", tmp);
    }
    off += static_cast<std::size_t>(w);
  }
  // fsync before rename: a crash right after the rename must not leave the
  // new name pointing at unflushed bytes.
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    fail_errno("atomic_write_file: fsync", tmp);
  }
  ::close(fd);
  return tmp;
}

void rename_over(const std::string& tmp, const std::string& path) {
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    fail_errno("atomic_write_file: rename to", path);
  }
}

void atomic_write_file(const std::string& path, const void* data,
                       std::size_t n) {
  rename_over(write_temp_file(path, data, n), path);
}

void atomic_write_file(const std::string& path, const std::string& text) {
  atomic_write_file(path, text.data(), text.size());
}

void atomic_write_file(const std::string& path,
                       const std::vector<std::uint8_t>& bytes) {
  atomic_write_file(path, bytes.data(), bytes.size());
}

std::vector<std::uint8_t> seal(std::uint32_t version,
                               const std::vector<std::uint8_t>& payload) {
  const std::size_t body = kHeaderBytes + payload.size();
  std::vector<std::uint8_t> out(body + kChecksumBytes);
  std::copy(kMagic, kMagic + sizeof(kMagic), out.begin());
  store_le(out.data() + 8, version);
  store_le<std::uint64_t>(out.data() + 12, payload.size());
  std::copy(payload.begin(), payload.end(), out.begin() + kHeaderBytes);
  store_le(out.data() + body, fnv1a(out.data(), body));
  return out;
}

Unsealed unseal(const std::vector<std::uint8_t>& bytes,
                std::int64_t expect_version) {
  using Kind = FileFormatError::Kind;
  if (bytes.size() < kHeaderBytes) {
    throw FileFormatError(
        Kind::kTruncated,
        "sealed file truncated: " + std::to_string(bytes.size()) +
            " byte(s), header needs " + std::to_string(kHeaderBytes));
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    throw FileFormatError(Kind::kBadMagic,
                          "sealed file has wrong magic (not CAPFILE1)");
  }
  const auto version = load_le<std::uint32_t>(bytes.data() + 8);
  const auto payload_len = load_le<std::uint64_t>(bytes.data() + 12);
  // Measured against the bytes past the header, so no length can wrap.
  const std::size_t room = bytes.size() - kHeaderBytes - kChecksumBytes;
  if (bytes.size() < kHeaderBytes + kChecksumBytes || payload_len > room) {
    throw FileFormatError(
        Kind::kTruncated,
        "sealed file truncated: " + std::to_string(bytes.size()) +
            " byte(s), header promises a " + std::to_string(payload_len) +
            "-byte payload");
  }
  if (payload_len < room) {
    throw FileFormatError(Kind::kCorrupt,
                          "sealed file has trailing bytes after checksum");
  }
  const std::size_t body = kHeaderBytes + payload_len;
  const auto stored = load_le<std::uint64_t>(bytes.data() + body);
  const std::uint64_t computed = fnv1a(bytes.data(), body);
  if (stored != computed) {
    throw FileFormatError(
        Kind::kCorrupt,
        "sealed file checksum mismatch — bytes changed after sealing");
  }
  if (expect_version >= 0 &&
      version != static_cast<std::uint32_t>(expect_version)) {
    throw FileFormatError(
        Kind::kVersionMismatch,
        "sealed file version " + std::to_string(version) +
            ", this binary expects " + std::to_string(expect_version));
  }
  Unsealed u;
  u.version = version;
  u.payload.assign(bytes.begin() + static_cast<std::ptrdiff_t>(kHeaderBytes),
                   bytes.begin() + static_cast<std::ptrdiff_t>(body));
  return u;
}

bool read_file(const std::string& path, std::vector<std::uint8_t>* out,
               FileId* id) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return false;
    fail_errno("read_file: cannot open", path);
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    fail_errno("read_file: cannot stat", path);
  }
  if (id) *id = FileId{static_cast<std::uint64_t>(st.st_dev),
                       static_cast<std::uint64_t>(st.st_ino)};
  // Read to end of file rather than trusting st_size, which is 0 for pipes.
  out->resize(static_cast<std::size_t>(st.st_size > 0 ? st.st_size : 0) + 1);
  std::size_t len = 0;
  for (;;) {
    if (len == out->size()) out->resize(2 * len);
    const ssize_t r = ::read(fd, out->data() + len, out->size() - len);
    if (r == 0) break;
    if (r < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      fail_errno("read_file: read from", path);
    }
    len += static_cast<std::size_t>(r);
  }
  ::close(fd);
  out->resize(len);
  return true;
}

bool file_id(const std::string& path, FileId* id) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return false;
  *id = FileId{static_cast<std::uint64_t>(st.st_dev),
               static_cast<std::uint64_t>(st.st_ino)};
  return true;
}

}  // namespace capmem::common
