#include "exec/host.hpp"

#include <chrono>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace capmem::exec {

std::uint64_t host_peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024ull;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

double host_now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace capmem::exec
