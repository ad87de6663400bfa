#include "sim/cache.hpp"

namespace capmem::sim {

SetAssocCache::SetAssocCache(std::uint64_t capacity_bytes, int ways)
    : ways_(ways) {
  CAPMEM_CHECK(ways > 0);
  const std::uint64_t per_way = kLineBytes * static_cast<std::uint64_t>(ways);
  CAPMEM_CHECK_MSG(capacity_bytes % per_way == 0,
                   "capacity must be a multiple of ways*64");
  nsets_ = capacity_bytes / per_way;
  CAPMEM_CHECK(nsets_ > 0);
  if ((nsets_ & (nsets_ - 1)) == 0) mask_ = nsets_ - 1;
  st_.lines.resize(nsets_ * static_cast<std::uint64_t>(ways));
  st_.stamps.resize(nsets_ * static_cast<std::uint64_t>(ways));
}

}  // namespace capmem::sim
