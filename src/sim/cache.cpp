#include "sim/cache.hpp"

namespace capmem::sim {

SetAssocCache::SetAssocCache(std::uint64_t capacity_bytes, int ways,
                             Planes mode)
    : ways_(ways), lazy_(mode == Planes::kLazy) {
  CAPMEM_CHECK(ways > 0);
  const std::uint64_t per_way = kLineBytes * static_cast<std::uint64_t>(ways);
  CAPMEM_CHECK_MSG(capacity_bytes % per_way == 0,
                   "capacity must be a multiple of ways*64");
  nsets_ = capacity_bytes / per_way;
  CAPMEM_CHECK(nsets_ > 0);
  if ((nsets_ & (nsets_ - 1)) == 0) mask_ = nsets_ - 1;
  // The stamp plane starts one host cache line past the end of the tag
  // plane: were the planes exactly n words apart, a way's tag and stamp
  // would share their low 12 address bits (n is a power of two, usually at
  // least 512), and a probe's tag load after the previous access's stamp
  // store would stall on 4K aliasing.
  const std::size_t n = plane_words();
  constexpr std::size_t kPad = 8;
  if (lazy_) {
    planes_ = std::make_unique_for_overwrite<std::uint64_t[]>(2 * n + kPad);
#ifndef NDEBUG
    // Debug builds (CAPMEM_DCHECK on) poison the never-touched sets, so a
    // read that bypasses the touched bitmap shows up as a digest or golden
    // mismatch instead of silently reading zeros.
    std::fill_n(planes_.get(), 2 * n + kPad,
                std::uint64_t{0xa5a5a5a5a5a5a5a5});
#endif
  } else {
    planes_ = std::make_unique<std::uint64_t[]>(2 * n + kPad);
  }
  lines_ = planes_.get();
  stamps_ = planes_.get() + n + kPad;
  touched_.assign((nsets_ + 63) / 64, 0);
}

state::CacheState SetAssocCache::state() const {
  state::CacheState s;
  s.clock = clock_;
  s.resident = resident_;
  s.lines.assign(plane_words(), 0);
  s.stamps.assign(plane_words(), 0);
  const std::size_t w = static_cast<std::size_t>(ways_);
  for_each_touched_set([&](std::size_t set) {
    std::copy_n(lines_ + set * w, w, s.lines.begin() + set * w);
    std::copy_n(stamps_ + set * w, w, s.stamps.begin() + set * w);
  });
  return s;
}

}  // namespace capmem::sim
