#include "sim/mcdram_cache.hpp"

namespace capmem::sim {

McdramCache::McdramCache(std::uint64_t capacity_bytes)
    : sets_count_(capacity_bytes / kLineBytes) {}

bool McdramCache::probe(Line line) const {
  if (!enabled()) return false;
  const Line* tag = tags_.find(set_of(line));
  return tag != nullptr && *tag == line;
}

McdramCache::Access McdramCache::access(Line line) {
  CAPMEM_CHECK(enabled());
  Access out;
  const auto [h, inserted] = tags_.try_emplace(set_of(line));
  Line& tag = tags_.at(h);
  if (!inserted) {
    if (tag == line) {
      out.hit = true;
      return out;
    }
    out.evicted = tag;
  }
  tag = line;
  return out;
}

void McdramCache::erase(Line line) {
  if (!enabled()) return;
  const Line* tag = tags_.find(set_of(line));
  if (tag != nullptr && *tag == line) tags_.erase(set_of(line));
}


}  // namespace capmem::sim
