#include "util/set_interner.h"

#include "obs/obs.h"
#include "util/check.h"

namespace ghd {

uint32_t SetInterner::Intern(const VertexSet& s, bool* inserted) {
  auto [it, is_new] = ids_.try_emplace(s, 0);
  if (!is_new) {
    GHD_COUNT(kInternerHits);
    if (inserted != nullptr) *inserted = false;
    return it->second;
  }
  GHD_COUNT(kInternerMisses);
  GHD_HISTO(kInternedSetWords, (s.universe_size() + 63) / 64);
  const uint32_t id = static_cast<uint32_t>(by_index_.size());
  GHD_CHECK(by_index_.size() < 0xffffffffu);
  it->second = id;
  by_index_.emplace_back(&it->first, s.Hash());
  if (inserted != nullptr) *inserted = true;
  return id;
}

const VertexSet& SetInterner::Resolve(uint32_t id) const {
  GHD_DCHECK(id < by_index_.size());
  return *by_index_[id].first;
}

uint64_t SetInterner::HashOf(uint32_t id) const {
  GHD_DCHECK(id < by_index_.size());
  return by_index_[id].second;
}

}  // namespace ghd
