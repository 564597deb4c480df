#include "core/cover_index.h"

#include <algorithm>

#include "hypergraph/kernels.h"
#include "obs/obs.h"
#include "util/hash_mix.h"

namespace ghd {
namespace {

// Per-thread scoring scratch: grown once, so CandidatesFor allocates nothing
// after warmup beyond the caller's output vector.
struct ScoreScratch {
  std::vector<int32_t> ids;
  std::vector<int> conn_cover;
  std::vector<int> comp_cover;
};

ScoreScratch& Scratch() {
  thread_local ScoreScratch scratch;
  return scratch;
}

}  // namespace

CoverIndex::CoverIndex(const Hypergraph& h, const GuardFamily& family)
    : family_(&family),
      num_guards_(family.size()),
      guards_containing_(h.num_vertices(), family.size()),
      guard_bits_(family.size(), h.num_vertices()) {
  for (int g = 0; g < num_guards_; ++g) {
    guard_bits_.SetRow(g, family.guards[g]);
    family.guards[g].ForEach([&](int v) {
      guards_containing_.row(v)[g >> 6] |= uint64_t{1} << (g & 63);
    });
  }
}

VertexSet CoverIndex::GuardsTouching(const VertexSet& vertices) const {
  return kernels::UnionRows(guards_containing_, vertices);
}

void CoverIndex::CandidatesFor(const VertexSet& v_comp, const VertexSet& conn,
                               std::vector<int>* out) const {
  const VertexSet touching = GuardsTouching(v_comp);
  ScoreScratch& s = Scratch();
  s.ids.clear();
  touching.ForEach([&](int g) { s.ids.push_back(g); });
  const int count = static_cast<int>(s.ids.size());
  s.conn_cover.resize(count);
  s.comp_cover.resize(count);
  // Batched |guard ∩ conn| / |guard ∩ v_comp| over the guard_bits strip:
  // identical values to per-guard VertexSet::IntersectCount, computed 4
  // words x 2 rows at a time.
  kernels::AndPopcountRows(conn.word_data(), guard_bits_, s.ids.data(), count,
                           s.conn_cover.data());
  kernels::AndPopcountRows(v_comp.word_data(), guard_bits_, s.ids.data(),
                           count, s.comp_cover.data());
  struct Scored {
    int conn_cover;  // |guard ∩ conn|; > 0 sorts before == 0
    int comp_cover;  // |guard ∩ v_comp|
    int guard;
  };
  std::vector<Scored> scored;
  scored.reserve(count);
  for (int i = 0; i < count; ++i) {
    scored.push_back(Scored{s.conn_cover[i], s.comp_cover[i], s.ids[i]});
  }
  std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    const bool a_conn = a.conn_cover > 0;
    const bool b_conn = b.conn_cover > 0;
    if (a_conn != b_conn) return a_conn;
    if (a_conn && a.conn_cover != b.conn_cover) {
      return a.conn_cover > b.conn_cover;
    }
    if (a.comp_cover != b.comp_cover) return a.comp_cover > b.comp_cover;
    return a.guard < b.guard;
  });
  out->clear();
  out->reserve(scored.size());
  for (const Scored& sc : scored) out->push_back(sc.guard);
  GHD_HISTO(kLambdaCandidates, static_cast<long>(out->size()));
}

NegSeparatorCache::NegSeparatorCache(size_t slot_count) {
  size_t n = 1;
  while (n < slot_count) n <<= 1;
  mask_ = n - 1;
}

size_t NegSeparatorCache::SlotOf(uint64_t key) const {
  return static_cast<size_t>(SplitMix64(key)) & mask_;
}

bool NegSeparatorCache::Contains(uint64_t key) const {
  return !slots_.empty() && slots_[SlotOf(key)] == key;
}

void NegSeparatorCache::Insert(uint64_t key) {
  if (slots_.empty()) slots_.assign(mask_ + 1, 0);
  slots_[SlotOf(key)] = key;
}

}  // namespace ghd
