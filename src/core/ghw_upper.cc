#include "core/ghw_upper.h"

#include <algorithm>
#include <optional>

#include "hypergraph/flat_hypergraph.h"
#include "obs/obs.h"
#include "setcover/set_cover.h"
#include "td/bucket_elimination.h"
#include "util/check.h"
#include "util/hash_mix.h"

namespace ghd {
namespace {

// Per-thread buffers of CoverBag, grown once and reused.
struct CoverScratch {
  std::vector<int> edges;
  std::vector<uint64_t> rows;
  std::vector<uint64_t> target;
};

uint64_t HashIds(const std::vector<int>& ids) {
  uint64_t hash = SplitMix64(ids.size());
  for (int v : ids) hash = HashCombine(hash, static_cast<uint64_t>(v));
  return hash;
}

// Calls cover(members) for the coverable part of each elimination bag of
// `ordering` (a vertex in no edge is dropped: condition 3 could not hold for
// it), in elimination order, until cover returns false.
template <typename Cover>
void CoverEliminationBags(const Hypergraph& h,
                          const std::vector<int>& ordering, Cover cover) {
  const std::vector<int32_t>& voff = h.Flat().vertex_offsets();
  std::vector<int> members;
  EliminateAlong(EliminationGraph(h.Flat()), ordering,
                 [&](int, const std::vector<int>& bag) {
                   members = bag;
                   std::erase_if(members,
                                 [&](int u) { return voff[u + 1] == voff[u]; });
                   return cover(members);
                 });
}

int CoverSize(const Hypergraph& h, const std::vector<int>& bag, CoverMode mode,
              CoverMemo* memo) {
  if (memo != nullptr) return memo->Cover(bag);
  return static_cast<int>(CoverBag(h, bag, mode).size());
}

}  // namespace

std::vector<int> CoverBag(const Hypergraph& h, const std::vector<int>& bag,
                          CoverMode mode) {
  const FlatHypergraph& flat = h.Flat();
  const std::vector<int32_t>& voff = flat.vertex_offsets();
  const std::vector<int32_t>& vedges = flat.vertex_edges();
  thread_local CoverScratch scratch;
  CoverScratch& sc = scratch;
  sc.edges.clear();  // edges meeting the bag, ascending
  for (int v : bag) {
    sc.edges.insert(sc.edges.end(), vedges.begin() + voff[v],
                    vedges.begin() + voff[v + 1]);
  }
  std::sort(sc.edges.begin(), sc.edges.end());
  sc.edges.erase(std::unique(sc.edges.begin(), sc.edges.end()),
                 sc.edges.end());
  // Row k is edges[k] ∩ bag over the universe {0..|bag|-1}, member i
  // standing for bag[i].
  internal::SetRows sets;
  sets.universe = static_cast<int>(bag.size());
  sets.words = (sets.universe + 63) / 64;
  sets.count = static_cast<int>(sc.edges.size());
  sc.rows.assign(static_cast<size_t>(sets.count) * sets.words, 0);
  for (int i = 0; i < sets.universe; ++i) {
    const int v = bag[i];
    for (int j = voff[v]; j < voff[v + 1]; ++j) {
      const auto k = std::lower_bound(sc.edges.begin(), sc.edges.end(),
                                      vedges[j]) - sc.edges.begin();
      sc.rows[k * sets.words + (i >> 6)] |= uint64_t{1} << (i & 63);
    }
  }
  sets.data = sc.rows.data();
  sc.target.assign(sets.words, ~uint64_t{0});
  if (sets.universe % 64 != 0) {
    sc.target.back() = (uint64_t{1} << (sets.universe % 64)) - 1;
  }
  std::vector<int> cover;
  if (mode == CoverMode::kExact) {
    auto exact = internal::ExactSetCover(sc.target.data(), sets);
    GHD_CHECK(exact.has_value());  // Unbudgeted exact cover always returns.
    cover = std::move(*exact);
  } else {
    cover = internal::GreedySetCover(sc.target.data(), sets);
  }
  for (int& k : cover) k = sc.edges[k];
  return cover;
}

CoverMemo::CoverMemo(const Hypergraph& h, CoverMode mode)
    : h_(&h), mode_(mode) {}

CoverMemo::Slot* CoverMemo::Find(uint64_t hash, const std::vector<int>& bag) {
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (!slot.used) return &slot;
    if (slot.hash == hash && slot.key_size == bag.size() &&
        std::equal(bag.begin(), bag.end(), pool_.begin() + slot.at)) {
      return &slot;
    }
  }
}

int CoverMemo::Cover(const std::vector<int>& bag, std::vector<int>* cover,
                     bool* computed) {
  const uint64_t hash = HashIds(bag);
  if (!slots_.empty()) {
    const Slot* slot = Find(hash, bag);
    if (slot->used) {
      GHD_COUNT(kCoverCacheHits);
      if (computed != nullptr) *computed = false;
      const auto first = pool_.begin() + slot->at + slot->key_size;
      if (cover != nullptr) cover->assign(first, first + slot->cover_size);
      return static_cast<int>(slot->cover_size);
    }
  }
  GHD_COUNT(kCoverCacheMisses);
  if (computed != nullptr) *computed = true;
  std::vector<int> fresh = CoverBag(*h_, bag, mode_);
  const int size = static_cast<int>(fresh.size());
  // Keep the table at most half full.
  if (2 * (entries_ + 1) > slots_.size()) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max<size_t>(16, 2 * old.size()), Slot{});
    const size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (!s.used) continue;
      size_t i = s.hash & mask;
      while (slots_[i].used) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }
  Slot* slot = Find(hash, bag);
  slot->used = true;
  slot->hash = hash;
  slot->at = static_cast<uint32_t>(pool_.size());
  slot->key_size = static_cast<uint32_t>(bag.size());
  slot->cover_size = static_cast<uint32_t>(size);
  pool_.insert(pool_.end(), bag.begin(), bag.end());
  pool_.insert(pool_.end(), fresh.begin(), fresh.end());
  ++entries_;
  if (cover != nullptr) *cover = std::move(fresh);
  return size;
}

GhwUpperBoundResult GhwFromOrdering(const Hypergraph& h,
                                    const std::vector<int>& ordering,
                                    CoverMode mode, CoverMemo* memo) {
  GHD_CHECK(memo == nullptr || memo->mode() == mode);
  // Vertices in no hyperedge may not appear in bags (condition 3 would be
  // unsatisfiable); their elimination bags are emptied.
  const VertexSet covered = h.CoveredVertices();
  TreeDecomposition td = TdFromOrdering(EliminationGraph(h.Flat()), ordering);
  GhwUpperBoundResult result;
  result.ordering = ordering;
  result.ghd.tree_edges = td.tree_edges;
  result.ghd.bags.reserve(td.bags.size());
  result.ghd.guards.reserve(td.bags.size());
  for (VertexSet& bag : td.bags) {
    bag &= covered;
    const std::vector<int> members = bag.ToVector();
    std::vector<int> lambda;
    if (memo != nullptr) {
      memo->Cover(members, &lambda);
    } else {
      lambda = CoverBag(h, members, mode);
    }
    result.width = std::max(result.width, static_cast<int>(lambda.size()));
    result.ghd.guards.push_back(std::move(lambda));
    result.ghd.bags.push_back(std::move(bag));
  }
  return result;
}

int GhwWidthFromOrdering(const Hypergraph& h, const std::vector<int>& ordering,
                         CoverMode mode, int stop_at_width, CoverMemo* memo) {
  GHD_CHECK(memo == nullptr || memo->mode() == mode);
  int width = 0;
  CoverEliminationBags(h, ordering, [&](const std::vector<int>& members) {
    width = std::max(width, CoverSize(h, members, mode, memo));
    return stop_at_width < 0 || width < stop_at_width;
  });
  return width;
}

GhwUpperBoundResult GhwUpperBound(const Hypergraph& h,
                                  OrderingHeuristic heuristic,
                                  CoverMode mode) {
  return GhwFromOrdering(
      h, ComputeOrdering(EliminationGraph(h.Flat()), heuristic), mode);
}

GhwUpperBoundResult GhwUpperBoundMultiRestart(const Hypergraph& h,
                                              int restarts, uint64_t seed,
                                              CoverMode mode, int lower_bound,
                                              CoverMemo* memo) {
  GHD_CHECK(restarts >= 1);
  GHD_CHECK(memo == nullptr || memo->mode() == mode);
  std::optional<CoverMemo> own_memo;
  if (memo == nullptr) memo = &own_memo.emplace(h, mode);
  const EliminationGraph primal(h.Flat());
  Rng rng(seed);
  GhwUpperBoundResult best;
  for (int r = 0; r < restarts; ++r) {
    if (r > 0 && best.width <= lower_bound) break;
    const OrderingHeuristic heuristic =
        (r % 2 == 0) ? OrderingHeuristic::kMinFill
                     : OrderingHeuristic::kMinDegree;
    std::vector<int> ordering = ComputeOrdering(primal, heuristic, &rng);
    if (r > 0 &&
        GhwWidthFromOrdering(h, ordering, mode, best.width, memo) >=
            best.width) {
      GHD_COUNT(kUbRestartsPruned);
      continue;
    }
    best = GhwFromOrdering(h, ordering, mode, memo);
  }
  return best;
}

}  // namespace ghd
