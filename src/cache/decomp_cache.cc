#include "cache/decomp_cache.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/ghd.h"
#include "obs/obs.h"
#include "util/check.h"
#include "util/resource_governor.h"

namespace ghd {
namespace {

// Wire format: magic, version, entry count, then per entry the key, the four
// bounds, and both witnesses (each vector as u64 count + int32 payload).
// The version covers the canonicalization constants too — a key computed by
// a different canonical.cc must never match entries from this file.
constexpr char kMagic[4] = {'G', 'H', 'D', 'C'};
constexpr uint32_t kWireVersion = 2;

// Fixed overhead estimate per map node (key, LRU link, bucket slot).
constexpr size_t kEntryOverhead = 128;

size_t VecBytes(const std::vector<int32_t>& v) {
  return v.size() * sizeof(int32_t);
}

// Running totals mirrored onto the progress board: board slots are
// set-not-add, so the cache keeps its own monotone totals (process-global,
// like the counters the board complements).
std::atomic<long> g_total_hits{0};
std::atomic<long> g_total_misses{0};

bool WriteVec(std::FILE* f, const std::vector<int32_t>& v) {
  const uint64_t count = v.size();
  if (std::fwrite(&count, sizeof count, 1, f) != 1) return false;
  if (count == 0) return true;
  return std::fwrite(v.data(), sizeof(int32_t), v.size(), f) == v.size();
}

bool ReadVec(std::FILE* f, std::vector<int32_t>* v, uint64_t max_count) {
  uint64_t count = 0;
  if (std::fread(&count, sizeof count, 1, f) != 1) return false;
  if (count > max_count) return false;
  v->resize(count);
  if (count == 0) return true;
  return std::fread(v->data(), sizeof(int32_t), count, f) == count;
}

bool WriteWitness(std::FILE* f, const FlatDecomposition& d) {
  return WriteVec(f, d.bag_offsets) && WriteVec(f, d.bag_vertices) &&
         WriteVec(f, d.guard_offsets) && WriteVec(f, d.guard_edges) &&
         WriteVec(f, d.tree_edges);
}

bool OffsetsWellFormed(const std::vector<int32_t>& offsets,
                       const std::vector<int32_t>& payload) {
  if (offsets.empty() || offsets.front() != 0) return false;
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) return false;
  }
  return offsets.back() == static_cast<int32_t>(payload.size());
}

bool ReadWitness(std::FILE* f, FlatDecomposition* d) {
  constexpr uint64_t kMaxVec = 1u << 28;  // 1 GiB of int32: corrupt-file guard
  if (!ReadVec(f, &d->bag_offsets, kMaxVec) ||
      !ReadVec(f, &d->bag_vertices, kMaxVec) ||
      !ReadVec(f, &d->guard_offsets, kMaxVec) ||
      !ReadVec(f, &d->guard_edges, kMaxVec) ||
      !ReadVec(f, &d->tree_edges, kMaxVec)) {
    return false;
  }
  return OffsetsWellFormed(d->bag_offsets, d->bag_vertices) &&
         OffsetsWellFormed(d->guard_offsets, d->guard_edges) &&
         d->bag_offsets.size() == d->guard_offsets.size() &&
         d->tree_edges.size() % 2 == 0;
}

}  // namespace

size_t FlatDecomposition::ByteSize() const {
  return VecBytes(bag_offsets) + VecBytes(bag_vertices) +
         VecBytes(guard_offsets) + VecBytes(guard_edges) +
         VecBytes(tree_edges);
}

size_t CacheEntry::ByteSize() const {
  return kEntryOverhead + hw_witness.ByteSize() + ghw_witness.ByteSize();
}

FlatDecomposition FlattenDecomposition(
    const GeneralizedHypertreeDecomposition& d) {
  FlatDecomposition flat;
  for (size_t i = 0; i < d.bags.size(); ++i) {
    d.bags[i].ForEach([&](int v) {
      flat.bag_vertices.push_back(static_cast<int32_t>(v));
    });
    flat.bag_offsets.push_back(static_cast<int32_t>(flat.bag_vertices.size()));
    for (int e : d.guards[i]) {
      flat.guard_edges.push_back(static_cast<int32_t>(e));
    }
    flat.guard_offsets.push_back(
        static_cast<int32_t>(flat.guard_edges.size()));
  }
  for (const auto& [a, b] : d.tree_edges) {
    flat.tree_edges.push_back(static_cast<int32_t>(a));
    flat.tree_edges.push_back(static_cast<int32_t>(b));
  }
  return flat;
}

GeneralizedHypertreeDecomposition UnflattenDecomposition(
    const FlatDecomposition& d, int num_vertices) {
  GeneralizedHypertreeDecomposition out;
  const int nodes = d.num_nodes();
  out.bags.reserve(nodes);
  out.guards.reserve(nodes);
  for (int i = 0; i < nodes; ++i) {
    VertexSet bag(num_vertices);
    for (int32_t j = d.bag_offsets[i]; j < d.bag_offsets[i + 1]; ++j) {
      bag.Set(d.bag_vertices[j]);
    }
    out.bags.push_back(std::move(bag));
    out.guards.emplace_back(d.guard_edges.begin() + d.guard_offsets[i],
                            d.guard_edges.begin() + d.guard_offsets[i + 1]);
  }
  for (size_t i = 0; i + 1 < d.tree_edges.size(); i += 2) {
    out.tree_edges.emplace_back(d.tree_edges[i], d.tree_edges[i + 1]);
  }
  return out;
}

struct DecompCache::Shard {
  struct Node {
    CacheEntry entry;
    size_t bytes = 0;
    std::list<InstanceKey>::iterator lru_it;
  };

  mutable std::mutex mu;
  std::unordered_map<InstanceKey, Node, InstanceKeyHash> map;
  // Front = most recently used.
  std::list<InstanceKey> lru;
  size_t bytes = 0;
};

DecompCache::DecompCache() : DecompCache(Options()) {}

DecompCache::DecompCache(Options options) : options_(options) {
  int shards = 1;
  while (shards < options_.shards && shards < 256) shards <<= 1;
  num_shards_ = shards;
  per_shard_bytes_ = options_.max_bytes / static_cast<size_t>(num_shards_);
  if (per_shard_bytes_ == 0) per_shard_bytes_ = 1;
  shards_ = new Shard[num_shards_];
}

DecompCache::~DecompCache() { delete[] shards_; }

DecompCache::Shard& DecompCache::ShardFor(const InstanceKey& key) const {
  // hi is already a finalized hash; its low bits pick the shard while the
  // map's own hash mixes hi and lo, so shard choice and bucket choice stay
  // decorrelated enough.
  return shards_[key.hi & static_cast<uint64_t>(num_shards_ - 1)];
}

bool DecompCache::Lookup(const InstanceKey& key, CacheEntry* out) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    GHD_COUNT(kCacheMisses);
    GHD_BOARD_SET(kCacheMisses,
                  g_total_misses.fetch_add(1, std::memory_order_relaxed) + 1);
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  *out = it->second.entry;
  GHD_COUNT(kCacheHits);
  GHD_BOARD_SET(kCacheHits,
                g_total_hits.fetch_add(1, std::memory_order_relaxed) + 1);
  return true;
}

void DecompCache::Merge(const InstanceKey& key, const CacheEntry& entry) {
  Shard& shard = ShardFor(key);
  size_t growth = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      shard.lru.push_front(key);
      Shard::Node node;
      node.entry = entry;
      node.lru_it = shard.lru.begin();
      it = shard.map.emplace(key, std::move(node)).first;
      GHD_COUNT(kCacheInserts);
    } else {
      CacheEntry& have = it->second.entry;
      if (entry.hw_lb > have.hw_lb) have.hw_lb = entry.hw_lb;
      if (entry.ghw_lb > have.ghw_lb) have.ghw_lb = entry.ghw_lb;
      if (entry.hw_ub >= 0 && (have.hw_ub < 0 || entry.hw_ub < have.hw_ub)) {
        have.hw_ub = entry.hw_ub;
        have.hw_witness = entry.hw_witness;
      }
      if (entry.ghw_ub >= 0 &&
          (have.ghw_ub < 0 || entry.ghw_ub < have.ghw_ub)) {
        have.ghw_ub = entry.ghw_ub;
        have.ghw_witness = entry.ghw_witness;
      }
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    }
    CacheEntry& have = it->second.entry;
    // Cross-propagation: every HD is a GHD (hw_ub bounds ghw_ub, and the hw
    // witness doubles as the ghw witness), and ghw <= hw lifts ghw_lb into
    // hw_lb.
    if (have.hw_ub >= 0 && (have.ghw_ub < 0 || have.hw_ub < have.ghw_ub)) {
      have.ghw_ub = have.hw_ub;
      have.ghw_witness = have.hw_witness;
    }
    if (have.ghw_lb > have.hw_lb) have.hw_lb = have.ghw_lb;
    const size_t new_bytes = have.ByteSize();
    const size_t old_bytes = it->second.bytes;
    it->second.bytes = new_bytes;
    shard.bytes += new_bytes;
    shard.bytes -= old_bytes;
    if (new_bytes > old_bytes) growth = new_bytes - old_bytes;
    // Evict least-recently-used entries past the shard slice; the entry just
    // touched sits at the LRU front and is never evicted by its own insert.
    while (shard.bytes > per_shard_bytes_ && shard.map.size() > 1) {
      const InstanceKey victim = shard.lru.back();
      auto vit = shard.map.find(victim);
      GHD_CHECK(vit != shard.map.end());
      shard.bytes -= vit->second.bytes;
      shard.lru.pop_back();
      shard.map.erase(vit);
      GHD_COUNT(kCacheEvictions);
    }
    GHD_GAUGE_MAX(kCacheBytes, shard.bytes);
  }
  // Budget::Charge is cumulative (a high-water account, never released), so
  // only net growth is forwarded; evicted bytes stay charged as history.
  if (growth > 0 && options_.governor != nullptr) {
    options_.governor->Charge(growth);
  }
}

size_t DecompCache::size() const {
  size_t total = 0;
  for (int i = 0; i < num_shards_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    total += shards_[i].map.size();
  }
  return total;
}

size_t DecompCache::bytes() const {
  size_t total = 0;
  for (int i = 0; i < num_shards_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    total += shards_[i].bytes;
  }
  return total;
}

Status DecompCache::Save(const std::string& path) const {
  // Tmp + rename so readers never observe a torn file.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open for writing: " + tmp);
  }
  bool ok = std::fwrite(kMagic, 1, 4, f) == 4 &&
            std::fwrite(&kWireVersion, sizeof kWireVersion, 1, f) == 1;
  uint64_t count = 0;
  const long count_pos = 8;
  ok = ok && std::fwrite(&count, sizeof count, 1, f) == 1;
  for (int i = 0; ok && i < num_shards_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    for (const auto& [key, node] : shards_[i].map) {
      const CacheEntry& e = node.entry;
      ok = ok && std::fwrite(&key.hi, sizeof key.hi, 1, f) == 1 &&
           std::fwrite(&key.lo, sizeof key.lo, 1, f) == 1 &&
           std::fwrite(&e.hw_lb, sizeof e.hw_lb, 1, f) == 1 &&
           std::fwrite(&e.hw_ub, sizeof e.hw_ub, 1, f) == 1 &&
           std::fwrite(&e.ghw_lb, sizeof e.ghw_lb, 1, f) == 1 &&
           std::fwrite(&e.ghw_ub, sizeof e.ghw_ub, 1, f) == 1 &&
           WriteWitness(f, e.hw_witness) && WriteWitness(f, e.ghw_witness);
      ++count;
      if (!ok) break;
    }
  }
  ok = ok && std::fseek(f, count_pos, SEEK_SET) == 0 &&
       std::fwrite(&count, sizeof count, 1, f) == 1;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::Internal("short write saving cache: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("rename failed: " + path);
  }
  return Status::Ok();
}

Status DecompCache::Load(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open cache file: " + path);
  }
  char magic[4];
  uint32_t version = 0;
  uint64_t count = 0;
  if (std::fread(magic, 1, 4, f) != 4 ||
      std::memcmp(magic, kMagic, 4) != 0 ||
      std::fread(&version, sizeof version, 1, f) != 1 ||
      version != kWireVersion ||
      std::fread(&count, sizeof count, 1, f) != 1) {
    std::fclose(f);
    GHD_COUNT(kCacheLoadRejected);
    return Status::ParseError("bad cache header: " + path);
  }
  // Stage the whole file before merging anything: a truncated or corrupted
  // file must be rejected whole, never half-applied — a silent partial load
  // would look exactly like a smaller cache and hide the corruption. The
  // count field is untrusted, so reservation is capped and truncation is
  // discovered by the reads themselves.
  std::vector<std::pair<InstanceKey, CacheEntry>> staged;
  staged.reserve(static_cast<size_t>(std::min<uint64_t>(count, 4096)));
  for (uint64_t i = 0; i < count; ++i) {
    InstanceKey key;
    CacheEntry e;
    const bool ok =
        std::fread(&key.hi, sizeof key.hi, 1, f) == 1 &&
        std::fread(&key.lo, sizeof key.lo, 1, f) == 1 &&
        std::fread(&e.hw_lb, sizeof e.hw_lb, 1, f) == 1 &&
        std::fread(&e.hw_ub, sizeof e.hw_ub, 1, f) == 1 &&
        std::fread(&e.ghw_lb, sizeof e.ghw_lb, 1, f) == 1 &&
        std::fread(&e.ghw_ub, sizeof e.ghw_ub, 1, f) == 1 &&
        ReadWitness(f, &e.hw_witness) && ReadWitness(f, &e.ghw_witness);
    if (!ok) {
      std::fclose(f);
      GHD_COUNT(kCacheLoadRejected);
      return Status::ParseError("truncated cache entry in " + path);
    }
    staged.emplace_back(key, std::move(e));
  }
  std::fclose(f);
  for (auto& [key, e] : staged) Merge(key, e);
  return Status::Ok();
}

}  // namespace ghd
