#include "bench.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <unordered_map>

#include <sched.h>

namespace perfbench {

uint64_t SeedRng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string RelabeledHgText(const ghd::Hypergraph& h, SeedRng* rng) {
  std::vector<int> vertex_perm(h.num_vertices());
  for (int v = 0; v < h.num_vertices(); ++v) vertex_perm[v] = v;
  rng->Shuffle(&vertex_perm);
  std::vector<int> edge_order(h.num_edges());
  for (int e = 0; e < h.num_edges(); ++e) edge_order[e] = e;
  rng->Shuffle(&edge_order);
  std::string out;
  for (size_t i = 0; i < edge_order.size(); ++i) {
    std::vector<int> ids;
    h.edge(edge_order[i]).ForEach(
        [&](int v) { ids.push_back(vertex_perm[v]); });
    std::sort(ids.begin(), ids.end());
    out += "e" + std::to_string(i) + "(";
    for (size_t j = 0; j < ids.size(); ++j) {
      if (j > 0) out += ", ";
      out += "v" + std::to_string(ids[j]);
    }
    out += i + 1 < edge_order.size() ? "),\n" : ").\n";
  }
  return out;
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(samples.size())));
  return samples[rank == 0 ? 0 : std::min(samples.size(), rank) - 1];
}

long BeyondPercentile(const std::vector<double>& samples, double q) {
  const double p = Percentile(samples, q);
  return static_cast<long>(std::count_if(
      samples.begin(), samples.end(), [&](double s) { return s > p; }));
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

void AddLatencies(Metrics* out, const std::string& prefix,
                  const std::vector<double>& ms) {
  const long n = static_cast<long>(ms.size());
  // The tail is p99 where there are 1000 samples or more, else p95, so that
  // at least ten samples lie beyond it.
  const double tail = n >= 1000 ? 0.99 : 0.95;
  (*out)[prefix + "_p50_ms"] = {Percentile(ms, 0.5), "ms", n,
                                BeyondPercentile(ms, 0.5)};
  (*out)[prefix + "_tail_ms"] = {Percentile(ms, tail), "ms", n,
                                 BeyondPercentile(ms, tail)};
}

namespace {

// A "Vm...:   1234 kB" line of /proc/self/status, in MB; 0 when absent.
double StatusMb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0) {
      return std::atof(line.c_str() + len) / 1024.0;
    }
  }
  return 0;
}

}  // namespace

double PeakRssMb() { return StatusMb("VmHWM:"); }
double CurrentRssMb() { return StatusMb("VmRSS:"); }

int Tracer::Begin(const char* name, long ask) {
  SpanRecord s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.ask = ask;
  s.start_ns = NowNs();
  spans_.push_back(s);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  spans_[id].end_ns = NowNs();
  open_.pop_back();
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"ask\":%ld}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.ask);
  }
  return std::fclose(f) == 0;
}

LayerTimes::LayerTimes(const std::vector<SpanRecord>& spans) {
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) child_ms[s.parent] += (s.end_ns - s.start_ns) / 1e6;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    Totals& t = totals_[spans[i].name];
    t.self_ms += (spans[i].end_ns - spans[i].start_ns) / 1e6 - child_ms[i];
    ++t.calls;
  }
}

double LayerTimes::MsPerCall(const std::string& name) const {
  auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second.self_ms / it->second.calls;
}

long LayerTimes::Calls(const std::string& name) const {
  auto it = totals_.find(name);
  return it == totals_.end() ? 0 : it->second.calls;
}

void AddLayerMs(Metrics* out, const LayerTimes& layers,
                const std::string& span) {
  (*out)[span + "_ms"] = {layers.MsPerCall(span), "ms", layers.Calls(span), 0};
}

namespace {

bool IsOperation(const SpanRecord& s) {
  return std::strncmp(s.name, "op.", 3) == 0;
}

}  // namespace

double ChildCoverage(const std::vector<SpanRecord>& spans) {
  double root_ms = 0;
  double covered_ms = 0;
  for (const SpanRecord& s : spans) {
    const double ms = (s.end_ns - s.start_ns) / 1e6;
    if (s.parent < 0) {
      if (IsOperation(s)) root_ms += ms;
    } else if (spans[s.parent].parent < 0 && IsOperation(spans[s.parent])) {
      covered_ms += ms;
    }
  }
  return root_ms > 0 ? covered_ms / root_ms : 0;
}

namespace {

// A fixed mix of the kinds of work the library does, about a millisecond:
// intersections of 256-bit rows counted, a hash map filled, short vectors
// sorted. Its own code, so a change to the library cannot move it.
double ProbeMs() {
  const int64_t t0 = NowNs();
  uint64_t x = 0x9e3779b97f4a7c15ull;
  std::vector<std::array<uint64_t, 4>> rows(160);
  for (auto& row : rows) {
    for (uint64_t& w : row) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      w = x & (x >> 7);
    }
  }
  std::unordered_map<uint64_t, std::vector<int>> groups;
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t j = i + 1; j < rows.size(); ++j) {
      int common = 0;
      for (int w = 0; w < 4; ++w) {
        common += __builtin_popcountll(rows[i][w] & rows[j][w]);
      }
      groups[(i * 7 + j) % 211].push_back(common);
    }
  }
  long sum = 0;
  for (auto& [key, v] : groups) {
    std::sort(v.begin(), v.end());
    sum += v[v.size() / 2] + static_cast<long>(key);
  }
  static volatile long sink;
  sink = sum;
  return MsSince(t0);
}

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  return cpus;
}

bool PinTo(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0;
}

}  // namespace

void PinToQuietestCpu() {
  static const std::vector<int> cpus = AllowedCpus();
  if (cpus.size() < 2) return;
  int best = -1;
  double best_ms = 0;
  for (int cpu : cpus) {
    if (!PinTo(cpu)) continue;
    const double ms = std::min(ProbeMs(), ProbeMs());
    if (best < 0 || ms < best_ms) best = cpu, best_ms = ms;
  }
  if (best >= 0) PinTo(best);
}

void PhaseStats::Record(size_t slot, double ms, bool ask) {
  if (slot >= best_ms.size()) {
    best_ms.resize(slot + 1, std::numeric_limits<double>::infinity());
    is_ask.resize(slot + 1, true);
  }
  best_ms[slot] = std::min(best_ms[slot], ms);
  is_ask[slot] = ask;
  ++ops;
}

double PhaseStats::OpsPerS() const {
  double busy_s = 0;
  long slots = 0;
  for (double ms : best_ms) {
    if (std::isinf(ms)) continue;
    busy_s += ms / 1e3;
    ++slots;
  }
  return Ratio(slots, busy_s);
}

std::vector<double> PhaseStats::BestMs(bool asks) const {
  std::vector<double> out;
  for (size_t i = 0; i < best_ms.size(); ++i) {
    if (is_ask[i] == asks && !std::isinf(best_ms[i])) out.push_back(best_ms[i]);
  }
  return out;
}

void RunResult::Fail(const std::string& what) {
  ++failed;
  if (failures.size() < 10) failures.push_back(what);
}

}  // namespace perfbench
