#include "gen/workload_trace.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "hypergraph/hg_io.h"
#include "util/check.h"
#include "util/hash_mix.h"

namespace ghd {
namespace {

// Deterministic cross-platform generator (std::uniform_int_distribution is
// implementation-defined, so traces would differ between standard libraries).
struct TraceRng {
  uint64_t state;
  uint64_t Next() {
    state += 0x9e3779b97f4a7c15ull;
    return SplitMix64(state);
  }
  // Modulo bias is irrelevant for workload shaping.
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
};

std::string Trimmed(const std::string& line) {
  size_t b = line.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  size_t e = line.find_last_not_of(" \t\r");
  return line.substr(b, e - b + 1);
}

std::vector<std::string> Tokens(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

// Reads all of `tok` as a decimal int: an optional '-', digits, nothing
// after them, and a value that fits. "2abc" or an overflowing count is then
// a parse error instead of a misread.
bool ParseInt(const std::string& tok, int* out) {
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

std::string WriteTrace(const WorkloadTrace& trace) {
  std::string out = "ghdtrace 1\n";
  out += "k " + std::to_string(trace.default_k) + "\n";
  out += "base-begin\n";
  std::string hg = WriteHg(trace.base);
  out += hg;
  if (!hg.empty() && hg.back() != '\n') out += "\n";
  out += "base-end\n";
  auto mutation_line = [](const TraceMutation& m) {
    std::string line = m.is_insert ? "insert " + m.edge_name
                                   : "remove " + m.edge_name;
    if (m.is_insert) {
      for (const std::string& v : m.vertices) line += " " + v;
    }
    return line + "\n";
  };
  for (const TraceEvent& ev : trace.events) {
    if (ev.kind == TraceEvent::Kind::kDecide) {
      out += ev.k > 0 ? "decide " + std::to_string(ev.k) + "\n" : "decide\n";
      continue;
    }
    if (ev.mutations.size() == 1) {
      out += mutation_line(ev.mutations[0]);
    } else {
      out += "batch " + std::to_string(ev.mutations.size()) + "\n";
      for (const TraceMutation& m : ev.mutations) out += mutation_line(m);
    }
  }
  return out;
}

Result<WorkloadTrace> ParseTrace(const std::string& content) {
  std::vector<std::string> lines;
  {
    std::istringstream in(content);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  size_t i = 0;
  auto next_meaningful = [&]() -> std::string {
    while (i < lines.size()) {
      const std::string t = Trimmed(lines[i]);
      ++i;
      if (t.empty() || t[0] == '%') continue;
      return t;
    }
    return "";
  };
  if (next_meaningful() != "ghdtrace 1") {
    return Status::ParseError("trace: missing 'ghdtrace 1' header");
  }
  WorkloadTrace trace;
  std::string line = next_meaningful();
  {
    const std::vector<std::string> toks = Tokens(line);
    if (toks.size() == 2 && toks[0] == "k") {
      if (!ParseInt(toks[1], &trace.default_k) || trace.default_k < 1) {
        return Status::ParseError("trace: bad default k: " + toks[1]);
      }
      line = next_meaningful();
    }
  }
  if (line != "base-begin") {
    return Status::ParseError("trace: expected base-begin, got: " + line);
  }
  // The base block is passed to the .hg parser verbatim (it has its own
  // comment rules), so scan raw lines rather than meaningful ones.
  std::string hg;
  bool base_closed = false;
  while (i < lines.size()) {
    const std::string t = Trimmed(lines[i]);
    ++i;
    if (t == "base-end") {
      base_closed = true;
      break;
    }
    hg += lines[i - 1] + "\n";
  }
  if (!base_closed) return Status::ParseError("trace: unterminated base block");
  Result<Hypergraph> base = ParseHg(hg);
  if (!base.ok()) {
    return Status::ParseError("trace base: " + base.status().message());
  }
  trace.base = std::move(base.value());

  auto parse_mutation = [](const std::vector<std::string>& toks,
                           TraceMutation* m) -> Status {
    if (toks[0] == "remove") {
      if (toks.size() != 2) {
        return Status::ParseError("trace: remove takes one edge name");
      }
      m->is_insert = false;
      m->edge_name = toks[1];
      return Status::Ok();
    }
    if (toks[0] == "insert") {
      if (toks.size() < 3) {
        return Status::ParseError(
            "trace: insert takes an edge name and vertices");
      }
      m->is_insert = true;
      m->edge_name = toks[1];
      m->vertices.assign(toks.begin() + 2, toks.end());
      return Status::Ok();
    }
    return Status::ParseError("trace: unknown mutation: " + toks[0]);
  };

  for (line = next_meaningful(); !line.empty(); line = next_meaningful()) {
    const std::vector<std::string> toks = Tokens(line);
    if (toks[0] == "decide") {
      TraceEvent ev;
      ev.kind = TraceEvent::Kind::kDecide;
      if (toks.size() == 2) {
        if (!ParseInt(toks[1], &ev.k) || ev.k < 1) {
          return Status::ParseError("trace: bad decide k: " + line);
        }
      } else if (toks.size() != 1) {
        return Status::ParseError("trace: bad decide line: " + line);
      }
      trace.events.push_back(std::move(ev));
      continue;
    }
    if (toks[0] == "batch") {
      if (toks.size() != 2) {
        return Status::ParseError("trace: bad batch line: " + line);
      }
      int count = 0;
      if (!ParseInt(toks[1], &count) || count < 1) {
        return Status::ParseError("trace: bad batch count: " + line);
      }
      TraceEvent ev;
      ev.kind = TraceEvent::Kind::kDelta;
      for (int j = 0; j < count; ++j) {
        const std::string mline = next_meaningful();
        if (mline.empty()) {
          return Status::ParseError("trace: batch truncated");
        }
        TraceMutation m;
        const Status s = parse_mutation(Tokens(mline), &m);
        if (!s.ok()) return s;
        ev.mutations.push_back(std::move(m));
      }
      trace.events.push_back(std::move(ev));
      continue;
    }
    TraceEvent ev;
    ev.kind = TraceEvent::Kind::kDelta;
    TraceMutation m;
    const Status s = parse_mutation(toks, &m);
    if (!s.ok()) return s;
    ev.mutations.push_back(std::move(m));
    trace.events.push_back(std::move(ev));
  }
  return trace;
}

Result<WorkloadTrace> LoadTrace(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open trace: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseTrace(buffer.str());
}

Status ResolveDelta(const Hypergraph& current, const TraceEvent& event,
                    EdgeDelta* out) {
  GHD_CHECK(event.kind == TraceEvent::Kind::kDelta);
  EdgeDelta delta;
  std::unordered_map<std::string, int> edge_ids;
  edge_ids.reserve(current.num_edges());
  for (int e = 0; e < current.num_edges(); ++e) {
    edge_ids[current.edge_name(e)] = e;
  }
  for (const TraceMutation& m : event.mutations) {
    if (m.is_insert) {
      EdgeDelta::InsertedEdge ins;
      ins.name = m.edge_name;
      ins.vertices = VertexSet(current.num_vertices());
      for (const std::string& v : m.vertices) {
        const int id = current.VertexIdOf(v);
        if (id < 0) {
          return Status::InvalidArgument("trace: unknown vertex: " + v);
        }
        ins.vertices.Set(id);
      }
      delta.inserts.push_back(std::move(ins));
    } else {
      auto it = edge_ids.find(m.edge_name);
      if (it == edge_ids.end()) {
        return Status::InvalidArgument("trace: unknown edge: " + m.edge_name);
      }
      delta.removed_edges.push_back(it->second);
      edge_ids.erase(it);  // a batch must not remove the same edge twice
    }
  }
  *out = std::move(delta);
  return Status::Ok();
}

WorkloadTrace GenerateTrace(const Hypergraph& base,
                            const TraceGenOptions& options) {
  GHD_CHECK(base.num_edges() > 0);
  WorkloadTrace trace;
  trace.base = base;
  trace.default_k = options.k;
  TraceRng rng{options.seed * 0x100000001b3ull + 0xcbf29ce484222325ull};

  // The generator's own model of the live edge set: names + vertex names,
  // kept exactly in sync with what a replayer applying the events would hold.
  struct LiveEdge {
    std::string name;
    std::vector<std::string> vertices;
  };
  std::vector<LiveEdge> live;
  live.reserve(base.num_edges());
  for (int e = 0; e < base.num_edges(); ++e) {
    LiveEdge edge;
    edge.name = base.edge_name(e);
    base.edge(e).ForEach(
        [&](int v) { edge.vertices.push_back(base.vertex_name(v)); });
    live.push_back(std::move(edge));
  }

  auto single = [](TraceMutation m) {
    TraceEvent ev;
    ev.kind = TraceEvent::Kind::kDelta;
    ev.mutations.push_back(std::move(m));
    return ev;
  };
  auto decide = [] {
    TraceEvent ev;
    ev.kind = TraceEvent::Kind::kDecide;
    return ev;
  };
  auto remove_of = [](const LiveEdge& e) {
    TraceMutation m;
    m.is_insert = false;
    m.edge_name = e.name;
    return m;
  };
  auto insert_of = [](const LiveEdge& e) {
    TraceMutation m;
    m.is_insert = true;
    m.edge_name = e.name;
    m.vertices = e.vertices;
    return m;
  };

  int small_rounds = 0;
  long fresh_names = 0;
  while (static_cast<int>(trace.events.size()) < options.events) {
    const bool small =
        static_cast<int>(rng.Below(100)) < options.small_pct;
    if (small) {
      ++small_rounds;
      if (small_rounds % 8 == 0 && base.num_vertices() >= 2) {
        // Fresh chord: insert a new two-vertex edge, decide, drop it, decide.
        LiveEdge chord;
        chord.name = "d" + std::to_string(fresh_names++);
        const int a = static_cast<int>(rng.Below(base.num_vertices()));
        int b = static_cast<int>(rng.Below(base.num_vertices()));
        if (b == a) b = (a + 1) % base.num_vertices();
        chord.vertices = {base.vertex_name(a), base.vertex_name(b)};
        trace.events.push_back(single(insert_of(chord)));
        trace.events.push_back(decide());
        trace.events.push_back(single(remove_of(chord)));
        trace.events.push_back(decide());
      } else {
        // Remove one edge, decide, put it back, decide — the dominant
        // small-delta repeat shape.
        const size_t pick = rng.Below(live.size());
        const LiveEdge edge = live[pick];
        trace.events.push_back(single(remove_of(edge)));
        trace.events.push_back(decide());
        trace.events.push_back(single(insert_of(edge)));
        trace.events.push_back(decide());
      }
    } else {
      // Churn round: batch ~1/8 of the edges out, decide, batch them back.
      const size_t count =
          std::max<size_t>(2, live.size() / 8 == 0 ? 2 : live.size() / 8);
      std::vector<size_t> order(live.size());
      for (size_t j = 0; j < order.size(); ++j) order[j] = j;
      for (size_t j = order.size(); j-- > 1;) {
        std::swap(order[j], order[rng.Below(j + 1)]);
      }
      TraceEvent out;
      out.kind = TraceEvent::Kind::kDelta;
      TraceEvent back;
      back.kind = TraceEvent::Kind::kDelta;
      for (size_t j = 0; j < count && j < order.size(); ++j) {
        out.mutations.push_back(remove_of(live[order[j]]));
        back.mutations.push_back(insert_of(live[order[j]]));
      }
      trace.events.push_back(std::move(out));
      trace.events.push_back(decide());
      trace.events.push_back(std::move(back));
      trace.events.push_back(decide());
    }
  }
  return trace;
}

}  // namespace ghd
