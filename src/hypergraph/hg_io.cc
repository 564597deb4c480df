#include "hypergraph/hg_io.h"

#include <cctype>
#include <fstream>
#include <functional>
#include <sstream>
#include <string_view>
#include <vector>

#include "hypergraph/hypergraph_builder.h"
#include "util/strings.h"

namespace ghd {
namespace {

// Tokenizes out '%'-to-end-of-line comments.
std::string StripComments(const std::string& content) {
  std::string out;
  out.reserve(content.size());
  bool in_comment = false;
  for (char c : content) {
    if (c == '%') in_comment = true;
    if (c == '\n') in_comment = false;
    if (!in_comment) out.push_back(c);
  }
  return out;
}

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
         c == ':' || c == '.' || c == '[' || c == ']' || c == '\'';
}

// A name that occurs twice in `names`, or nullptr. Open addressing on the
// names' hashes costs about one hash and one probe per name; sorting the
// names would add about a tenth to the parse.
const std::string_view* FindDuplicate(
    const std::vector<std::string_view>& names) {
  size_t mask = 1;
  while (mask < 2 * names.size()) mask <<= 1;
  --mask;
  std::vector<int> slots(mask + 1, -1);  // index into names
  std::vector<size_t> hashes(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    hashes[i] = std::hash<std::string_view>()(names[i]);
    for (size_t s = hashes[i] & mask;; s = (s + 1) & mask) {
      if (slots[s] < 0) {
        slots[s] = static_cast<int>(i);
        break;
      }
      if (hashes[slots[s]] == hashes[i] && names[slots[s]] == names[i]) {
        return &names[i];
      }
    }
  }
  return nullptr;
}

}  // namespace

Result<Hypergraph> ParseHg(const std::string& content) {
  const std::string text = StripComments(content);
  HypergraphBuilder builder;
  std::vector<std::string_view> edge_names;  // views into `text`
  size_t i = 0;
  const size_t end = text.size();
  auto skip_space = [&] {
    while (i < end && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
  };
  auto read_name = [&]() -> std::string {
    size_t start = i;
    while (i < end && IsNameChar(text[i])) ++i;
    return text.substr(start, i - start);
  };
  while (true) {
    skip_space();
    if (i >= end) break;
    const size_t name_start = i;
    std::string edge_name = read_name();
    if (edge_name.empty()) {
      return Status::ParseError("expected edge name at offset " +
                                std::to_string(i));
    }
    edge_names.emplace_back(text.data() + name_start, edge_name.size());
    skip_space();
    if (i >= end || text[i] != '(') {
      return Status::ParseError("expected '(' after edge '" + edge_name + "'");
    }
    ++i;  // consume '('
    std::vector<std::string> vertices;
    while (true) {
      skip_space();
      std::string v = read_name();
      if (v.empty()) {
        return Status::ParseError("expected vertex name in edge '" + edge_name +
                                  "'");
      }
      vertices.push_back(std::move(v));
      skip_space();
      if (i < end && text[i] == ',') {
        ++i;
        continue;
      }
      if (i < end && text[i] == ')') {
        ++i;
        break;
      }
      return Status::ParseError("expected ',' or ')' in edge '" + edge_name +
                                "'");
    }
    builder.AddEdge(edge_name, vertices);
    skip_space();
    if (i < end && (text[i] == ',' || text[i] == '.')) ++i;
  }
  if (builder.num_edges() == 0) {
    return Status::ParseError("no hyperedges found");
  }
  // Traces and deltas refer to edges by name, so names must be unique.
  if (const std::string_view* dup = FindDuplicate(edge_names)) {
    return Status::ParseError("duplicate edge name '" + std::string(*dup) +
                              "'");
  }
  return std::move(builder).Build();
}

Result<Hypergraph> LoadHg(const std::string& path) {
  std::ifstream f(path);
  if (!f) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << f.rdbuf();
  return ParseHg(buffer.str());
}

std::string WriteHg(const Hypergraph& h) {
  std::string out;
  for (int e = 0; e < h.num_edges(); ++e) {
    out += h.edge_name(e);
    out += '(';
    bool first = true;
    h.edge(e).ForEach([&](int v) {
      if (!first) out += ',';
      out += h.vertex_name(v);
      first = false;
    });
    out += e + 1 == h.num_edges() ? ").\n" : "),\n";
  }
  return out;
}

}  // namespace ghd
