// pb_check — checks occurrences against the data graph with code of its
// own: its own parser of the text graph, its own edge test (sorted
// adjacency) and its own BFS for descendant edges. It links nothing of
// rigpm, so a fault in rigpm's graph or reachability code cannot hide here.
//
//   pb_check GRAPH.txt TUPLES.txt
//
// TUPLES holds, per query, "query NAME COUNT STATUS", the query in the text
// format of query_io.h, "tuples", the first occurrences (one per line) and
// "end". Each occurrence must give every query node a data node of its
// label, satisfy every child edge by an edge and every descendant edge by a
// path of one or more edges (at most k for a bounded one); the occurrences
// must be distinct, and there must be min(COUNT, kept) of them.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Edge {
  uint32_t from = 0, to = 0;
  bool child = true;
  uint32_t max_hops = 0;  // 0 = unbounded
};

struct Data {
  std::vector<uint32_t> label;
  std::vector<std::vector<uint32_t>> out;

  bool HasEdge(uint32_t u, uint32_t v) const {
    return std::binary_search(out[u].begin(), out[u].end(), v);
  }

  // Breadth-first search over out-edges: is there a path of 1..max_hops
  // edges (any length when max_hops == 0) from u to v?
  bool Reaches(uint32_t u, uint32_t v, uint32_t max_hops) const {
    std::vector<uint32_t> frontier = {u};
    std::vector<char> seen(label.size(), 0);
    for (uint32_t d = 1; !frontier.empty(); ++d) {
      if (max_hops != 0 && d > max_hops) return false;
      std::vector<uint32_t> next;
      for (uint32_t x : frontier) {
        for (uint32_t y : out[x]) {
          if (y == v) return true;
          if (!seen[y]) {
            seen[y] = 1;
            next.push_back(y);
          }
        }
      }
      frontier.swap(next);
    }
    return false;
  }
};

bool ReadData(const std::string& path, Data* g) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream f(line);
    char tag = 0;
    f >> tag;
    if (tag == 't' || tag == '#' || tag == 0) continue;
    uint64_t a = 0, b = 0;
    if (!(f >> a >> b)) return false;
    if (tag == 'v') {
      if (a != g->label.size()) return false;
      g->label.push_back(static_cast<uint32_t>(b));
      g->out.emplace_back();
    } else if (tag == 'e') {
      if (a >= g->label.size() || b >= g->label.size()) return false;
      g->out[a].push_back(static_cast<uint32_t>(b));
    } else {
      return false;
    }
  }
  for (auto& adj : g->out) std::sort(adj.begin(), adj.end());
  return !g->label.empty();
}

// Occurrences pb_bench keeps per query.
constexpr size_t kKept = 8;

int Fail(const std::string& msg) {
  std::fprintf(stderr, "pb_check: %s\n", msg.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) return Fail("usage: pb_check GRAPH.txt TUPLES.txt");
  Data g;
  if (!ReadData(argv[1], &g)) return Fail(std::string("bad graph ") + argv[1]);
  std::ifstream in(argv[2]);
  std::string line;
  size_t queries = 0, occurrences = 0;
  while (std::getline(in, line)) {
    std::istringstream head(line);
    std::string tag, name, status;
    uint64_t count = 0;
    if (!(head >> tag >> name >> count >> status) || tag != "query") {
      return Fail("bad record: " + line);
    }
    std::vector<uint32_t> qlabel;
    std::vector<Edge> edges;
    while (std::getline(in, line) && line != "tuples") {
      std::istringstream f(line);
      char t = 0;
      f >> t;
      if (t == 'v') {
        uint32_t id = 0, l = 0;
        f >> id >> l;
        qlabel.push_back(l);
      } else if (t == 'e') {
        Edge e;
        char kind = 0;
        f >> e.from >> e.to >> kind;
        e.child = kind == 'c';
        if (!e.child) f >> e.max_hops;
        edges.push_back(e);
      }
    }
    std::set<std::vector<uint32_t>> seen;
    while (std::getline(in, line) && line != "end") {
      std::istringstream f(line);
      std::vector<uint32_t> t;
      uint64_t x = 0;
      while (f >> x) {
        if (x >= g.label.size()) return Fail(name + ": node out of range");
        t.push_back(static_cast<uint32_t>(x));
      }
      if (t.size() != qlabel.size()) return Fail(name + ": bad tuple arity");
      for (size_t i = 0; i < t.size(); ++i) {
        if (g.label[t[i]] != qlabel[i]) {
          return Fail(name + ": node " + std::to_string(t[i]) +
                      " has the wrong label for query node " +
                      std::to_string(i));
        }
      }
      for (const Edge& e : edges) {
        const uint32_t u = t[e.from], v = t[e.to];
        const bool ok = e.child ? g.HasEdge(u, v) : g.Reaches(u, v, e.max_hops);
        if (!ok) {
          return Fail(name + ": " + std::to_string(u) + " -> " +
                      std::to_string(v) + " violates query edge " +
                      std::to_string(e.from) + (e.child ? "->" : "=>") +
                      std::to_string(e.to));
        }
      }
      if (!seen.insert(t).second) return Fail(name + ": repeated occurrence");
    }
    if (seen.size() > count || (seen.size() < count && seen.size() < kKept)) {
      return Fail(name + ": " + std::to_string(seen.size()) +
                  " occurrences kept for a count of " + std::to_string(count));
    }
    ++queries;
    occurrences += seen.size();
  }
  std::printf("pb_check: %zu occurrences of %zu queries hold\n", occurrences,
              queries);
  return queries > 0 ? 0 : 1;
}
