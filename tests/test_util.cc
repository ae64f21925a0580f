#include "test_util.h"

#include <algorithm>
#include <functional>
#include <utility>

namespace rigpm::testing {

int64_t RigRank(const Rig& rig, QueryNodeId q, NodeId v) {
  const std::span<const NodeId> cos = rig.Cos(q);
  auto it = std::lower_bound(cos.begin(), cos.end(), v);
  return (it == cos.end() || *it != v) ? -1 : it - cos.begin();
}

std::vector<NodeId> RigPartners(const Rig& rig, const PatternQuery& q,
                                QueryEdgeId e, NodeId vp) {
  std::vector<NodeId> out;
  const int64_t r = RigRank(rig, q.Edge(e).from, vp);
  if (r < 0) return out;
  const std::span<const NodeId> to = rig.Cos(q.Edge(e).to);
  for (uint32_t t : rig.Rows(e)[r]) out.push_back(to[t]);
  return out;
}

bool SlowReaches(const Graph& g, NodeId u, NodeId v) {
  // Seed with u's successors so that u ≺ u requires an actual cycle.
  std::vector<uint8_t> seen(g.NumNodes(), 0);
  std::vector<NodeId> stack;
  for (NodeId w : g.OutNeighbors(u)) {
    if (w == v) return true;
    if (!seen[w]) {
      seen[w] = 1;
      stack.push_back(w);
    }
  }
  while (!stack.empty()) {
    NodeId x = stack.back();
    stack.pop_back();
    for (NodeId w : g.OutNeighbors(x)) {
      if (w == v) return true;
      if (!seen[w]) {
        seen[w] = 1;
        stack.push_back(w);
      }
    }
  }
  return false;
}

bool SlowReachesBounded(const Graph& g, NodeId u, NodeId v,
                        uint32_t max_hops) {
  // Level-by-level BFS from u, stopping after max_hops levels.
  std::vector<uint8_t> seen(g.NumNodes(), 0);
  std::vector<NodeId> frontier = {u};
  for (uint32_t depth = 0; depth < max_hops && !frontier.empty(); ++depth) {
    std::vector<NodeId> next;
    for (NodeId x : frontier) {
      for (NodeId w : g.OutNeighbors(x)) {
        if (w == v) return true;
        if (!seen[w]) {
          seen[w] = 1;
          next.push_back(w);
        }
      }
    }
    frontier = std::move(next);
  }
  return false;
}

std::set<std::vector<NodeId>> BruteForceAnswer(const Graph& g,
                                               const PatternQuery& q) {
  std::set<std::vector<NodeId>> answer;
  const uint32_t n = q.NumNodes();
  std::vector<NodeId> assign(n, kInvalidNode);

  std::function<void(uint32_t)> recurse = [&](uint32_t i) {
    if (i == n) {
      answer.insert(assign);
      return;
    }
    LabelId label = q.Label(i);
    if (label >= g.NumLabels()) return;
    for (NodeId v : g.LabelNodes(label)) {
      assign[i] = v;
      bool ok = true;
      // Check every edge whose endpoints are both assigned.
      for (const QueryEdge& e : q.Edges()) {
        if (e.from > i || e.to > i) continue;
        NodeId u = assign[e.from];
        NodeId w = assign[e.to];
        bool match;
        if (e.kind == EdgeKind::kChild) {
          match = g.HasEdge(u, w);
        } else if (e.max_hops > 0) {
          match = SlowReachesBounded(g, u, w, e.max_hops);
        } else {
          match = SlowReaches(g, u, w);
        }
        if (!match) {
          ok = false;
          break;
        }
      }
      if (ok) recurse(i + 1);
      assign[i] = kInvalidNode;
    }
  };
  recurse(0);
  return answer;
}

std::shared_ptr<server::EngineCatalog> SingleEngineCatalog(
    const GmEngine& engine, server::EngineSource source,
    uint64_t base_checksum, uint64_t cache_bytes) {
  auto catalog = std::make_shared<server::EngineCatalog>();
  // Before AdoptEngine: the cache is attached when the state is built.
  catalog->set_cache_bytes(cache_bytes);
  catalog->AdoptEngine("default", engine, std::move(source), base_checksum);
  return catalog;
}

}  // namespace rigpm::testing
