#include "sim/match_sets.h"

#include <algorithm>
#include <bit>

namespace rigpm {

const char* ChildCheckModeName(ChildCheckMode m) {
  switch (m) {
    case ChildCheckMode::kBinSearch:
      return "binSearch";
    case ChildCheckMode::kBitIter:
      return "bitIter";
    case ChildCheckMode::kBitBat:
      return "bitBat";
  }
  return "?";
}

CandidateSets InitialMatchSets(const Graph& g, const PatternQuery& q) {
  CandidateSets sets(q.NumNodes());
  for (QueryNodeId i = 0; i < q.NumNodes(); ++i) {
    LabelId label = q.Label(i);
    if (label < g.NumLabels()) {
      // Deep copy preserving each container's encoding: a run-encoded label
      // list (contiguously-labeled generated graphs) stays run-encoded, and
      // a borrowed mmap'd payload becomes a private copy of the *encoded*
      // bytes — never a decode.
      sets[i] = g.LabelBitmap(label);
    }  // else: label absent from the graph -> empty candidate set
  }
  return sets;
}

void NodeMarks::Drain(NodeId lo, NodeId hi, std::vector<NodeId>* out) {
  for (size_t w = lo >> 6; w <= (hi >> 6); ++w) {
    uint64_t word = words_[w];
    words_[w] = 0;
    while (word != 0) {
      out->push_back(static_cast<NodeId>((w << 6) | std::countr_zero(word)));
      word &= word - 1;
    }
  }
}

namespace {

NodeMarks& MarksOrLocal(const Graph& g, NodeMarks* marks, NodeMarks* local) {
  if (marks != nullptr) return *marks;
  local->Reserve(g.NumNodes());
  return *local;
}

// BFS with an optional depth bound from the seeds already in `*visited`,
// following out-edges when `forward`. Every node reached by a path of
// >= 1 edge is marked and appended to `*visited` after the seeds (a seed is
// only appended when a path leads back to it). Stops as soon as `stop_at`
// is reached.
void MarkBfs(const Graph& g, bool forward, uint32_t max_hops, NodeId stop_at,
             NodeMarks& marks, std::vector<NodeId>* visited) {
  uint32_t depth = 0;
  size_t level_end = visited->size();
  for (size_t head = 0; head < visited->size(); ++head) {
    if (head == level_end) {
      ++depth;
      level_end = visited->size();
    }
    if (max_hops > 0 && depth >= max_hops) break;
    const NodeId v = (*visited)[head];
    for (NodeId w : forward ? g.OutNeighbors(v) : g.InNeighbors(v)) {
      if (marks.TestAndSet(w)) continue;
      visited->push_back(w);
      if (w == stop_at) return;
    }
  }
}

// Multi-source BFS; the seeds themselves are NOT in the result (paths must
// have >= 1 edge). The result is read off the marked words in order.
Bitmap MultiSourceBfs(const Graph& g, const Bitmap& seeds, bool forward,
                      uint32_t max_hops, NodeMarks* scratch) {
  NodeMarks local;
  NodeMarks& marks = MarksOrLocal(g, scratch, &local);
  std::vector<NodeId> visited = seeds.ToVector();
  const size_t num_seeds = visited.size();
  MarkBfs(g, forward, max_hops, kInvalidNode, marks, &visited);
  if (visited.size() == num_seeds) return Bitmap();
  const auto [lo, hi] =
      std::minmax_element(visited.begin() + num_seeds, visited.end());
  const NodeId first = *lo;
  const NodeId last = *hi;
  visited.clear();
  marks.Drain(first, last, &visited);
  return Bitmap::FromSorted(visited);
}

}  // namespace

Bitmap NodesReaching(const Graph& g, const Bitmap& targets, uint32_t max_hops,
                     NodeMarks* marks) {
  return MultiSourceBfs(g, targets, /*forward=*/false, max_hops, marks);
}

Bitmap NodesReachableFrom(const Graph& g, const Bitmap& sources,
                          uint32_t max_hops, NodeMarks* marks) {
  return MultiSourceBfs(g, sources, /*forward=*/true, max_hops, marks);
}

bool BoundedReaches(const Graph& g, NodeId u, NodeId v, uint32_t max_hops,
                    NodeMarks* scratch) {
  NodeMarks local;
  NodeMarks& marks = MarksOrLocal(g, scratch, &local);
  std::vector<NodeId> visited = {u};
  MarkBfs(g, /*forward=*/true, max_hops, v, marks, &visited);
  const bool found = marks.Test(v);
  for (size_t i = 1; i < visited.size(); ++i) marks.ClearWordOf(visited[i]);
  return found;
}

namespace {

// Batch child check: keeps the nodes of `*set` adjacent to some node of
// `side` — through an in-edge of a `side` node when `in_edges` (the set is
// the edge's tail), an out-edge otherwise. The neighbour spans of `side`
// are ORed into the context's marks, `*set` is filtered against them in one
// sweep, and the touched words are cleared again: O(sum of degrees + |set|).
void KeepAdjacentTo(const MatchContext& ctx, const Bitmap& side, bool in_edges,
                    Bitmap* set) {
  const Graph& g = ctx.graph();
  NodeMarks& marks = ctx.marks();
  const std::vector<NodeId> side_nodes = side.ToVector();
  for (NodeId v : side_nodes) {
    for (NodeId w : in_edges ? g.InNeighbors(v) : g.OutNeighbors(v)) {
      marks.Set(w);
    }
  }
  std::vector<NodeId> kept;
  set->ForEach([&](NodeId u) {
    if (marks.Test(u)) kept.push_back(u);
  });
  for (NodeId v : side_nodes) {
    for (NodeId w : in_edges ? g.InNeighbors(v) : g.OutNeighbors(v)) {
      marks.ClearWordOf(w);
    }
  }
  if (kept.size() != set->Cardinality()) *set = Bitmap::FromSorted(kept);
}

// True iff some node of `adj` is in `other` (kBitIter: probe the CSR span
// against the candidate bitmap, with early exit).
bool SpanIntersects(std::span<const NodeId> adj, const Bitmap& other) {
  for (NodeId w : adj) {
    if (other.Contains(w)) return true;
  }
  return false;
}

// Per-pair existence probe: does u have a forward partner in dst along e?
bool HasForwardPartner(const MatchContext& ctx, const QueryEdge& e, NodeId u,
                       const std::vector<NodeId>& dst_nodes,
                       ChildCheckMode mode, const Bitmap& dst_bitmap,
                       SimStats* stats) {
  const Graph& g = ctx.graph();
  if (e.kind == EdgeKind::kChild) {
    if (mode == ChildCheckMode::kBitIter) {
      if (stats != nullptr) ++stats->pair_checks;
      return SpanIntersects(g.OutNeighbors(u), dst_bitmap);
    }
    // binSearch: probe each candidate against u's sorted adjacency array.
    auto adj = g.OutNeighbors(u);
    for (NodeId w : dst_nodes) {
      if (stats != nullptr) ++stats->pair_checks;
      if (std::binary_search(adj.begin(), adj.end(), w)) return true;
    }
    return false;
  }
  for (NodeId w : dst_nodes) {
    if (stats != nullptr) ++stats->pair_checks;
    if (ctx.EdgePairMatch(e, u, w)) return true;
  }
  return false;
}

bool HasBackwardPartner(const MatchContext& ctx, const QueryEdge& e, NodeId v,
                        const std::vector<NodeId>& src_nodes,
                        ChildCheckMode mode, const Bitmap& src_bitmap,
                        SimStats* stats) {
  const Graph& g = ctx.graph();
  if (e.kind == EdgeKind::kChild) {
    if (mode == ChildCheckMode::kBitIter) {
      if (stats != nullptr) ++stats->pair_checks;
      return SpanIntersects(g.InNeighbors(v), src_bitmap);
    }
    auto adj = g.InNeighbors(v);
    for (NodeId u : src_nodes) {
      if (stats != nullptr) ++stats->pair_checks;
      if (std::binary_search(adj.begin(), adj.end(), u)) return true;
    }
    return false;
  }
  for (NodeId u : src_nodes) {
    if (stats != nullptr) ++stats->pair_checks;
    if (ctx.EdgePairMatch(e, u, v)) return true;
  }
  return false;
}

}  // namespace

bool ForwardPruneEdge(const MatchContext& ctx, const QueryEdge& e, Bitmap* src,
                      const Bitmap& dst, const SimOptions& opts,
                      SimStats* stats) {
  const Graph& g = ctx.graph();
  const uint64_t before = src->Cardinality();
  if (dst.Empty()) {
    src->Clear();
  } else if (e.kind == EdgeKind::kChild &&
             opts.child_check == ChildCheckMode::kBitBat) {
    // Batch: src nodes with a child in dst are exactly the union of the
    // backward adjacency lists of dst, intersected with src (Section 4.5).
    if (stats != nullptr) ++stats->pair_checks;
    KeepAdjacentTo(ctx, dst, /*in_edges=*/true, src);
  } else if (e.kind == EdgeKind::kDescendant && opts.batch_reachability) {
    // Batch: nodes that reach some dst node, via one reverse BFS.
    if (stats != nullptr) ++stats->pair_checks;
    src->AndWith(NodesReaching(g, dst, e.max_hops, &ctx.marks()));
  } else {
    std::vector<NodeId> dst_nodes = dst.ToVector();
    std::vector<NodeId> survivors;
    src->ForEach([&](NodeId u) {
      if (HasForwardPartner(ctx, e, u, dst_nodes, opts.child_check, dst,
                            stats)) {
        survivors.push_back(u);
      }
    });
    *src = Bitmap::FromSorted(survivors);
  }
  const uint64_t after = src->Cardinality();
  if (stats != nullptr) stats->pruned_nodes += before - after;
  return after != before;
}

bool BackwardPruneEdge(const MatchContext& ctx, const QueryEdge& e,
                       const Bitmap& src, Bitmap* dst, const SimOptions& opts,
                       SimStats* stats) {
  const Graph& g = ctx.graph();
  const uint64_t before = dst->Cardinality();
  if (src.Empty()) {
    dst->Clear();
  } else if (e.kind == EdgeKind::kChild &&
             opts.child_check == ChildCheckMode::kBitBat) {
    if (stats != nullptr) ++stats->pair_checks;
    KeepAdjacentTo(ctx, src, /*in_edges=*/false, dst);
  } else if (e.kind == EdgeKind::kDescendant && opts.batch_reachability) {
    if (stats != nullptr) ++stats->pair_checks;
    dst->AndWith(NodesReachableFrom(g, src, e.max_hops, &ctx.marks()));
  } else {
    std::vector<NodeId> src_nodes = src.ToVector();
    std::vector<NodeId> survivors;
    dst->ForEach([&](NodeId v) {
      if (HasBackwardPartner(ctx, e, v, src_nodes, opts.child_check, src,
                             stats)) {
        survivors.push_back(v);
      }
    });
    *dst = Bitmap::FromSorted(survivors);
  }
  const uint64_t after = dst->Cardinality();
  if (stats != nullptr) stats->pruned_nodes += before - after;
  return after != before;
}

}  // namespace rigpm
