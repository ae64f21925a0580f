#ifndef RIGPM_SIM_MATCH_SETS_H_
#define RIGPM_SIM_MATCH_SETS_H_

#include <cstdint>
#include <vector>

#include "bitmap/bitmap.h"
#include "graph/graph.h"
#include "query/pattern_query.h"
#include "reach/reachability.h"

namespace rigpm {

/// How child-edge (direct connectivity) constraints are checked during
/// simulation (Section 4.5, Fig. 12a). All three read the CSR adjacency:
///  * kBinSearch — per candidate, binary-search every node of the other
///                 side in the candidate's sorted adjacency array,
///  * kBitIter   — per candidate, probe its adjacency span against the
///                 other side's candidate bitmap, with early exit,
///  * kBitBat    — batch: the adjacency spans of the whole other side are
///                 ORed into a dense bitset once, and the candidate set is
///                 filtered against it in one sweep.
enum class ChildCheckMode : uint8_t { kBinSearch, kBitIter, kBitBat };

const char* ChildCheckModeName(ChildCheckMode m);

/// Tuning knobs for the double-simulation computation.
struct SimOptions {
  /// 0 = iterate to the exact fixpoint. N > 0 stops after N passes — the
  /// approximation the paper applies (N = 3), which keeps FB a superset of
  /// the true double simulation and therefore still a sound RIG node set.
  int max_passes = 0;

  ChildCheckMode child_check = ChildCheckMode::kBitBat;

  /// Skip re-checking query nodes none of whose neighbors changed in the
  /// previous pass ("speedup convergence" flags of Section 4.5).
  bool use_change_flags = true;

  /// Batch descendant-edge pruning with one multi-source BFS per edge per
  /// pass instead of per-pair reachability probes. Exact either way; the
  /// BFS variant is the tuned default (it plays the role the bit-batch
  /// operation plays for child edges).
  bool batch_reachability = true;
};

/// Counters the experiments report.
struct SimStats {
  int passes = 0;
  uint64_t pair_checks = 0;   // reachability/adjacency probes issued
  uint64_t pruned_nodes = 0;  // candidate deletions across all passes

  void Reset() { *this = SimStats(); }
};

/// A candidate relation: one bitmap of data nodes per query node. Used for
/// ms(q) (match sets), FB(q) (double simulation) and cos(q) (RIG node sets).
/// The bitmaps are container-polymorphic (bitmap/bitmap.h): a candidate set
/// seeded from a clustered label inverted list starts run-encoded and the
/// pruning kernels (And/Or/AndNot) consume every container kind natively,
/// so compression survives into the simulation fixpoint rather than being
/// paid back on first use.
using CandidateSets = std::vector<Bitmap>;

/// A dense bitset over node ids: the scratch the batch kernels mark a node
/// set in (the dense accumulator of CRoaring's `roaring_bitmap_or_many`).
/// It is all-zero between uses; a kernel clears exactly the words it
/// touched, so a use costs O(nodes marked) and never O(|V|).
class NodeMarks {
 public:
  /// Grows the bitset to cover node ids below `num_nodes` (all clear).
  void Reserve(uint32_t num_nodes) {
    const size_t words = (static_cast<size_t>(num_nodes) + 63) / 64;
    if (words_.size() < words) words_.resize(words, 0);
  }

  void Set(NodeId v) { words_[v >> 6] |= uint64_t{1} << (v & 63); }
  bool Test(NodeId v) const { return (words_[v >> 6] >> (v & 63)) & 1; }
  /// Sets v's bit; returns whether it was set before.
  bool TestAndSet(NodeId v) {
    uint64_t& word = words_[v >> 6];
    const uint64_t bit = uint64_t{1} << (v & 63);
    const bool was_set = (word & bit) != 0;
    word |= bit;
    return was_set;
  }
  /// Zeroes the whole 64-node word holding v.
  void ClearWordOf(NodeId v) { words_[v >> 6] = 0; }

  /// Appends the marked ids in [lo, hi] to `out` in increasing order,
  /// reading whole words, and zeroes those words. Every marked id must lie
  /// in [lo, hi].
  void Drain(NodeId lo, NodeId hi, std::vector<NodeId>* out);

 private:
  std::vector<uint64_t> words_;
};

/// True iff a path of 1..max_hops edges leads from u to v (depth-limited
/// BFS; used by bounded descendant edges). Pass `marks` to reuse a caller's
/// scratch; without it the call allocates its own. Declared ahead of
/// MatchContext, which inlines it.
bool BoundedReaches(const Graph& g, NodeId u, NodeId v, uint32_t max_hops,
                    NodeMarks* marks = nullptr);

/// Binds the data graph with a reachability index; every simulation/RIG
/// routine works through this context. It also carries the per-worker
/// scratch of the batch kernels (NodeMarks and a rank array), so one
/// MatchContext must only be used by one thread at a time (EvalContext
/// holds one per worker).
class MatchContext {
 public:
  MatchContext(const Graph& g, const ReachabilityIndex& reach)
      : graph_(g), reach_(reach) {}

  MatchContext(const MatchContext&) = delete;
  MatchContext& operator=(const MatchContext&) = delete;
  MatchContext(MatchContext&&) = default;

  const Graph& graph() const { return graph_; }
  const ReachabilityIndex& reach() const { return reach_; }

  /// The all-zero scratch bitset, sized to the graph on first use. Callers
  /// leave it all-zero again when they are done.
  NodeMarks& marks() const {
    marks_.Reserve(graph_.NumNodes());
    return marks_;
  }

  /// Per-node scratch beside `marks`, sized to the graph on first use: a
  /// kernel that marks a sorted node set may store each marked node's
  /// position in that set here. Only entries of marked nodes are read, so
  /// it is never cleared.
  std::vector<uint32_t>& ranks() const {
    if (ranks_.size() < graph_.NumNodes()) ranks_.resize(graph_.NumNodes());
    return ranks_;
  }

  /// Pair-level query-edge match test (Section 4.1): labels are assumed
  /// already satisfied; checks the structural part only. Bounded descendant
  /// edges (max_hops > 0) are answered with a depth-limited BFS.
  bool EdgePairMatch(const QueryEdge& e, NodeId u, NodeId v) const {
    if (e.kind == EdgeKind::kChild) return graph_.HasEdge(u, v);
    if (e.max_hops > 0) {
      return BoundedReaches(graph_, u, v, e.max_hops, &marks());
    }
    return reach_.Reaches(u, v);
  }

 private:
  const Graph& graph_;
  const ReachabilityIndex& reach_;
  mutable NodeMarks marks_;
  mutable std::vector<uint32_t> ranks_;
};

/// ms(q) for every query node: the label inverted lists (Section 4.1).
CandidateSets InitialMatchSets(const Graph& g, const PatternQuery& q);

/// Prunes `src` (candidates of e.from) to the nodes that have at least one
/// forward match in `dst` (candidates of e.to) along edge `e`. Returns true
/// iff `src` changed. This is the single-edge building block all FB
/// algorithms share.
bool ForwardPruneEdge(const MatchContext& ctx, const QueryEdge& e, Bitmap* src,
                      const Bitmap& dst, const SimOptions& opts,
                      SimStats* stats);

/// Symmetric: prunes `dst` to nodes with a backward match in `src`.
bool BackwardPruneEdge(const MatchContext& ctx, const QueryEdge& e,
                       const Bitmap& src, Bitmap* dst, const SimOptions& opts,
                       SimStats* stats);

/// Set of nodes that can reach some node of `targets` via >= 1 edge
/// (reverse multi-source BFS). Exposed for tests; the simulation passes its
/// context's `marks`, otherwise the call allocates its own scratch.
/// `max_hops` = 0 means unbounded; otherwise paths of at most that length.
Bitmap NodesReaching(const Graph& g, const Bitmap& targets,
                     uint32_t max_hops = 0, NodeMarks* marks = nullptr);

/// Set of nodes reachable from some node of `sources` via >= 1 edge.
Bitmap NodesReachableFrom(const Graph& g, const Bitmap& sources,
                          uint32_t max_hops = 0, NodeMarks* marks = nullptr);

}  // namespace rigpm

#endif  // RIGPM_SIM_MATCH_SETS_H_
