#ifndef RIGPM_RIG_RIG_H_
#define RIGPM_RIG_RIG_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bitmap/bitmap.h"
#include "query/pattern_query.h"

namespace rigpm {

/// Adjacency of one query edge in rank space: entry r is a row listing, in
/// ascending order, the ranks of the partners of the r-th candidate of the
/// endpoint the rows are keyed by.
using RankRows = std::vector<std::span<const uint32_t>>;

/// Rows that own their storage in one exact allocation (a transposed edge).
struct OwnedRankRows {
  std::vector<uint32_t> ranks;
  RankRows rows;
};

/// Runtime Index Graph (Definition 4.1): a k-partite graph with one
/// independent node set cos(q) per query node q and, for every query edge
/// e = (p, q), directed edges from cos(p) to cos(q) — the candidate
/// occurrence set cos(e).
///
/// cos(q) is a sorted node array; a candidate's rank is its position there,
/// so ranks ascend with node ids. Each query edge e = (p, q) stores one row
/// per rank of cos(p), listing the ranks in cos(q) of its RIG partners.
/// Rows live in fixed-size blocks the Rig owns. MJoin reads the rows
/// directly and transposes an edge (`Transpose`) when its search order
/// walks the edge from q to p (Section 5).
///
/// Invariant (Proposition 4.1): for every homomorphism h of Q and every
/// query edge (p, q), the pair (h(p), h(q)) is an edge of the RIG, i.e. the
/// RIG losslessly encodes the query answer search space.
class Rig {
 public:
  /// Creates an edgeless RIG with the given candidate node sets (one per
  /// query node of `q`).
  Rig(const PatternQuery& q, std::vector<Bitmap> node_sets);

  // Rows point into the blocks, which a move keeps and a copy would not.
  Rig(Rig&&) = default;
  Rig& operator=(Rig&&) = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  uint32_t NumQueryNodes() const {
    return static_cast<uint32_t>(cos_.size());
  }

  /// cos(q): candidate occurrence set of query node `q`, ascending.
  std::span<const NodeId> Cos(QueryNodeId q) const { return cos_[q]; }

  /// Rows of query edge e = (p, q), keyed by rank in cos(p).
  const RankRows& Rows(QueryEdgeId e) const { return rows_[e]; }

  /// The rows of query edge e = (p, q) keyed by rank in cos(q), listing
  /// ranks in cos(p): a counting-sort transpose of `Rows(e)`.
  OwnedRankRows Transpose(QueryEdgeId e) const;

  /// Expansion writes rows through these two calls: `RowSpace(n)` returns
  /// room for up to n ranks in the Rig's blocks, and `SetRow` keeps the
  /// first `len` ranks written there as row `rank` of edge `e`.
  uint32_t* RowSpace(size_t max_len);
  void SetRow(QueryEdgeId e, uint32_t rank, uint32_t len);

  /// |cos(e)|: number of RIG edges for query edge `e`.
  uint64_t EdgeCount(QueryEdgeId e) const { return edge_counts_[e]; }

  /// Total number of RIG nodes (sum of |cos(q)|).
  uint64_t TotalNodes() const;
  /// Total number of RIG edges (sum over query edges of |cos(e)|).
  uint64_t TotalEdges() const;
  /// Size = nodes + edges, the measure Fig. 13 reports.
  uint64_t Size() const { return TotalNodes() + TotalEdges(); }

  /// True iff some candidate set is empty — the query answer is then empty
  /// and evaluation can stop early (Section 4.3's early-termination win).
  bool AnyEmpty() const;

  /// Approximate heap footprint: candidate arrays and the rows each edge
  /// stores in one direction. The transposes MJoin builds are not counted.
  size_t MemoryBytes() const;

  std::string Summary() const;

 private:
  std::vector<std::vector<NodeId>> cos_;  // per query node, ascending
  std::vector<QueryEdge> edges_;          // per query edge: endpoints
  std::vector<RankRows> rows_;            // per query edge
  std::vector<uint64_t> edge_counts_;     // per query edge
  std::vector<std::unique_ptr<uint32_t[]>> blocks_;
  size_t block_ranks_ = 0;                // ranks allocated across blocks
  uint32_t* free_ = nullptr;              // unused tail of the last block
  size_t free_len_ = 0;
};

}  // namespace rigpm

#endif  // RIGPM_RIG_RIG_H_
