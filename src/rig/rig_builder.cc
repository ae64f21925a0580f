#include "rig/rig_builder.h"

#include <algorithm>
#include <bit>
#include <chrono>

namespace rigpm {

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Expands one query edge (Procedure expand): writes, for every vp in cos(p)
// in rank order, the row of its partners' ranks in cos(q).
void ExpandEdge(const MatchContext& ctx, const PatternQuery& q, QueryEdgeId e,
                const IntervalLabels* intervals, bool early_termination,
                Rig* rig, RigBuildStats* stats) {
  const QueryEdge& edge = q.Edge(e);
  const Graph& g = ctx.graph();
  const std::span<const NodeId> src = rig->Cos(edge.from);
  const std::span<const NodeId> dst = rig->Cos(edge.to);
  if (src.empty() || dst.empty()) return;

  if (edge.kind == EdgeKind::kChild) {
    // Direct connectivity, adjf(vp) ∩ cos(q) per source node (Section 4.5):
    // cos(q) is marked in the context's scratch once, with each node's rank
    // beside it, and each vp keeps the marked targets of its CSR span, which
    // come in ascending node id and therefore ascending rank.
    NodeMarks& marks = ctx.marks();
    std::vector<uint32_t>& rank_of = ctx.ranks();
    for (uint32_t r = 0; r < dst.size(); ++r) {
      marks.Set(dst[r]);
      rank_of[dst[r]] = r;
    }
    for (uint32_t r = 0; r < src.size(); ++r) {
      if (stats != nullptr) ++stats->expand_pair_checks;
      const std::span<const NodeId> out = g.OutNeighbors(src[r]);
      uint32_t* row = rig->RowSpace(std::min(out.size(), dst.size()));
      uint32_t len = 0;
      for (NodeId vq : out) {
        if (marks.Test(vq)) row[len++] = rank_of[vq];
      }
      rig->SetRow(e, r, len);
    }
    for (NodeId vq : dst) marks.ClearWordOf(vq);
    return;
  }

  // Reachability edge: probe pairs through the reachability index. With
  // interval labels, scan cos(q) in ascending `begin` order and cut the
  // scan at the first vq that starts after vp finished. A vp's hits are set
  // in a bitset over cos(q)'s ranks and read off its words in rank order.
  const bool cutoff = intervals != nullptr && early_termination;
  std::vector<uint32_t> scan(dst.size());
  for (uint32_t r = 0; r < dst.size(); ++r) scan[r] = r;
  if (cutoff) {
    std::sort(scan.begin(), scan.end(), [&](uint32_t a, uint32_t b) {
      return intervals->Begin(dst[a]) < intervals->Begin(dst[b]);
    });
  }
  std::vector<uint64_t> hits((dst.size() + 63) / 64, 0);
  for (uint32_t r = 0; r < src.size(); ++r) {
    const NodeId vp = src[r];
    uint32_t count = 0;
    uint32_t lo = UINT32_MAX;
    uint32_t hi = 0;
    for (uint32_t t : scan) {
      const NodeId vq = dst[t];
      if (cutoff && intervals->End(vp) < intervals->Begin(vq)) {
        if (stats != nullptr) ++stats->early_cutoffs;
        break;  // every later vq has an even larger begin
      }
      if (stats != nullptr) ++stats->expand_pair_checks;
      bool reaches =
          (edge.max_hops > 0)
              ? BoundedReaches(g, vp, vq, edge.max_hops, &ctx.marks())
              : ctx.reach().Reaches(vp, vq);
      if (!reaches) continue;
      hits[t >> 6] |= uint64_t{1} << (t & 63);
      ++count;
      lo = std::min(lo, t >> 6);
      hi = std::max(hi, t >> 6);
    }
    if (count == 0) continue;
    uint32_t* row = rig->RowSpace(count);
    uint32_t len = 0;
    for (uint32_t w = lo; w <= hi; ++w) {
      for (uint64_t word = hits[w]; word != 0; word &= word - 1) {
        row[len++] = (w << 6) | static_cast<uint32_t>(std::countr_zero(word));
      }
      hits[w] = 0;
    }
    rig->SetRow(e, r, len);
  }
}

}  // namespace

CandidateSets SelectRigNodes(const MatchContext& ctx, const PatternQuery& q,
                             CandidateSets initial,
                             const RigBuildOptions& opts,
                             RigBuildStats* stats) {
  auto t0 = std::chrono::steady_clock::now();
  CandidateSets cos;
  if (opts.skip_simulation) {
    cos = std::move(initial);
  } else {
    // The simulation runs from the provided sets; sound because FB computed
    // from any superset of os(q) still contains os(q).
    CandidateSets fb = std::move(initial);
    // Reuse the FBSim machinery but seed it with `fb` by intersecting the
    // result of the chosen algorithm (which starts from ms(q)) with fb: for
    // the common case fb == ms(q) this is exact; for pre-filtered seeds it
    // only removes more redundant nodes.
    SimStats* sim_stats = (stats != nullptr) ? &stats->sim : nullptr;
    CandidateSets sim =
        ComputeDoubleSimulation(ctx, q, opts.sim_algorithm, opts.sim,
                                sim_stats);
    cos.resize(q.NumNodes());
    for (QueryNodeId i = 0; i < q.NumNodes(); ++i) {
      cos[i] = Bitmap::And(sim[i], fb[i]);
    }
  }
  if (stats != nullptr) stats->select_ms = MsSince(t0);
  return cos;
}

Rig ExpandRig(const MatchContext& ctx, const PatternQuery& q,
              CandidateSets cos, const RigBuildOptions& opts,
              const IntervalLabels* intervals, RigBuildStats* stats) {
  Rig rig(q, std::move(cos));

  // Expansion is skipped entirely when some cos(q) is empty: the answer is
  // empty (early termination, Section 4.3).
  auto t1 = std::chrono::steady_clock::now();
  if (!rig.AnyEmpty()) {
    for (QueryEdgeId e = 0; e < q.NumEdges(); ++e) {
      ExpandEdge(ctx, q, e, intervals, opts.early_termination, &rig, stats);
    }
  }
  if (stats != nullptr) stats->expand_ms = MsSince(t1);
  return rig;
}

Rig BuildRig(const MatchContext& ctx, const PatternQuery& q,
             CandidateSets initial, const RigBuildOptions& opts,
             const IntervalLabels* intervals, RigBuildStats* stats) {
  return ExpandRig(ctx, q,
                   SelectRigNodes(ctx, q, std::move(initial), opts, stats),
                   opts, intervals, stats);
}

Rig BuildRigFromMatchSets(const MatchContext& ctx, const PatternQuery& q,
                          const RigBuildOptions& opts,
                          const IntervalLabels* intervals,
                          RigBuildStats* stats) {
  return BuildRig(ctx, q, InitialMatchSets(ctx.graph(), q), opts, intervals,
                  stats);
}

}  // namespace rigpm
