#include "enumerate/mjoin.h"

#include <algorithm>
#include <cassert>

#include "enumerate/mjoin_plan.h"

namespace rigpm {

namespace {

// Writes a ∩ b into `out`, which may alias `a`, and returns its length.
// `a` must be the shorter input. A `b` over 32 times longer is galloped
// through instead of merged: on hq-bs 3% of intersections are that skewed
// (3 ranks against 370 on average), and merging them too costs a sixth of
// its `qps`. Ratios from 4 to 32 time alike there; 64 and up are slower.
size_t Intersect(std::span<const uint32_t> a, std::span<const uint32_t> b,
                 uint32_t* out) {
  size_t n = 0;
  if (b.size() / 32 > a.size()) {
    size_t pos = 0;
    for (uint32_t x : a) {
      size_t lo = pos;
      size_t step = 1;
      while (lo + step < b.size() && b[lo + step] < x) {
        lo += step;
        step *= 2;
      }
      const size_t hi = std::min(lo + step, b.size());
      pos = std::lower_bound(b.begin() + lo, b.begin() + hi, x) - b.begin();
      if (pos == b.size()) break;
      if (b[pos] == x) out[n++] = x;
    }
    return n;
  }
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      out[n++] = a[i];
      ++i;
      ++j;
    }
  }
  return n;
}

bool RowHas(std::span<const uint32_t> row, uint32_t r) {
  return std::binary_search(row.begin(), row.end(), r);
}

class Enumerator {
 public:
  Enumerator(const MJoinPlan& plan, uint32_t root_first, uint32_t root_stride,
             const OccurrenceSink& sink, uint64_t limit, MJoinStats* stats)
      : steps_(plan.steps()), root_first_(root_first),
        root_stride_(root_stride), sink_(sink), limit_(limit), stats_(stats),
        rank_(steps_.size(), 0), rows_(steps_.size()),
        buffers_(steps_.size()) {
    tuple_.assign(steps_.size(), kInvalidNode);
    for (size_t i = 0; i < steps_.size(); ++i) {
      rows_[i].resize(steps_[i].constraints.size());
    }
  }

  uint64_t Run() {
    if (!steps_.empty()) Descend(0);
    if (stats_ != nullptr) stats_->occurrences = produced_;
    return produced_;
  }

 private:
  // Recursive backtracking search (procedure `enumeration` of Algorithm 5).
  // Returns false when the enumeration must stop (limit hit / sink said no).
  bool Descend(uint32_t i) {
    if (i == steps_.size()) {
      ++produced_;
      if (sink_ && !sink_(tuple_)) return false;
      return produced_ < limit_;
    }
    if (stats_ != nullptr) {
      stats_->max_depth_reached =
          std::max<uint64_t>(stats_->max_depth_reached, i + 1);
      ++stats_->intersections;
    }

    // Multiway intersection of the rows of the already matched neighbours
    // (lines 4-7 of Algorithm 5). Rows list ranks in cos(q_i), so cos(q_i)
    // itself is an input only when no earlier neighbour constrains q_i.
    const MJoinPlan::Step& step = steps_[i];
    if (step.constraints.empty()) {
      const size_t first = (i == 0) ? root_first_ : 0;
      const size_t stride = (i == 0) ? root_stride_ : 1;
      for (size_t r = first; r < step.cos.size(); r += stride) {
        if (!Visit(i, static_cast<uint32_t>(r))) return false;
      }
      return true;
    }
    for (uint32_t r : Candidates(i)) {
      if (!Visit(i, r)) return false;
    }
    return true;
  }

  // The ranks in cos(q_i) every constraint of step i admits, intersected
  // smallest row first into the step's reused buffer.
  std::span<const uint32_t> Candidates(uint32_t i) {
    const MJoinPlan::Step& step = steps_[i];
    std::vector<std::span<const uint32_t>>& rows = rows_[i];
    for (size_t c = 0; c < rows.size(); ++c) {
      const MJoinPlan::Constraint& con = step.constraints[c];
      rows[c] = (*con.rows)[rank_[con.earlier]];
    }
    if (rows.size() == 1) return rows[0];
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.size() < b.size();
    });
    std::vector<uint32_t>& buf = buffers_[i];
    if (buf.size() < rows[0].size()) buf.resize(rows[0].size());
    size_t n = Intersect(rows[0], rows[1], buf.data());
    for (size_t c = 2; c < rows.size() && n > 0; ++c) {
      n = Intersect({buf.data(), n}, rows[c], buf.data());
    }
    return {buf.data(), n};
  }

  bool Visit(uint32_t i, uint32_t r) {
    if (stats_ != nullptr) ++stats_->candidates_scanned;
    const MJoinPlan::Step& step = steps_[i];
    for (const RankRows* loop : step.loops) {
      if (!RowHas((*loop)[r], r)) return true;
    }
    rank_[i] = r;
    tuple_[step.node] = step.cos[r];
    return Descend(i + 1);
  }

  const std::vector<MJoinPlan::Step>& steps_;
  const uint32_t root_first_;
  const uint32_t root_stride_;
  const OccurrenceSink& sink_;
  const uint64_t limit_;
  MJoinStats* stats_;

  std::vector<uint32_t> rank_;  // per step: rank of the bound candidate
  std::vector<std::vector<std::span<const uint32_t>>> rows_;  // per step
  std::vector<std::vector<uint32_t>> buffers_;  // per step: intersection
  Occurrence tuple_;
  uint64_t produced_ = 0;
};

}  // namespace

MJoinPlan::MJoinPlan(const PatternQuery& q, const Rig& rig,
                     std::span<const QueryNodeId> order)
    : transposed_(q.NumEdges()), steps_(order.size()) {
  assert(order.size() == q.NumNodes());
  std::vector<uint32_t> pos(q.NumNodes());
  for (uint32_t i = 0; i < order.size(); ++i) {
    pos[order[i]] = i;
    steps_[i].node = order[i];
    steps_[i].cos = rig.Cos(order[i]);
  }
  for (QueryEdgeId e = 0; e < q.NumEdges(); ++e) {
    const uint32_t pf = pos[q.Edge(e).from];
    const uint32_t pt = pos[q.Edge(e).to];
    if (pf == pt) {
      steps_[pf].loops.push_back(&rig.Rows(e));
    } else if (pf < pt) {
      steps_[pt].constraints.push_back({&rig.Rows(e), pf});
    } else {
      transposed_[e] = rig.Transpose(e);
      steps_[pf].constraints.push_back({&transposed_[e].rows, pt});
    }
  }
}

uint64_t RunMJoin(const MJoinPlan& plan, uint32_t root_first,
                  uint32_t root_stride, const OccurrenceSink& sink,
                  uint64_t limit, MJoinStats* stats) {
  Enumerator e(plan, root_first, root_stride, sink, limit, stats);
  return e.Run();
}

uint64_t MJoin(const PatternQuery& q, const Rig& rig,
               std::span<const QueryNodeId> order, const OccurrenceSink& sink,
               const MJoinOptions& opts, MJoinStats* stats) {
  if (rig.AnyEmpty() || opts.limit == 0) {
    if (stats != nullptr) stats->occurrences = 0;
    return 0;  // empty RIG (the answer is empty) or nothing asked for
  }
  MJoinPlan plan(q, rig, order);
  return RunMJoin(plan, 0, 1, sink, opts.limit, stats);
}

std::vector<Occurrence> MJoinCollect(const PatternQuery& q, const Rig& rig,
                                     std::span<const QueryNodeId> order,
                                     const MJoinOptions& opts,
                                     MJoinStats* stats) {
  std::vector<Occurrence> out;
  MJoin(
      q, rig, order,
      [&out](const Occurrence& t) {
        out.push_back(t);
        return true;
      },
      opts, stats);
  return out;
}

uint64_t MJoinCount(const PatternQuery& q, const Rig& rig,
                    std::span<const QueryNodeId> order,
                    const MJoinOptions& opts, MJoinStats* stats) {
  return MJoin(q, rig, order, nullptr, opts, stats);
}

}  // namespace rigpm
