#ifndef RIGPM_ENUMERATE_MJOIN_PLAN_H_
#define RIGPM_ENUMERATE_MJOIN_PLAN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "enumerate/mjoin.h"

namespace rigpm {

/// What one MJoin call reads, fixed by its search order before the search
/// starts. Step i binds query node order[i]; each query edge between it and
/// an earlier step is a constraint read through rows keyed by the earlier
/// step's rank and listing ranks in cos(order[i]): the Rig's own rows when
/// the order walks the edge forward, a transpose built here otherwise. The
/// plan is read-only once built, so parallel workers share one.
class MJoinPlan {
 public:
  struct Constraint {
    const RankRows* rows = nullptr;
    uint32_t earlier = 0;  // search step whose rank keys the row
  };
  struct Step {
    QueryNodeId node = 0;
    std::span<const NodeId> cos;
    std::vector<Constraint> constraints;
    std::vector<const RankRows*> loops;  // self-loop query edges on `node`
  };

  MJoinPlan(const PatternQuery& q, const Rig& rig,
            std::span<const QueryNodeId> order);

  MJoinPlan(const MJoinPlan&) = delete;
  MJoinPlan& operator=(const MJoinPlan&) = delete;

  const std::vector<Step>& steps() const { return steps_; }

 private:
  std::vector<OwnedRankRows> transposed_;  // per query edge; empty if unused
  std::vector<Step> steps_;
};

/// Sequential MJoin over `plan`, with the first step restricted to the
/// ranks root_first, root_first + root_stride, ... of its candidates
/// (root_stride 1 visits all of them). Emits at most `limit` occurrences
/// (limit > 0) in lexicographic order of the search order.
uint64_t RunMJoin(const MJoinPlan& plan, uint32_t root_first,
                  uint32_t root_stride, const OccurrenceSink& sink,
                  uint64_t limit, MJoinStats* stats);

}  // namespace rigpm

#endif  // RIGPM_ENUMERATE_MJOIN_PLAN_H_
