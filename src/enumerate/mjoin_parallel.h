#ifndef RIGPM_ENUMERATE_MJOIN_PARALLEL_H_
#define RIGPM_ENUMERATE_MJOIN_PARALLEL_H_

#include <cstdint>
#include <limits>

#include "enumerate/mjoin.h"

namespace rigpm {

/// Options for the multi-threaded enumerator.
struct ParallelMJoinOptions {
  /// Worker count; 0 = std::thread::hardware_concurrency().
  uint32_t num_threads = 0;
  /// Global cap across all workers. Workers co-operate through an atomic
  /// counter; the result never exceeds the limit.
  uint64_t limit = std::numeric_limits<uint64_t>::max();
};

/// Parallel MJoin — the multi-threaded evaluation the paper sketches as
/// future work in Section 6. The search space is partitioned by splitting
/// cos(q_1) (the first node of the search order) round-robin across workers:
/// worker t of T takes the candidates of rank t, t + T, ... Each worker runs
/// a sequential MJoin over rows built once before the workers start, so no
/// locks are taken and the union of the workers' outputs is exactly the
/// sequential answer (each occurrence binds q_1 to exactly one candidate,
/// hence lands in exactly one partition).
///
/// `sink`, when provided, is invoked CONCURRENTLY from worker threads and
/// must be thread-safe; returning false stops all workers. Returns the
/// number of occurrences produced (clamped to opts.limit; a limit of 0
/// returns 0 without calling the sink).
uint64_t MJoinParallel(const PatternQuery& q, const Rig& rig,
                       std::span<const QueryNodeId> order,
                       const OccurrenceSink& sink,
                       const ParallelMJoinOptions& opts = {},
                       MJoinStats* stats = nullptr);

/// Counting variant (no sink, no synchronization beyond the limit counter).
uint64_t MJoinParallelCount(const PatternQuery& q, const Rig& rig,
                            std::span<const QueryNodeId> order,
                            const ParallelMJoinOptions& opts = {},
                            MJoinStats* stats = nullptr);

/// Collecting variant: per-worker buffers merged at the end (order of
/// tuples is unspecified, unlike sequential MJoin).
std::vector<Occurrence> MJoinParallelCollect(
    const PatternQuery& q, const Rig& rig, std::span<const QueryNodeId> order,
    const ParallelMJoinOptions& opts = {}, MJoinStats* stats = nullptr);

}  // namespace rigpm

#endif  // RIGPM_ENUMERATE_MJOIN_PARALLEL_H_
