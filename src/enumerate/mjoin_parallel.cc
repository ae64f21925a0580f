#include "enumerate/mjoin_parallel.h"

#include <atomic>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "enumerate/mjoin_plan.h"
#include "util/concurrency.h"

namespace rigpm {

uint64_t MJoinParallel(const PatternQuery& q, const Rig& rig,
                       std::span<const QueryNodeId> order,
                       const OccurrenceSink& sink,
                       const ParallelMJoinOptions& opts, MJoinStats* stats) {
  if (rig.AnyEmpty() || q.NumNodes() == 0 || opts.limit == 0) return 0;
  const uint32_t threads =
      ResolveWorkerCount(opts.num_threads, rig.Cos(order[0]).size());
  if (threads <= 1) {
    MJoinOptions seq;
    seq.limit = opts.limit;
    return MJoin(q, rig, order, sink, seq, stats);
  }

  // Built before any worker starts and only read by them.
  const MJoinPlan plan(q, rig, order);
  std::atomic<uint64_t> produced{0};
  std::atomic<bool> aborted{false};
  std::vector<MJoinStats> worker_stats(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);

  for (uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      // Each worker claims occurrences against the shared budget; when the
      // budget is gone (or a sink aborted), it stops via the sink callback.
      OccurrenceSink wrapped = [&](const Occurrence& occ) {
        if (aborted.load(std::memory_order_relaxed)) return false;
        uint64_t ticket = produced.fetch_add(1, std::memory_order_relaxed);
        if (ticket >= opts.limit) {
          produced.fetch_sub(1, std::memory_order_relaxed);
          aborted.store(true, std::memory_order_relaxed);
          return false;
        }
        if (sink && !sink(occ)) {
          aborted.store(true, std::memory_order_relaxed);
          return false;
        }
        return ticket + 1 < opts.limit;
      };
      // Worker t takes the ranks t, t + threads, ... of cos(q_1).
      RunMJoin(plan, t, threads, wrapped,
               std::numeric_limits<uint64_t>::max(), &worker_stats[t]);
    });
  }
  for (auto& w : workers) w.join();

  if (stats != nullptr) {
    *stats = MJoinStats();
    for (const MJoinStats& ws : worker_stats) {
      stats->intersections += ws.intersections;
      stats->candidates_scanned += ws.candidates_scanned;
      stats->max_depth_reached =
          std::max(stats->max_depth_reached, ws.max_depth_reached);
    }
    stats->occurrences = std::min<uint64_t>(produced.load(), opts.limit);
  }
  return std::min<uint64_t>(produced.load(), opts.limit);
}

uint64_t MJoinParallelCount(const PatternQuery& q, const Rig& rig,
                            std::span<const QueryNodeId> order,
                            const ParallelMJoinOptions& opts,
                            MJoinStats* stats) {
  return MJoinParallel(q, rig, order, nullptr, opts, stats);
}

std::vector<Occurrence> MJoinParallelCollect(const PatternQuery& q,
                                             const Rig& rig,
                                             std::span<const QueryNodeId> order,
                                             const ParallelMJoinOptions& opts,
                                             MJoinStats* stats) {
  std::mutex mu;
  std::vector<Occurrence> out;
  MJoinParallel(
      q, rig, order,
      [&](const Occurrence& occ) {
        std::lock_guard<std::mutex> lock(mu);
        out.push_back(occ);
        return true;
      },
      opts, stats);
  return out;
}

}  // namespace rigpm
