#ifndef RIGPM_ENGINE_GM_OPTIONS_H_
#define RIGPM_ENGINE_GM_OPTIONS_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "enumerate/mjoin.h"
#include "order/search_order.h"
#include "query/pattern_query.h"
#include "rig/rig_builder.h"
#include "sim/match_sets.h"

namespace rigpm {

/// Configuration of one GM evaluation. The defaults reproduce the paper's
/// GM; the named ablations of Section 7.4 are specific flag settings:
///   GM    — defaults (pre-filter + double simulation + reduction),
///   GM-S  — use_prefilter = false,
///   GM-F  — use_double_simulation = false (pre-filter only),
///   GM-NR — use_transitive_reduction = false.
struct GmOptions {
  bool use_transitive_reduction = true;
  bool use_prefilter = true;
  bool use_double_simulation = true;

  SimAlgorithm sim_algorithm = SimAlgorithm::kDagMap;
  /// Simulation tuning; the paper stops after 3 passes.
  SimOptions sim = {.max_passes = 3};

  OrderStrategy order = OrderStrategy::kJO;
  bool early_termination = true;

  /// Enumeration cap (the experiments stop at 1e7 matches).
  uint64_t limit = std::numeric_limits<uint64_t>::max();

  /// Enumeration worker count (the parallel MJoin the paper sketches as
  /// future work in Section 6). 1 = sequential (the default, identical to
  /// the paper's engine); 0 = std::thread::hardware_concurrency(); N > 1 =
  /// that many workers. With more than one worker the occurrence sink is
  /// invoked concurrently and must be thread-safe; occurrence counts are
  /// identical to the sequential run (clamped to `limit`), but the emission
  /// order is unspecified.
  uint32_t num_threads = 1;
};

/// The stages of the GM chain (Sections 3-6), in execution order:
///   Reduce    — transitive reduction of the query (Section 3),
///   Prefilter — seed candidate sets: ms(q) or the Chen/Zeng pre-filter,
///   Simulate  — double simulation refines the seeds into cos(q),
///   BuildRig  — expand cos(q) into RIG edges (Algorithm 4),
///   Order     — search-order selection over RIG statistics (Section 5.2),
///   Enumerate — MJoin, sequential or parallel (Section 5 / Section 6).
/// The phases themselves live in engine/pipeline.h.
enum class PhaseKind : uint8_t {
  kReduce,
  kPrefilter,
  kSimulate,
  kBuildRig,
  kOrder,
  kEnumerate,
};

const char* PhaseKindName(PhaseKind kind);

/// Name/duration pair for one pipeline phase. The name is
/// PhaseKindName(kind) of the phase that ran.
struct PhaseTiming {
  const char* name = "";
  double ms = 0.0;
};

/// Everything one evaluation produces besides the occurrences themselves.
struct GmResult {
  uint64_t num_occurrences = 0;
  bool hit_limit = false;

  /// Wall-clock per executed pipeline phase, in execution order (one entry
  /// per Phase the QueryPipeline ran; phases skipped by the empty-RIG
  /// shortcut are absent). The only record of phase timings: the
  /// accessors below are derived from it.
  std::vector<PhaseTiming> phase_timings;

  /// Milliseconds spent in phase `kind`; 0 when it did not run.
  double PhaseMs(PhaseKind kind) const;
  /// "matching" = every phase before enumeration (reduction + filtering +
  /// RIG + ordering); "enumeration" = the MJoin run — the two components
  /// the paper's Metrics section reports.
  double EnumerateMs() const { return PhaseMs(PhaseKind::kEnumerate); }
  double MatchingMs() const { return TotalMs() - EnumerateMs(); }
  double TotalMs() const;

  uint64_t rig_nodes = 0;
  uint64_t rig_edges = 0;
  size_t rig_memory_bytes = 0;
  bool empty_rig_shortcut = false;  // answer proven empty before enumeration

  std::vector<QueryNodeId> order_used;
  RigBuildStats rig_stats;
  OrderStats order_stats;
  MJoinStats mjoin_stats;
  uint32_t reduced_query_edges = 0;  // edge count after transitive reduction
};

}  // namespace rigpm

#endif  // RIGPM_ENGINE_GM_OPTIONS_H_
