#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// What the benchmark's programs (pb_prep, pb_oracle, pb_bench) share: the
// workload definitions, the served pool and write batches, and the small
// text files they hand each other. Every input is a pure function of the
// workload definition and, where a workload takes one, the run's seed.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "query/pattern_query.h"
#include "query/query_templates.h"
#include "storage/delta_log.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  std::string dataset;  // DatasetRegistry() name
  double scale = 0.0;
  rigpm::QueryVariant variant = rigpm::QueryVariant::kHybrid;
  uint64_t limit = 0;
  bool served = false;
  // Fixed per workload so that it is the same quantile in every run; each
  // lands inside one query's cluster of samples, not between two clusters,
  // and leaves at least ten samples beyond it in a run (README).
  double tail_percentile = 0.0;
};

inline constexpr uint64_t kDatasetSeed = 7;
inline constexpr uint64_t kTemplateSeed = 11;

const std::vector<WorkloadSpec>& Workloads();
/// Null when `name` names no workload.
const WorkloadSpec* FindWorkload(const std::string& name);

struct BenchQuery {
  std::string name;      // "HQ7" in-process, "HQ7/s3" in the served pool
  std::string tpl;       // template name
  uint64_t tpl_seed = 0;  // served pool only: the template-request seed
  rigpm::PatternQuery query;
};

rigpm::Graph MakeWorkloadGraph(const WorkloadSpec& spec);

/// In-process workloads: the 20 Fig. 7 templates instantiated by
/// TemplateWorkload (seed kTemplateSeed). served-ep: the pool of template
/// requests, instantiated exactly as the daemon instantiates them.
std::vector<BenchQuery> WorkloadQueries(const WorkloadSpec& spec,
                                        const rigpm::Graph& g);

// --- served-ep traffic shape.
inline constexpr uint32_t kPoolSeedsPerTemplate = 5;
inline constexpr double kZipfExponent = 0.8;
inline constexpr uint32_t kReadsPerWrite = 48;
inline constexpr uint32_t kReaderConnections = 2;
inline constexpr uint32_t kPerturbations = 2;
inline constexpr uint32_t kAddsPerBatch = 100;
inline constexpr uint32_t kDeletesPerBatch = 100;

/// The write batches of one run: for each of kPerturbations seeded edge
/// sets a forward batch (adds A_k, deletes D_k) and its revert (deletes
/// A_k, adds D_k back), in the order f1 r1 f2 r2 ...; a run cycles through
/// them. So the served graph is always the base or one perturbation, and
/// the oracle needs kPerturbations + 1 graphs whatever the run length.
std::vector<std::vector<rigpm::DeltaOp>> MakeBatches(const rigpm::Graph& g,
                                                     uint64_t seed);

/// Which graph is served after `writes` batches have been applied: 0 for
/// the base, k for perturbation k (1-based).
uint32_t GraphAfterWrites(uint64_t writes);

// --- Files.

/// Query name -> count, one "name count" line each.
using Counts = std::map<std::string, uint64_t>;
/// Returns false when the file is missing or malformed. *header receives
/// the first '#' line (later ones are comments).
bool ReadCounts(const std::string& path, Counts* counts,
                std::string* header = nullptr);

bool WriteBatches(const std::string& path,
                  const std::vector<std::vector<rigpm::DeltaOp>>& batches);
bool ReadBatches(const std::string& path,
                 std::vector<std::vector<rigpm::DeltaOp>>* batches);

// --- Measurement.

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0);
double MsSince(Clock::time_point t0);

/// Linear-interpolated percentile (p in [0, 100]) of `v`; 0 when empty.
double Percentile(std::vector<double> v, double p);

/// Size of a file in bytes (0 when it cannot be read).
uint64_t FileSize(const std::string& path);

/// VmHWM (peak resident set) in MiB of the process whose status file is
/// `status_path` ("/proc/self/status", "/proc/PID/status"); 0 when
/// unreadable.
double PeakRssMb(const std::string& status_path);

/// 64-bit FNV-1a of a file's bytes (0 when unreadable); fingerprints the
/// generated data graph the stored oracle was counted on.
uint64_t FileFingerprint(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
