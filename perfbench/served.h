#ifndef PERFBENCH_SERVED_H_
#define PERFBENCH_SERVED_H_

// The benchmark's daemon side: a rigpm_serve child process, the served-ep
// traffic loop, and the probe rounds every traced run makes through a
// daemon.

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "server/client.h"
#include "storage/delta_log.h"

namespace perfbench {

/// A rigpm_serve child process on a unix socket (2 workers, result cache
/// at its default budget, no maintenance thread).
class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns the daemon (stdout/stderr to `log_path`) and polls until it
  /// answers a ping. Returns the seconds from spawn to that first answer,
  /// or a negative value (with *error) when it never answers.
  double Start(const std::string& serve_bin, const std::string& snapshot,
               const std::string& delta, const std::string& socket,
               const std::string& log_path, std::string* error);

  /// VmHWM of the daemon process in MiB (0 when unreadable).
  double PeakRssMb() const {
    return perfbench::PeakRssMb("/proc/" + std::to_string(pid_) + "/status");
  }

  /// Asks for a graceful shutdown and reaps the process (killing it if it
  /// has not exited within a few seconds). Safe to call twice.
  bool Stop();

  /// Kills the process and reaps it. Safe to call twice.
  void Kill();

 private:
  pid_t pid_ = -1;
  std::string socket_;
};

/// What a traced run reports for the layers behind the daemon.
struct ServedTrace {
  std::vector<double> refresh_rtt_ms;     // client-observed kRefresh
  std::vector<double> refresh_server_ms;  // RefreshResponse::refresh_ms
  std::vector<double> append_ms;          // DeltaWriter::AppendOps
  uint64_t delta_bytes = 0;
  uint64_t refreshes = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t singleflight_waits = 0;
  uint64_t cache_bytes_used = 0;
  std::vector<double> hit_rtt_ms;
  std::vector<double> miss_rtt_ms;
  std::vector<double> overhead_ms;  // miss RTT minus server phase time
  double frames_per_flush = 0.0;
};

/// Appends batches to a delta log and refreshes the daemon after each.
class Writer {
 public:
  /// Opens (creating) the log at `delta_path`, bound to the base snapshot.
  bool Open(const std::string& delta_path, uint64_t base_checksum,
            uint32_t base_num_nodes, const std::string& socket,
            std::string* error);
  /// Appends `ops` (fdatasync per append, the DeltaWriter default) and
  /// sends kRefresh. `stats_first` samples the daemon's current-generation
  /// cache counters into *trace before the refresh replaces that cache.
  bool Write(const std::vector<rigpm::DeltaOp>& ops, bool stats_first,
             ServedTrace* trace, std::string* error);

 private:
  std::unique_ptr<rigpm::DeltaWriter> log_;
  std::string delta_path_;
  rigpm::server::QueryClient client_;
};

/// Sends every request once (a round the daemon must evaluate) and then
/// once more (a round of cache hits), checking each count against
/// `expected` (a missing entry is not checked). Records RTTs and per-miss
/// overhead into *trace.
bool ProbeRounds(rigpm::server::QueryClient* client,
                 const std::vector<rigpm::server::QueryRequest>& requests,
                 const std::vector<std::string>& keys, const Counts& expected,
                 ServedTrace* trace, std::string* error);

/// Reads the daemon's flush and refresh counters and the cache's bytes in
/// use into *trace.
bool SampleServerStats(rigpm::server::QueryClient* client, ServedTrace* trace,
                       std::string* error);

struct ServedResult {
  bool correct = true;
  std::string error;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t reads = 0;
  double elapsed_s = 0.0;
  std::vector<double> read_ms;
};

/// The served-ep traffic: kReaderConnections closed-loop readers draw pool
/// queries with Zipf skew while a writer appends a batch and refreshes
/// after every kReadsPerWrite reads. Runs whole rounds (kReadsPerWrite
/// reads plus one write) until `seconds` have passed, then writes once
/// more and checks every pool query against the oracle of the final graph.
ServedResult RunServedTraffic(const std::vector<BenchQuery>& pool,
                              const Counts& oracle,
                              const std::vector<std::vector<rigpm::DeltaOp>>&
                                  batches,
                              uint64_t limit, uint64_t seed, double seconds,
                              const std::string& socket, Writer* writer,
                              bool trace, ServedTrace* served_trace);

}  // namespace perfbench

#endif  // PERFBENCH_SERVED_H_
