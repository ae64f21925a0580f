#include "served.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <random>
#include <thread>

namespace perfbench {

using rigpm::server::QueryClient;
using rigpm::server::QueryRequest;
using rigpm::server::QueryResponse;
using rigpm::server::StatusCode;

namespace {

double ServerPhaseMs(const QueryResponse& r) {
  double ms = 0.0;
  for (const auto& res : r.results) {
    for (const auto& pt : res.phase_timings) ms += pt.ms;
  }
  return ms;
}

}  // namespace

Daemon::~Daemon() { Stop(); }

double Daemon::Start(const std::string& serve_bin, const std::string& snapshot,
                     const std::string& delta, const std::string& socket,
                     const std::string& log_path, std::string* error) {
  socket_ = socket;
  ::unlink(socket.c_str());
  std::vector<std::string> args = {serve_bin,  "--snapshot", snapshot,
                                   "--delta",  delta,        "--socket",
                                   socket,     "--workers",  "2"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    *error = "cannot open " + log_path + ": " + std::strerror(errno);
    return -1.0;
  }
  // fork/exec rather than posix_spawn, for PR_SET_PDEATHSIG: the daemon
  // dies with this process however it ends. Called while no other thread
  // of this process runs.
  const Clock::time_point t0 = Clock::now();
  pid_ = ::fork();
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(serve_bin.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(log_fd);
  if (pid_ < 0) {
    *error = "cannot fork: " + std::string(std::strerror(errno));
    return -1.0;
  }
  while (SecondsSince(t0) < 60.0) {
    QueryClient probe;
    if (probe.ConnectUnix(socket, nullptr) && probe.Ping(nullptr)) {
      return SecondsSince(t0);
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *error = "daemon exited before answering a ping (see " + log_path + ")";
      return -1.0;
    }
    ::usleep(50);
  }
  *error = "daemon did not answer a ping within 60 s";
  Stop();
  return -1.0;
}

bool Daemon::Stop() {
  if (pid_ < 0) return true;
  {
    QueryClient client;
    if (client.ConnectUnix(socket_, nullptr)) client.Shutdown(nullptr);
  }
  bool clean = false;
  for (int i = 0; i < 500; ++i) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      pid_ = -1;
      return clean;
    }
    ::usleep(10'000);
  }
  Kill();
  return false;
}

void Daemon::Kill() {
  if (pid_ < 0) return;
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  pid_ = -1;
}

bool Writer::Open(const std::string& delta_path, uint64_t base_checksum,
                  uint32_t base_num_nodes, const std::string& socket,
                  std::string* error) {
  delta_path_ = delta_path;
  ::unlink(delta_path.c_str());
  log_ = rigpm::DeltaWriter::Open(delta_path, base_checksum, base_num_nodes,
                                  error);
  return log_ != nullptr && client_.ConnectUnix(socket, error);
}

bool Writer::Write(const std::vector<rigpm::DeltaOp>& ops, bool stats_first,
                   ServedTrace* trace, std::string* error) {
  Clock::time_point t0 = Clock::now();
  if (!log_->AppendOps(ops, error)) return false;
  trace->append_ms.push_back(MsSince(t0));
  trace->delta_bytes = FileSize(delta_path_);
  if (stats_first) {
    auto stats = client_.Stats(error);
    if (!stats.has_value()) return false;
    trace->cache_hits += stats->cache_hits;
    trace->cache_misses += stats->cache_misses;
    trace->singleflight_waits += stats->cache_singleflight_waits;
    trace->cache_bytes_used =
        std::max(trace->cache_bytes_used, stats->cache_bytes_used);
  }
  t0 = Clock::now();
  auto resp = client_.Refresh(error);
  if (!resp.has_value()) return false;
  if (resp->status != StatusCode::kOk || resp->records_applied != 1) {
    *error = "refresh failed: " + resp->error;
    return false;
  }
  trace->refresh_rtt_ms.push_back(MsSince(t0));
  trace->refresh_server_ms.push_back(resp->refresh_ms);
  return true;
}

namespace {

// True when `count` is the oracle's answer for `key` on some graph served
// by a generation in [lo, hi] (or the oracle has no answer for it).
bool CountIsLive(const Counts& oracle, const std::string& key, uint64_t lo,
                 uint64_t hi, uint64_t count) {
  bool any = false;
  for (uint64_t gen = lo; gen <= hi; ++gen) {
    auto it = oracle.find(key + "@" + std::to_string(GraphAfterWrites(gen)));
    if (it == oracle.end()) continue;
    any = true;
    if (it->second == count) return true;
  }
  return !any;
}

}  // namespace

bool ProbeRounds(QueryClient* client, const std::vector<QueryRequest>& requests,
                 const std::vector<std::string>& keys, const Counts& expected,
                 ServedTrace* trace, std::string* error) {
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < requests.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      auto resp = client->Query(requests[i], error);
      const double rtt = MsSince(t0);
      if (!resp.has_value()) return false;
      if (resp->status != StatusCode::kOk || resp->results.size() != 1) {
        *error = keys[i] + ": status " +
                 rigpm::server::StatusCodeName(resp->status) + " " +
                 resp->error;
        return false;
      }
      auto it = expected.find(keys[i]);
      if (it != expected.end() &&
          resp->results[0].num_occurrences != it->second) {
        *error = keys[i] + ": served " +
                 std::to_string(resp->results[0].num_occurrences) +
                 " occurrences, oracle " + std::to_string(it->second);
        return false;
      }
      if (round == 0) {
        trace->miss_rtt_ms.push_back(rtt);
        trace->overhead_ms.push_back(rtt - ServerPhaseMs(*resp));
      } else {
        trace->hit_rtt_ms.push_back(rtt);
      }
    }
  }
  return true;
}

bool SampleServerStats(QueryClient* client, ServedTrace* trace,
                       std::string* error) {
  auto stats = client->Stats(error);
  if (!stats.has_value()) return false;
  trace->refreshes = stats->refreshes;
  trace->cache_bytes_used =
      std::max(trace->cache_bytes_used, stats->cache_bytes_used);
  trace->frames_per_flush =
      stats->flushes == 0 ? 0.0
                          : static_cast<double>(stats->frames_flushed) /
                                static_cast<double>(stats->flushes);
  return true;
}

ServedResult RunServedTraffic(
    const std::vector<BenchQuery>& pool, const Counts& oracle,
    const std::vector<std::vector<rigpm::DeltaOp>>& batches, uint64_t limit,
    uint64_t seed, double seconds, const std::string& socket, Writer* writer,
    bool trace, ServedTrace* served_trace) {
  ServedResult result;
  std::vector<QueryRequest> requests(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    requests[i].template_name = pool[i].tpl;
    requests[i].template_seed = pool[i].tpl_seed;
    requests[i].limit = limit;
  }

  // Zipf popularity over a fixed (seed-independent) ranking of the pool:
  // the run's seed draws the request sequence, not which queries are hot,
  // so every seed offers the daemon the same mix.
  std::vector<size_t> by_rank(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) by_rank[i] = i;
  std::shuffle(by_rank.begin(), by_rank.end(), std::mt19937_64(20240611));
  std::vector<double> weights(pool.size());
  for (size_t r = 0; r < pool.size(); ++r) {
    weights[r] = 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
  }

  std::mutex mu;
  std::condition_variable cv;
  uint64_t next_read = 0;
  uint64_t rounds_issued = 0;
  bool stopped = false;
  std::mt19937_64 rng(seed);
  std::discrete_distribution<size_t> zipf(weights.begin(), weights.end());
  std::atomic<uint64_t> committed{0};  // writes whose refresh answered
  std::atomic<uint64_t> pending{0};    // writes started
  std::mutex result_mu;
  std::string first_error;
  uint64_t failed = 0;

  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  // A round starts only before the deadline and, once started, is issued
  // whole: every run attempts whole rounds.
  auto next = [&](size_t* pool_index) {
    std::lock_guard<std::mutex> lock(mu);
    if (next_read % kReadsPerWrite == 0 &&
        (stopped || Clock::now() >= deadline)) {
      stopped = true;
      cv.notify_all();
      return false;
    }
    *pool_index = by_rank[zipf(rng)];
    if (++next_read % kReadsPerWrite == 0) {
      ++rounds_issued;
      cv.notify_all();
    }
    return true;
  };
  auto fail = [&](const std::string& msg) {
    std::lock_guard<std::mutex> lock(result_mu);
    ++failed;
    if (first_error.empty()) first_error = msg;
  };

  std::vector<std::vector<double>> latencies(kReaderConnections);
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < kReaderConnections; ++c) {
    threads.emplace_back([&, c] {
      // However this reader ends, the writer must not wait for it.
      struct StopOnExit {
        std::mutex& mu;
        std::condition_variable& cv;
        bool& stopped;
        ~StopOnExit() {
          std::lock_guard<std::mutex> lock(mu);
          stopped = true;
          cv.notify_all();
        }
      } stop_on_exit{mu, cv, stopped};
      QueryClient client;
      std::string error;
      if (!client.ConnectUnix(socket, &error)) {
        fail("reader connect: " + error);
        return;
      }
      size_t q = 0;
      while (next(&q)) {
        const uint64_t lo = committed.load();
        const Clock::time_point t0 = Clock::now();
        auto resp = client.Query(requests[q], &error);
        const double ms = MsSince(t0);
        const uint64_t hi = pending.load();
        if (!resp.has_value()) {
          fail(pool[q].name + ": " + error);
          if (!client.ConnectUnix(socket, &error)) return;
          continue;
        }
        if (resp->status != StatusCode::kOk || resp->results.size() != 1) {
          fail(pool[q].name + ": status " +
               rigpm::server::StatusCodeName(resp->status) + " " +
               resp->error);
          continue;
        }
        latencies[c].push_back(ms);
        const uint64_t count = resp->results[0].num_occurrences;
        if (!CountIsLive(oracle, pool[q].name, lo, hi, count)) {
          fail(pool[q].name + ": served " + std::to_string(count) +
               " occurrences, which no live generation's oracle gives");
        }
      }
    });
  }
  threads.emplace_back([&] {
    uint64_t done = 0;
    std::string error;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return rounds_issued > done || stopped; });
        if (rounds_issued == done) break;  // stopped, all rounds written
      }
      pending.store(done + 1);
      if (!writer->Write(batches[done % batches.size()], trace, served_trace,
                         &error)) {
        fail("write " + std::to_string(done + 1) + ": " + error);
      }
      committed.store(++done);
    }
  });
  for (std::thread& t : threads) t.join();
  result.elapsed_s = SecondsSince(start);

  for (const std::vector<double>& l : latencies) {
    result.read_ms.insert(result.read_ms.end(), l.begin(), l.end());
  }
  result.reads = next_read;
  result.attempted = next_read + rounds_issued;
  result.failed = failed;
  if (!first_error.empty()) {
    result.correct = false;
    result.error = first_error;
    return result;
  }

  // After the run: one more write, so every pool query is evaluated afresh
  // on the final graph, then compared with that graph's oracle.
  std::string error;
  if (!writer->Write(batches[rounds_issued % batches.size()], trace,
                     served_trace, &error)) {
    result.correct = false;
    result.error = "final write: " + error;
    return result;
  }
  const uint32_t final_graph = GraphAfterWrites(rounds_issued + 1);
  std::vector<std::string> keys;
  for (const BenchQuery& q : pool) {
    keys.push_back(q.name + "@" + std::to_string(final_graph));
  }
  QueryClient client;
  if (!client.ConnectUnix(socket, &error) ||
      !ProbeRounds(&client, requests, keys, oracle, served_trace, &error) ||
      (trace && !SampleServerStats(&client, served_trace, &error))) {
    result.correct = false;
    result.error = "final check: " + error;
  }
  return result;
}

}  // namespace perfbench
