// pb_bench — the measured process of one benchmark run.
//
//   pb_bench --workload W --run DIR --oracle FILE --seed N --seconds S
//            --trace 0|1 --serve RIGPM_SERVE [--batches FILE]
//
// DIR is the run's own directory: it holds the inputs run.py prepared
// (graph.txt, engine.snap) and takes this process's files.
// cq-go and hq-bs evaluate their 20 queries in this process, pass after
// pass, through GmEngine::Evaluate with one reused EvalContext; served-ep
// drives a rigpm_serve child. With --trace 1 the run times each layer's
// public calls from outside the program instead (see README.md). The last
// line of stdout is one JSON object; run.py adds the independent check of
// the occurrences written to RUN/tuples.txt.

#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "engine/gm_engine.h"
#include "engine/pipeline.h"
#include "query/pattern_parser.h"
#include "query/query_io.h"
#include "served.h"
#include "storage/snapshot.h"

using namespace perfbench;

namespace {

// Set-up repetitions, made before the timed phase and again after it (the
// median of both is reported), and the occurrences per query handed to the
// independent checker. One set-up takes 0.5 to 6 ms and single samples
// range over a factor of two or more on a shared host, so a run takes many.
constexpr int kSetupReps = 50;
constexpr int kDaemonSetupReps = 50;
constexpr int kLayerReps = 3;
constexpr size_t kTuplesPerQuery = 8;

struct Args {
  std::string workload, run, oracle, serve, batches;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.10g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), MetricsJson(metrics).c_str());
  std::fflush(stdout);
}

int Fail(const std::string& msg) {
  std::fprintf(stderr, "pb_bench: %s\n", msg.c_str());
  return 1;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double FileMb(const std::string& path) {
  return static_cast<double>(FileSize(path)) / (1024.0 * 1024.0);
}

// The six end-to-end metrics, from one run's timings.
std::vector<Metric> EndToEnd(double setup_s, uint64_t queries,
                             double elapsed_s, const std::vector<double>& lat,
                             double tail_percentile, double peak_rss_mb,
                             double snapshot_mb) {
  return {{"setup_s", setup_s, "s"},
          {"qps", static_cast<double>(queries) / elapsed_s, "1/s"},
          {"lat_p50_ms", Percentile(lat, 50), "ms"},
          {"lat_tail_ms", Percentile(lat, tail_percentile), "ms"},
          {"peak_rss_mb", peak_rss_mb, "MB"},
          {"snapshot_mb", snapshot_mb, "MB"}};
}

// Moves the thread that made it across the CPUs it may run on, round robin:
// on each Next() and, from a thread of its own, every kRotateMs. Gives the
// original CPU set back on destruction. A single-threaded run otherwise
// spends its window on the CPU the scheduler first picked; on a shared host
// each CPU's speed drifts on its own (on the 4-vCPU machine this was written
// on, a memory-bound loop ran up to 40% slower on one vCPU than on another
// at the same time), so runs would differ by where they landed. Visiting
// every CPU in turn gives each run the same mix.
class CpuRotation {
 public:
  CpuRotation() : tid_(static_cast<pid_t>(::syscall(SYS_gettid))) {
    CPU_ZERO(&original_);
    if (sched_getaffinity(tid_, sizeof(original_), &original_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
    if (cpus_.size() < 2) return;
    thread_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(mu_);
      while (!cv_.wait_for(lock, std::chrono::milliseconds(kRotateMs),
                           [this] { return stop_; })) {
        Next();
      }
    });
  }
  ~CpuRotation() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    if (!cpus_.empty()) sched_setaffinity(tid_, sizeof(original_), &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(tid_, sizeof(one), &one);
  }

 private:
  static constexpr int kRotateMs = 20;
  const pid_t tid_;
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::atomic<size_t> next_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

// --- Loading the engine the way a serving process does.
struct Loaded {
  std::optional<rigpm::WarmEngine> warm;
  std::optional<rigpm::EvalContext> ctx;
  std::vector<double> setup_s;  // LoadEngineSnapshot + MakeContext
  std::vector<double> load_ms;  // LoadEngineSnapshot alone
};

bool LoadRepeatedly(const std::string& snapshot, int reps,
                    CpuRotation* rotation, Loaded* out, std::string* error) {
  rigpm::LoadOptions options;
  options.io_mode = rigpm::SnapshotIoMode::kMmap;
  for (int r = 0; r < reps; ++r) {
    if (rotation != nullptr) rotation->Next();
    out->ctx.reset();
    out->warm.reset();
    const Clock::time_point t0 = Clock::now();
    out->warm = rigpm::LoadEngineSnapshot(snapshot, options, error);
    if (!out->warm.has_value()) return false;
    const double load_ms = MsSince(t0);
    out->ctx.emplace(out->warm->engine->MakeContext());
    out->setup_s.push_back(SecondsSince(t0));
    out->load_ms.push_back(load_ms);
  }
  return true;
}

// --- Per-layer accounting of one pass of phase-at-a-time evaluation.
struct LayerPass {
  double ms[6] = {};
  uint64_t reduced_edges = 0;
  uint64_t prefilter_candidates = 0;
  uint64_t simulate_candidates = 0;
  uint64_t sim_passes = 0;
  uint64_t pair_checks = 0;
  uint64_t pruned_nodes = 0;
  uint64_t rig_nodes = 0;
  uint64_t rig_edges = 0;
  uint64_t expand_pair_checks = 0;
  uint64_t early_cutoffs = 0;
  uint64_t empty_shortcuts = 0;
  uint64_t intersections = 0;
  uint64_t candidates_scanned = 0;
  uint64_t occurrences = 0;
  uint64_t limit_hits = 0;
  size_t rig_peak_bytes = 0;
};

uint64_t TotalCandidates(const rigpm::CandidateSets& sets) {
  uint64_t n = 0;
  for (const rigpm::Bitmap& b : sets) n += b.Cardinality();
  return n;
}

class PhaseRunner {
 public:
  PhaseRunner() {
    for (int k = 0; k < 6; ++k) {
      phases_.push_back(rigpm::MakePhase(static_cast<rigpm::PhaseKind>(k)));
    }
  }

  // Evaluates `q` one phase at a time, timing each Phase::Run. Returns the
  // occurrence count.
  uint64_t Run(rigpm::EvalContext& ctx, const rigpm::PatternQuery& q,
               const rigpm::GmOptions& opts, LayerPass* pass) const {
    rigpm::PipelineState& s = ctx.state();
    s.Reset(q, opts, nullptr);
    for (int k = 0; k < 6 && !s.finished; ++k) {
      const Clock::time_point t0 = Clock::now();
      phases_[k]->Run(ctx, s);
      pass->ms[k] += MsSince(t0);
      if (k == static_cast<int>(rigpm::PhaseKind::kPrefilter)) {
        pass->prefilter_candidates += TotalCandidates(s.candidates);
      } else if (k == static_cast<int>(rigpm::PhaseKind::kSimulate)) {
        pass->simulate_candidates += TotalCandidates(s.candidates);
      }
    }
    const rigpm::GmResult& r = s.result;
    pass->reduced_edges += r.reduced_query_edges;
    pass->sim_passes += static_cast<uint64_t>(r.rig_stats.sim.passes);
    pass->pair_checks += r.rig_stats.sim.pair_checks;
    pass->pruned_nodes += r.rig_stats.sim.pruned_nodes;
    pass->rig_nodes += r.rig_nodes;
    pass->rig_edges += r.rig_edges;
    pass->expand_pair_checks += r.rig_stats.expand_pair_checks;
    pass->early_cutoffs += r.rig_stats.early_cutoffs;
    pass->empty_shortcuts += r.empty_rig_shortcut ? 1 : 0;
    pass->intersections += r.mjoin_stats.intersections;
    pass->candidates_scanned += r.mjoin_stats.candidates_scanned;
    pass->occurrences += r.num_occurrences;
    pass->limit_hits += r.hit_limit ? 1 : 0;
    pass->rig_peak_bytes = std::max(pass->rig_peak_bytes, r.rig_memory_bytes);
    return r.num_occurrences;
  }

 private:
  std::vector<std::unique_ptr<rigpm::Phase>> phases_;
};

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Per-layer metrics of the query path: medians over passes of per-pass
// totals (each pass evaluates every query of the workload once).
std::vector<Metric> QueryLayerMetrics(const std::vector<LayerPass>& passes) {
  auto median_of = [&](auto get) {
    std::vector<double> v;
    for (const LayerPass& p : passes) v.push_back(static_cast<double>(get(p)));
    return Median(v);
  };
  auto med = [&](auto LayerPass::*field) {
    return median_of([field](const LayerPass& p) { return p.*field; });
  };
  auto phase = [&](rigpm::PhaseKind k) {
    return median_of(
        [k](const LayerPass& p) { return p.ms[static_cast<int>(k)]; });
  };
  using K = rigpm::PhaseKind;
  using P = LayerPass;
  const double prefilter_c = med(&P::prefilter_candidates);
  const double simulate_c = med(&P::simulate_candidates);
  const double rig_edges = med(&P::rig_edges);
  const double expand_checks = med(&P::expand_pair_checks);
  const double occurrences = med(&P::occurrences);
  const double scanned = med(&P::candidates_scanned);
  return {
      {"query.reduce_ms", phase(K::kReduce), "ms"},
      {"query.reduced_edges", med(&P::reduced_edges), "count"},
      {"sim.prefilter_ms", phase(K::kPrefilter), "ms"},
      {"sim.simulate_ms", phase(K::kSimulate), "ms"},
      {"sim.prefilter_candidates", prefilter_c, "count"},
      {"sim.simulate_candidates", simulate_c, "count"},
      {"sim.keep_ratio", Ratio(simulate_c, prefilter_c), "ratio"},
      {"sim.passes", med(&P::sim_passes), "count"},
      {"sim.pair_checks", med(&P::pair_checks), "count"},
      {"sim.pruned_nodes", med(&P::pruned_nodes), "count"},
      {"rig.build_ms", phase(K::kBuildRig), "ms"},
      {"rig.nodes", med(&P::rig_nodes), "count"},
      {"rig.edges", rig_edges, "count"},
      {"rig.expand_pair_checks", expand_checks, "count"},
      {"rig.early_cutoffs", med(&P::early_cutoffs), "count"},
      {"rig.edge_yield", Ratio(rig_edges, expand_checks), "ratio"},
      {"rig.peak_mb", med(&P::rig_peak_bytes) / (1024.0 * 1024.0), "MB"},
      {"rig.empty_shortcuts", med(&P::empty_shortcuts), "count"},
      {"order.ms", phase(K::kOrder), "ms"},
      {"enumerate.ms", phase(K::kEnumerate), "ms"},
      {"enumerate.intersections", med(&P::intersections), "count"},
      {"enumerate.candidates_scanned", scanned, "count"},
      {"enumerate.occurrences", occurrences, "count"},
      {"enumerate.yield", Ratio(occurrences, scanned), "ratio"},
      {"enumerate.limit_hits", med(&P::limit_hits), "count"},
  };
}

// reach.index_build_ms and storage.snapshot_{load,save}_ms.
std::vector<Metric> StorageLayerMetrics(const Loaded& loaded,
                                        const std::string& save_path,
                                        std::string* error) {
  std::vector<double> build_ms, save_ms;
  for (int r = 0; r < kLayerReps; ++r) {
    Clock::time_point t0 = Clock::now();
    { rigpm::GmEngine engine(*loaded.warm->graph); }
    build_ms.push_back(MsSince(t0));
    t0 = Clock::now();
    if (!rigpm::SaveEngineSnapshot(*loaded.warm->engine, save_path,
                                   error)) {
      return {};
    }
    save_ms.push_back(MsSince(t0));
  }
  ::unlink(save_path.c_str());
  return {{"reach.index_build_ms", Median(build_ms), "ms"},
          {"storage.snapshot_load_ms", Median(loaded.load_ms), "ms"},
          {"storage.snapshot_save_ms", Median(save_ms), "ms"}};
}

std::vector<Metric> ServedLayerMetrics(const ServedTrace& t) {
  return {
      {"storage.delta_append_ms", Median(t.append_ms), "ms"},
      {"storage.delta_bytes", static_cast<double>(t.delta_bytes), "bytes"},
      {"catalog.refresh_ms", Median(t.refresh_rtt_ms), "ms"},
      {"catalog.refresh_server_ms", Median(t.refresh_server_ms), "ms"},
      {"catalog.refreshes", static_cast<double>(t.refreshes), "count"},
      {"result_cache.hits", static_cast<double>(t.cache_hits), "count"},
      {"result_cache.misses", static_cast<double>(t.cache_misses), "count"},
      {"result_cache.hit_ratio",
       Ratio(static_cast<double>(t.cache_hits),
             static_cast<double>(t.cache_hits + t.cache_misses)),
       "ratio"},
      {"result_cache.singleflight_waits",
       static_cast<double>(t.singleflight_waits), "count"},
      {"result_cache.bytes_used", static_cast<double>(t.cache_bytes_used),
       "bytes"},
      {"server.hit_rtt_p50_ms", Median(t.hit_rtt_ms), "ms"},
      {"server.miss_rtt_p50_ms", Median(t.miss_rtt_ms), "ms"},
      {"server.overhead_p50_ms", Median(t.overhead_ms), "ms"},
      {"server.frames_per_flush", t.frames_per_flush, "ratio"},
  };
}

bool ReadOracle(const Args& a, Counts* oracle, std::string* error) {
  std::string header;
  if (!ReadCounts(a.oracle, oracle, &header)) {
    *error = "cannot read oracle " + a.oracle;
    return false;
  }
  // The stored oracle names the data graph it was counted on.
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%llx",
                static_cast<unsigned long long>(
                    FileFingerprint(a.run + "/graph.txt")));
  if (header.find(std::string("fingerprint ") + hex + " ") ==
      std::string::npos) {
    *error = "oracle " + a.oracle + " was counted on another data graph (" +
             header + "; this one is " + hex + "); remake it";
    return false;
  }
  return true;
}

std::vector<std::vector<rigpm::DeltaOp>> ReadBatchesOrEmpty(
    const std::string& path) {
  std::vector<std::vector<rigpm::DeltaOp>> batches;
  if (!path.empty()) ReadBatches(path, &batches);
  return batches;
}

// --------------------------------------------------------- in-process

int RunInProcess(const Args& a, const WorkloadSpec& spec) {
  std::string error;
  Counts oracle;
  if (!ReadOracle(a, &oracle, &error)) return Fail(error);
  const std::string snapshot = a.run + "/engine.snap";

  Loaded loaded;
  std::optional<CpuRotation> rotation;
  rotation.emplace();
  if (!LoadRepeatedly(snapshot, kSetupReps, &*rotation, &loaded, &error)) {
    return Fail("cannot load snapshot: " + error);
  }
  const std::vector<BenchQuery> queries =
      WorkloadQueries(spec, *loaded.warm->graph);
  rigpm::GmOptions opts;
  opts.limit = spec.limit;

  std::vector<Metric> layer_metrics;
  if (a.trace) {
    layer_metrics = StorageLayerMetrics(loaded, a.run + "/save.snap", &error);
    if (layer_metrics.empty()) return Fail("snapshot save: " + error);
  }

  // Warm-up pass, untimed: checks every count against the oracle and keeps
  // the first occurrences of each query for the independent checker.
  std::vector<uint64_t> expected;
  {
    const rigpm::GmEngine& engine = *loaded.warm->engine;
    rigpm::EvalContext& ctx = *loaded.ctx;
    std::ofstream tuples(a.run + "/tuples.txt");
    for (const BenchQuery& q : queries) {
      std::vector<rigpm::NodeId> first;
      const size_t cap = kTuplesPerQuery * q.query.NumNodes();
      rigpm::GmResult r = engine.Evaluate(
          ctx, q.query, opts, [&](const rigpm::Occurrence& t) {
            if (first.size() < cap) {
              first.insert(first.end(), t.begin(), t.end());
            }
            return true;
          });
      auto it = oracle.find(q.name);
      if (it != oracle.end() && it->second != r.num_occurrences) {
        return Fail(q.name + ": GM counts " +
                    std::to_string(r.num_occurrences) + ", oracle " +
                    std::to_string(it->second));
      }
      expected.push_back(r.num_occurrences);
      tuples << "query " << q.name << ' ' << r.num_occurrences << ' '
             << (it != oracle.end() ? "counted" : "unresolved") << '\n'
             << rigpm::QueryToString(q.query) << "tuples\n";
      for (size_t i = 0; i < first.size(); ++i) {
        tuples << first[i] << ((i + 1) % q.query.NumNodes() ? ' ' : '\n');
      }
      tuples << "end\n";
    }
    if (!tuples) return Fail("cannot write tuples");
  }

  // Timed passes: every pass evaluates all queries once, in a seeded order.
  std::mt19937_64 rng(a.seed);
  std::vector<size_t> order(queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<double> lat;
  std::vector<LayerPass> layer_passes;
  PhaseRunner runner;
  const Clock::time_point start = Clock::now();
  {
    const rigpm::GmEngine& engine = *loaded.warm->engine;
    rigpm::EvalContext& ctx = *loaded.ctx;
    do {
      std::shuffle(order.begin(), order.end(), rng);
      LayerPass pass;
      for (size_t i : order) {
        const Clock::time_point t0 = Clock::now();
        const uint64_t count =
            a.trace ? runner.Run(ctx, queries[i].query, opts, &pass)
                    : engine.Evaluate(ctx, queries[i].query, opts)
                          .num_occurrences;
        lat.push_back(MsSince(t0));
        if (count != expected[i]) {
          return Fail(queries[i].name + ": counted " + std::to_string(count) +
                      " in a timed pass, " + std::to_string(expected[i]) +
                      " in the checked one");
        }
      }
      layer_passes.push_back(pass);
    } while (SecondsSince(start) < a.seconds);
  }
  const double elapsed = SecondsSince(start);
  // The second half of the set-up samples; each replaces the engine.
  if (!LoadRepeatedly(snapshot, kSetupReps, &*rotation, &loaded, &error)) {
    return Fail("cannot load snapshot: " + error);
  }
  rotation.reset();  // the probe daemon below must not inherit one CPU

  std::vector<Metric> e2e =
      EndToEnd(Median(loaded.setup_s), lat.size(), elapsed, lat,
               spec.tail_percentile, PeakRssMb("/proc/self/status"),
               FileMb(snapshot));
  if (!a.trace) {
    PrintResult(true, lat.size(), 0, e2e);
    return 0;
  }

  // Traced: the same queries once more through a daemon serving this
  // snapshot (a round of misses, a round of hits), then one write.
  std::vector<Metric> query_layers = QueryLayerMetrics(layer_passes);
  layer_metrics.insert(layer_metrics.begin(), query_layers.begin(),
                       query_layers.end());
  const auto batches = ReadBatchesOrEmpty(a.batches);
  if (batches.empty()) return Fail("cannot read batches " + a.batches);
  Daemon daemon;
  const std::string socket = a.run + "/d.sock";
  const std::string delta = a.run + "/probe.delta";
  if (daemon.Start(a.serve, snapshot, delta, socket, a.run + "/daemon.log",
                   &error) < 0) {
    return Fail(error);
  }
  std::vector<rigpm::server::QueryRequest> requests(queries.size());
  std::vector<std::string> keys;
  for (size_t i = 0; i < queries.size(); ++i) {
    requests[i].patterns = {rigpm::PatternToString(queries[i].query)};
    requests[i].limit = spec.limit;
    keys.push_back(queries[i].name);
  }
  ServedTrace served;
  Writer writer;
  rigpm::server::QueryClient client;
  if (!writer.Open(delta, loaded.warm->stored_checksum,
                   loaded.warm->graph->NumNodes(), socket, &error) ||
      !client.ConnectUnix(socket, &error) ||
      !ProbeRounds(&client, requests, keys, oracle, &served, &error) ||
      !writer.Write(batches[0], true, &served, &error) ||
      !SampleServerStats(&client, &served, &error)) {
    return Fail("served probe: " + error);
  }
  daemon.Stop();
  std::vector<Metric> served_layers = ServedLayerMetrics(served);
  layer_metrics.insert(layer_metrics.end(), served_layers.begin(),
                       served_layers.end());
  std::printf("traced end-to-end: %s\n", MetricsJson(e2e).c_str());
  PrintResult(true, lat.size(), 0, layer_metrics);
  return 0;
}

// ------------------------------------------------------------ served

int RunServed(const Args& a, const WorkloadSpec& spec) {
  std::string error;
  Counts oracle;
  if (!ReadOracle(a, &oracle, &error)) return Fail(error);
  const auto batches = ReadBatchesOrEmpty(a.batches);
  if (batches.empty()) return Fail("cannot read batches " + a.batches);
  const std::string snapshot = a.run + "/engine.snap";
  // The benchmark process's own copy: the pool's label alphabet, the delta
  // log's binding, and (traced) the in-process layer profile of the pool.
  Loaded loaded;
  if (!LoadRepeatedly(snapshot, a.trace ? kLayerReps : 1, nullptr, &loaded,
                      &error)) {
    return Fail("cannot load snapshot: " + error);
  }
  const std::vector<BenchQuery> pool =
      WorkloadQueries(spec, *loaded.warm->graph);

  const std::string socket = a.run + "/d.sock";
  const std::string delta = a.run + "/served.delta";
  const std::string log = a.run + "/daemon.log";
  // Set-up samples: a daemon started on the snapshot with an empty log of
  // its own, pinged once, and killed.
  std::vector<double> setup_s;
  auto sample_setups = [&]() {
    const std::string setup_delta = a.run + "/setup.delta";
    for (int r = 0; r < kDaemonSetupReps; ++r) {
      ::unlink(setup_delta.c_str());
      Daemon probe;
      const double s =
          probe.Start(a.serve, snapshot, setup_delta, socket, log, &error);
      if (s < 0) return false;
      probe.Kill();
      setup_s.push_back(s);
    }
    return true;
  };
  if (!sample_setups()) return Fail("daemon set-up: " + error);
  Daemon daemon;
  if (daemon.Start(a.serve, snapshot, delta, socket, log, &error) < 0) {
    return Fail(error);
  }
  Writer writer;
  if (!writer.Open(delta, loaded.warm->stored_checksum,
                   loaded.warm->graph->NumNodes(), socket, &error)) {
    return Fail("writer: " + error);
  }
  ServedTrace served;
  ServedResult r = RunServedTraffic(pool, oracle, batches, spec.limit, a.seed,
                                    a.seconds, socket, &writer, a.trace,
                                    &served);
  const double peak_rss = daemon.PeakRssMb();
  const bool clean_exit = daemon.Stop();
  if (!r.correct) {
    std::fprintf(stderr, "pb_bench: %s\n", r.error.c_str());
  } else if (!clean_exit) {
    r.correct = false;
    std::fprintf(stderr, "pb_bench: daemon did not shut down cleanly\n");
  }
  if (!sample_setups()) return Fail("daemon set-up: " + error);
  std::vector<Metric> e2e =
      EndToEnd(Median(setup_s), r.reads, r.elapsed_s, r.read_ms,
               spec.tail_percentile, peak_rss, FileMb(snapshot));
  if (!a.trace) {
    PrintResult(r.correct, r.attempted, r.failed, e2e);
    return r.correct ? 0 : 1;
  }

  // Traced: the pool's layer profile in this process, on the base graph.
  std::vector<Metric> layers =
      StorageLayerMetrics(loaded, a.run + "/save.snap", &error);
  if (layers.empty()) return Fail("snapshot save: " + error);
  PhaseRunner runner;
  rigpm::GmOptions opts;
  opts.limit = spec.limit;
  std::vector<LayerPass> passes;
  for (int p = 0; p < kLayerReps; ++p) {
    LayerPass pass;
    for (const BenchQuery& q : pool) {
      const uint64_t count = runner.Run(*loaded.ctx, q.query, opts, &pass);
      auto it = oracle.find(q.name + "@0");
      if (it != oracle.end() && it->second != count) {
        return Fail(q.name + ": GM counts " + std::to_string(count) +
                    ", oracle " + std::to_string(it->second));
      }
    }
    passes.push_back(pass);
  }
  std::vector<Metric> query_layers = QueryLayerMetrics(passes);
  std::vector<Metric> served_layers = ServedLayerMetrics(served);
  query_layers.insert(query_layers.end(), layers.begin(), layers.end());
  query_layers.insert(query_layers.end(), served_layers.begin(),
                      served_layers.end());
  std::printf("traced end-to-end: %s\n", MetricsJson(e2e).c_str());
  PrintResult(r.correct, r.attempted, r.failed, query_layers);
  return r.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  std::string trace;
  const std::map<std::string, std::string*> flags = {
      {"--workload", &a.workload}, {"--run", &a.run},
      {"--oracle", &a.oracle},     {"--serve", &a.serve},
      {"--batches", &a.batches},   {"--trace", &trace}};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--seed") {
      a.seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(argv[i + 1]);
    } else if (auto it = flags.find(flag); it != flags.end()) {
      *it->second = argv[i + 1];
    } else {
      return Fail("unknown flag " + flag);
    }
  }
  a.trace = trace == "1";
  const WorkloadSpec* spec = FindWorkload(a.workload);
  if (spec == nullptr) return Fail("unknown workload " + a.workload);
  if (a.run.empty() || a.oracle.empty() || a.serve.empty()) {
    return Fail("--run, --oracle and --serve are required");
  }
  return spec->served ? RunServed(a, *spec) : RunInProcess(a, *spec);
}
