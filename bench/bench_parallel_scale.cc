// Parallel scaling of the staged pipeline (the Section 6 future-work sketch
// made real): elapsed time and speedup vs worker count, on the fig11-scale
// workload (DBLP subsets, H-queries).
//
// Two modes of parallelism are measured:
//  * single-query — GmOptions::num_threads routes the Enumerate phase
//    through the partitioned parallel MJoin (matching stays sequential, so
//    the achievable speedup is bounded by the enumeration share, Amdahl);
//  * batch — GmEngine::EvaluateBatch spreads independent queries across
//    workers, one reusable EvalContext each (whole evaluations scale).
//
// Expected shape: >1.5x at 4 threads for both modes on enumeration-heavy
// queries; batch mode scales closer to linearly because nothing is serial.

#include <thread>

#include "bench_common.h"

using namespace rigpm;
using namespace rigpm::bench;

namespace {

std::string Ratio(double base_ms, double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", ms > 0 ? base_ms / ms : 0.0);
  return buf;
}

}  // namespace

int main() {
  PrintBenchHeader("Parallel scale — time & speedup vs worker count",
                   "scale=" + std::to_string(DatasetScaleFromEnv()) +
                       " hw_threads=" +
                       std::to_string(std::thread::hardware_concurrency()));
  const DatasetSpec& db = DatasetByName("db");
  const double scale = DatasetScaleFromEnv();
  Graph g = MakeDatasetWithNodes(
      db, static_cast<uint32_t>(300'000 * scale));
  GmEngine engine(g);
  const std::vector<uint32_t> thread_counts = {1, 2, 4, 8};

  // --- Single-query enumeration scaling.
  for (const std::string& qname : {"HQ8", "HQ12"}) {
    auto queries =
        TemplateWorkload(g, {qname}, QueryVariant::kHybrid, /*seed=*/17);
    const PatternQuery& q = queries.front().query;

    std::printf("\n-- %s, single query (parallel enumeration)\n",
                qname.c_str());
    TablePrinter table({"threads", "time(s)", "enumerate(s)", "speedup",
                        "matches"});
    double base_ms = 0.0;
    for (uint32_t threads : thread_counts) {
      GmOptions opts;
      opts.limit = MatchLimitFromEnv();
      opts.num_threads = threads;
      GmResult r;
      double ms = TimeMs([&] { r = engine.Evaluate(q, opts); });
      if (threads == 1) base_ms = ms;
      table.AddRow({std::to_string(threads), FormatSeconds(ms),
                    FormatSeconds(r.EnumerateMs()), Ratio(base_ms, ms),
                    std::to_string(r.num_occurrences)});
    }
    table.Print();
  }

  // --- Batch serving scaling: the representative template mix, every query
  // independent, workers pulling from the shared batch queue.
  {
    auto named = TemplateWorkload(g, RepresentativeTemplateNames(),
                                  QueryVariant::kHybrid, /*seed=*/17);
    std::vector<PatternQuery> batch;
    for (const NamedQuery& nq : named) batch.push_back(nq.query);
    // Replicate the mix so the batch comfortably outnumbers the workers.
    const size_t base = batch.size();
    for (int copy = 0; copy < 3; ++copy) {
      for (size_t i = 0; i < base; ++i) batch.push_back(batch[i]);
    }

    std::printf("\n-- batch of %zu queries (EvaluateBatch)\n", batch.size());
    TablePrinter table(
        {"threads", "wall(s)", "speedup", "queries/s", "matches"});
    double base_ms = 0.0;
    for (uint32_t threads : thread_counts) {
      GmOptions opts;
      opts.limit = MatchLimitFromEnv();
      opts.num_threads = threads;
      std::vector<GmResult> results;
      double ms = TimeMs([&] { results = engine.EvaluateBatch(batch, opts); });
      if (threads == 1) base_ms = ms;
      uint64_t matches = 0;
      for (const GmResult& r : results) matches += r.num_occurrences;
      char qps[32];
      std::snprintf(qps, sizeof(qps), "%.1f", batch.size() * 1000.0 / ms);
      table.AddRow({std::to_string(threads), FormatSeconds(ms),
                    Ratio(base_ms, ms), qps, std::to_string(matches)});
    }
    table.Print();
  }
  return 0;
}
