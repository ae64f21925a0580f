// pb_oracle — expected per-query counts from the baselines in src/baseline,
// computed apart from GM: TM first, JM where TM runs out of time, both
// capped at the workload's limit. Reachability for the baselines comes from
// a materialized transitive closure, not from the BFL index GM serves with.
//
//   pb_oracle WORKLOAD DIR OUT [--batches FILE]
//
// Without --batches the counts are for the base graph (DIR/engine.snap).
// With it, for the base and for each forward batch applied to the base
// (the graphs a served-ep run can serve), keyed "query@graph". A query
// neither baseline answers within its budget is listed as "# unresolved".

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baseline/jm_engine.h"
#include "baseline/tm_engine.h"
#include "common.h"
#include "reach/reachability.h"
#include "storage/snapshot.h"

using namespace perfbench;

namespace {

struct Answer {
  bool ok = false;
  uint64_t count = 0;
  const char* engine = "none";
  double ms = 0.0;
};

// The baselines' budgets: TM's wall clock, then JM's intermediate tuples
// (its default) and wall clock.
constexpr double kTmTimeoutMs = 20'000;
constexpr uint64_t kJmMaxTuples = 20'000'000;
constexpr double kJmTimeoutMs = 60'000;

Answer Count(const rigpm::MatchContext& ctx, const rigpm::PatternQuery& q,
             uint64_t limit) {
  auto t0 = std::chrono::steady_clock::now();
  auto ms = [&] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  rigpm::TmOptions tm;
  tm.limit = limit;
  tm.timeout_ms = kTmTimeoutMs;
  rigpm::TmResult tr = rigpm::TmEvaluate(ctx, q, tm);
  if (tr.status == rigpm::EvalStatus::kOk) {
    return {true, std::min(tr.num_occurrences, limit), "tm", ms()};
  }
  rigpm::JmOptions jm;
  jm.limit = limit;
  jm.timeout_ms = kJmTimeoutMs;
  jm.max_intermediate_tuples = kJmMaxTuples;
  rigpm::JmResult jr = rigpm::JmEvaluate(ctx, q, jm);
  if (jr.status == rigpm::EvalStatus::kOk) {
    return {true, std::min(jr.num_occurrences, limit), "jm", ms()};
  }
  return {false, 0, "none", ms()};
}

std::vector<Answer> CountAll(const rigpm::Graph& g,
                             const std::vector<BenchQuery>& queries,
                             uint64_t limit) {
  auto closure =
      rigpm::BuildReachabilityIndex(g, rigpm::ReachKind::kTransitiveClosure);
  rigpm::MatchContext ctx(g, *closure);
  std::vector<Answer> answers;
  for (const BenchQuery& q : queries) {
    answers.push_back(Count(ctx, q.query, limit));
  }
  return answers;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: pb_oracle WORKLOAD DIR OUT [--batches FILE]\n");
    return 1;
  }
  const WorkloadSpec* spec = FindWorkload(argv[1]);
  const std::string dir = argv[2];
  const std::string out_path = argv[3];
  std::string batches_path;
  if (argc == 6 && std::strcmp(argv[4], "--batches") == 0) {
    batches_path = argv[5];
  } else if (argc != 4) {
    std::fprintf(stderr, "pb_oracle: unknown arguments\n");
    return 1;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "pb_oracle: unknown workload %s\n", argv[1]);
    return 1;
  }
  std::string error;
  auto warm = rigpm::LoadEngineSnapshot(dir + "/engine.snap", {}, &error);
  if (!warm.has_value()) {
    std::fprintf(stderr, "pb_oracle: %s\n", error.c_str());
    return 1;
  }
  const rigpm::Graph& base = *warm->graph;
  const std::vector<BenchQuery> queries = WorkloadQueries(*spec, base);

  // graphs[0] is the base; graphs[k] the base with forward batch k applied.
  std::vector<rigpm::Graph> perturbed;
  if (!batches_path.empty()) {
    std::vector<std::vector<rigpm::DeltaOp>> batches;
    if (!ReadBatches(batches_path, &batches)) {
      std::fprintf(stderr, "pb_oracle: cannot read %s\n",
                   batches_path.c_str());
      return 1;
    }
    for (size_t b = 0; b < batches.size(); b += 2) {
      perturbed.push_back(rigpm::ApplyDeltaOps(base, batches[b]));
    }
  }
  std::vector<const rigpm::Graph*> graphs = {&base};
  for (const rigpm::Graph& g : perturbed) graphs.push_back(&g);

  // One thread per graph: the graphs are independent and few.
  std::vector<std::vector<Answer>> answers(graphs.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < graphs.size(); ++i) {
    threads.emplace_back([&, i] {
      answers[i] = CountAll(*graphs[i], queries, spec->limit);
    });
  }
  for (std::thread& t : threads) t.join();

  std::ofstream out(out_path);
  out << "# " << spec->name << " fingerprint " << std::hex
      << FileFingerprint(dir + "/graph.txt") << std::dec << " limit "
      << spec->limit << '\n';
  for (size_t i = 0; i < graphs.size(); ++i) {
    for (size_t q = 0; q < queries.size(); ++q) {
      std::string key = queries[q].name;
      if (!batches_path.empty()) key.append("@").append(std::to_string(i));
      const Answer& a = answers[i][q];
      if (a.ok) {
        out << key << ' ' << a.count << ' ' << a.engine << ' ' << a.ms
            << '\n';
      } else {
        out << "# unresolved " << key << " after " << a.ms << " ms\n";
      }
    }
  }
  out.close();
  if (!out) {
    std::fprintf(stderr, "pb_oracle: cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
