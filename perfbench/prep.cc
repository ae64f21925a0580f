// pb_prep — makes a workload's inputs, in a process of its own.
//
//   pb_prep base WORKLOAD DIR         data graph (DIR/graph.txt, for the
//                                     independent checker) and engine
//                                     snapshot (DIR/engine.snap)
//   pb_prep batches WORKLOAD DIR SEED seeded write batches
//                                     (DIR/batches-SEED.txt)

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "engine/gm_engine.h"
#include "graph/graph_io.h"
#include "storage/snapshot.h"

using namespace perfbench;

namespace {

int Fail(const std::string& msg) {
  std::fprintf(stderr, "pb_prep: %s\n", msg.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) {
    return Fail("usage: pb_prep base|batches WORKLOAD DIR [SEED]");
  }
  const std::string cmd = argv[1];
  const WorkloadSpec* spec = FindWorkload(argv[2]);
  const std::string dir = argv[3];
  if (spec == nullptr) return Fail(std::string("unknown workload ") + argv[2]);
  std::string error;

  if (cmd == "base") {
    rigpm::Graph g = MakeWorkloadGraph(*spec);
    if (!rigpm::WriteGraphFile(g, dir + "/graph.txt", &error)) {
      return Fail("cannot write graph: " + error);
    }
    rigpm::GmEngine engine(g);
    if (!rigpm::SaveEngineSnapshot(engine, dir + "/engine.snap", &error)) {
      return Fail("cannot write snapshot: " + error);
    }
    std::printf("%s: %s\n", spec->name.c_str(), g.Summary().c_str());
    return 0;
  }
  if (cmd == "batches" && argc == 5) {
    const uint64_t seed = std::strtoull(argv[4], nullptr, 10);
    auto warm = rigpm::LoadEngineSnapshot(dir + "/engine.snap", {}, &error);
    if (!warm.has_value()) return Fail("cannot load snapshot: " + error);
    const std::string path = dir + "/batches-" + std::to_string(seed) + ".txt";
    if (!WriteBatches(path, MakeBatches(*warm->graph, seed))) {
      return Fail("cannot write " + path);
    }
    return 0;
  }
  return Fail("unknown command " + cmd);
}
