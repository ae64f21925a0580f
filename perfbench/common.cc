#include "common.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <set>
#include <sstream>

#include "bench_util/datasets.h"
#include "bench_util/workloads.h"

namespace perfbench {

using rigpm::DeltaOp;
using rigpm::DeltaOpKind;
using rigpm::NodeId;

const std::vector<WorkloadSpec>& Workloads() {
  using rigpm::QueryVariant;
  static const std::vector<WorkloadSpec> specs = {
      {"cq-go", "go", 0.02, QueryVariant::kChildOnly, 100'000, false, 96.0},
      {"hq-bs", "bs", 0.003, QueryVariant::kHybrid, 10'000, false, 92.5},
      {"served-ep", "ep", 0.1, QueryVariant::kHybrid, 10'000, true, 99.7},
  };
  return specs;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

rigpm::Graph MakeWorkloadGraph(const WorkloadSpec& spec) {
  return rigpm::MakeDataset(rigpm::DatasetByName(spec.dataset), spec.scale,
                            kDatasetSeed);
}

std::vector<BenchQuery> WorkloadQueries(const WorkloadSpec& spec,
                                        const rigpm::Graph& g) {
  std::vector<std::string> names;
  for (const rigpm::QueryTemplate& tpl : rigpm::HQueryTemplates()) {
    names.push_back(tpl.name);
  }
  std::vector<BenchQuery> out;
  if (!spec.served) {
    for (rigpm::NamedQuery& nq :
         rigpm::TemplateWorkload(g, names, spec.variant, kTemplateSeed)) {
      out.push_back({nq.name, nq.name, 0, std::move(nq.query)});
    }
    return out;
  }
  for (const std::string& name : names) {
    for (uint64_t s = 1; s <= kPoolSeedsPerTemplate; ++s) {
      out.push_back({name + "/s" + std::to_string(s), name, s,
                     rigpm::InstantiateTemplate(rigpm::TemplateByName(name),
                                                spec.variant, g.NumLabels(),
                                                s)});
    }
  }
  return out;
}

std::vector<std::vector<DeltaOp>> MakeBatches(const rigpm::Graph& g,
                                              uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 0x5EED);
  std::uniform_int_distribution<NodeId> node(0, g.NumNodes() - 1);
  std::vector<std::vector<DeltaOp>> batches;
  std::set<std::pair<NodeId, NodeId>> used;  // no edge in two perturbations
  for (uint32_t k = 0; k < kPerturbations; ++k) {
    std::vector<std::pair<NodeId, NodeId>> adds, deletes;
    while (adds.size() < kAddsPerBatch) {
      NodeId u = node(rng), v = node(rng);
      if (u == v || g.HasEdge(u, v) || !used.insert({u, v}).second) continue;
      adds.push_back({u, v});
    }
    while (deletes.size() < kDeletesPerBatch) {
      NodeId u = node(rng);
      auto out = g.OutNeighbors(u);
      if (out.empty()) continue;
      NodeId v = out[std::uniform_int_distribution<size_t>(
          0, out.size() - 1)(rng)];
      if (!used.insert({u, v}).second) continue;
      deletes.push_back({u, v});
    }
    std::vector<DeltaOp> forward, revert;
    for (auto [u, v] : adds) {
      forward.push_back({u, v, DeltaOpKind::kAdd});
      revert.push_back({u, v, DeltaOpKind::kDelete});
    }
    for (auto [u, v] : deletes) {
      forward.push_back({u, v, DeltaOpKind::kDelete});
      revert.push_back({u, v, DeltaOpKind::kAdd});
    }
    batches.push_back(std::move(forward));
    batches.push_back(std::move(revert));
  }
  return batches;
}

uint32_t GraphAfterWrites(uint64_t writes) {
  if (writes % 2 == 0) return 0;
  return static_cast<uint32_t>(((writes - 1) / 2) % kPerturbations) + 1;
}

bool ReadCounts(const std::string& path, Counts* counts,
                std::string* header) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (header != nullptr && header->empty()) {
        *header = line.substr(std::min<size_t>(2, line.size()));
      }
      continue;
    }
    std::istringstream fields(line);
    std::string name;
    uint64_t count = 0;
    if (!(fields >> name >> count)) return false;
    (*counts)[name] = count;
  }
  return true;
}

bool WriteBatches(const std::string& path,
                  const std::vector<std::vector<DeltaOp>>& batches) {
  std::ofstream out(path);
  for (const std::vector<DeltaOp>& batch : batches) {
    out << "b " << batch.size() << '\n';
    for (const DeltaOp& op : batch) {
      out << (op.kind == DeltaOpKind::kAdd ? '+' : '-') << ' ' << op.src << ' '
          << op.dst << '\n';
    }
  }
  return static_cast<bool>(out);
}

bool ReadBatches(const std::string& path,
                 std::vector<std::vector<DeltaOp>>* batches) {
  std::ifstream in(path);
  if (!in) return false;
  std::string tag;
  while (in >> tag) {
    size_t n = 0;
    if (tag != "b" || !(in >> n)) return false;
    std::vector<DeltaOp> batch(n);
    for (DeltaOp& op : batch) {
      char kind = 0;
      if (!(in >> kind >> op.src >> op.dst) || (kind != '+' && kind != '-')) {
        return false;
      }
      op.kind = kind == '+' ? DeltaOpKind::kAdd : DeltaOpKind::kDelete;
    }
    batches->push_back(std::move(batch));
  }
  return !batches->empty();
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double MsSince(Clock::time_point t0) { return SecondsSince(t0) * 1000.0; }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

uint64_t FileSize(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

double PeakRssMb(const std::string& status_path) {
  std::FILE* f = std::fopen(status_path.c_str(), "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

uint64_t FileFingerprint(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  uint64_t h = 0xcbf29ce484222325ULL;
  unsigned char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    for (size_t i = 0; i < n; ++i) {
      h ^= buf[i];
      h *= 0x100000001b3ULL;
    }
  }
  std::fclose(f);
  return h;
}

}  // namespace perfbench
