#include "rig/rig.h"

#include <algorithm>
#include <sstream>

namespace rigpm {

namespace {

// Rows are packed into blocks of this many ranks (64 KiB); a longer row
// gets a block of its own size.
constexpr size_t kBlockRanks = 16 * 1024;

}  // namespace

Rig::Rig(const PatternQuery& q, std::vector<Bitmap> node_sets)
    : edges_(q.Edges().begin(), q.Edges().end()),
      rows_(q.NumEdges()),
      edge_counts_(q.NumEdges(), 0) {
  cos_.reserve(node_sets.size());
  for (const Bitmap& b : node_sets) cos_.push_back(b.ToVector());
  for (QueryEdgeId e = 0; e < q.NumEdges(); ++e) {
    rows_[e].resize(cos_[edges_[e].from].size());
  }
}

uint32_t* Rig::RowSpace(size_t max_len) {
  if (max_len > free_len_) {
    const size_t len = std::max(kBlockRanks, max_len);
    blocks_.push_back(std::make_unique_for_overwrite<uint32_t[]>(len));
    block_ranks_ += len;
    free_ = blocks_.back().get();
    free_len_ = len;
  }
  return free_;
}

void Rig::SetRow(QueryEdgeId e, uint32_t rank, uint32_t len) {
  if (len == 0) return;
  rows_[e][rank] = std::span<const uint32_t>(free_, len);
  free_ += len;
  free_len_ -= len;
  edge_counts_[e] += len;
}

OwnedRankRows Rig::Transpose(QueryEdgeId e) const {
  // Counting sort: size each transposed row, then append the keyed ranks in
  // ascending order, which leaves every transposed row sorted.
  const RankRows& fwd = rows_[e];
  OwnedRankRows out;
  std::vector<size_t> start(cos_[edges_[e].to].size() + 1, 0);
  for (std::span<const uint32_t> row : fwd) {
    for (uint32_t r : row) ++start[r + 1];
  }
  for (size_t r = 1; r < start.size(); ++r) start[r] += start[r - 1];
  out.ranks.resize(start.back());
  std::vector<size_t> fill(start.begin(), start.end() - 1);
  for (uint32_t p = 0; p < fwd.size(); ++p) {
    for (uint32_t r : fwd[p]) out.ranks[fill[r]++] = p;
  }
  out.rows.resize(start.size() - 1);
  for (size_t r = 0; r + 1 < start.size(); ++r) {
    out.rows[r] = std::span<const uint32_t>(out.ranks.data() + start[r],
                                            start[r + 1] - start[r]);
  }
  return out;
}

uint64_t Rig::TotalNodes() const {
  uint64_t total = 0;
  for (const std::vector<NodeId>& nodes : cos_) total += nodes.size();
  return total;
}

uint64_t Rig::TotalEdges() const {
  uint64_t total = 0;
  for (uint64_t c : edge_counts_) total += c;
  return total;
}

bool Rig::AnyEmpty() const {
  for (const std::vector<NodeId>& nodes : cos_) {
    if (nodes.empty()) return true;
  }
  return false;
}

size_t Rig::MemoryBytes() const {
  size_t bytes = sizeof(Rig) + block_ranks_ * sizeof(uint32_t);
  for (const std::vector<NodeId>& nodes : cos_) {
    bytes += nodes.capacity() * sizeof(NodeId);
  }
  for (const RankRows& rows : rows_) {
    bytes += rows.capacity() * sizeof(rows[0]);
  }
  return bytes;
}

std::string Rig::Summary() const {
  std::ostringstream os;
  os << "RIG nodes=" << TotalNodes() << " edges=" << TotalEdges();
  return os.str();
}

}  // namespace rigpm
