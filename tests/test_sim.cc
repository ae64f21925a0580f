#include "sim/fbsim.h"

#include <gtest/gtest.h>

#include <random>

#include "graph/generators.h"
#include "graph/interval_labels.h"
#include "query/query_generator.h"
#include "sim/fbsim_bas.h"
#include "sim/fbsim_dag.h"
#include "rig/rig_builder.h"
#include "sim/prefilter.h"
#include "test_util.h"

namespace rigpm {
namespace {

using ::rigpm::testing::BruteForceAnswer;
using ::rigpm::testing::PaperExample;

std::vector<NodeId> Sorted(const Bitmap& b) { return b.ToVector(); }

class SimFixture : public ::testing::Test {
 protected:
  SimFixture()
      : graph_(PaperExample::MakeGraph()),
        query_(PaperExample::MakeQuery()),
        reach_(BuildReachabilityIndex(graph_, ReachKind::kBfl)),
        ctx_(graph_, *reach_) {}

  Graph graph_;
  PatternQuery query_;
  std::unique_ptr<ReachabilityIndex> reach_;
  MatchContext ctx_;
};

// Table 1 of the paper: F, B and FB simulations of Q on G.
TEST_F(SimFixture, Table1ForwardSimulation) {
  CandidateSets f = ForwardSimulation(ctx_, query_);
  EXPECT_EQ(Sorted(f[0]), (std::vector<NodeId>{PaperExample::a1,
                                               PaperExample::a2}));
  EXPECT_EQ(Sorted(f[1]),
            (std::vector<NodeId>{PaperExample::b0, PaperExample::b1,
                                 PaperExample::b2}));
  EXPECT_EQ(Sorted(f[2]),
            (std::vector<NodeId>{PaperExample::c0, PaperExample::c1,
                                 PaperExample::c2}));
}

TEST_F(SimFixture, Table1BackwardSimulation) {
  CandidateSets b = BackwardSimulation(ctx_, query_);
  EXPECT_EQ(Sorted(b[0]),
            (std::vector<NodeId>{PaperExample::a0, PaperExample::a1,
                                 PaperExample::a2}));
  EXPECT_EQ(Sorted(b[1]),
            (std::vector<NodeId>{PaperExample::b0, PaperExample::b2,
                                 PaperExample::b3}));
  EXPECT_EQ(Sorted(b[2]),
            (std::vector<NodeId>{PaperExample::c0, PaperExample::c1,
                                 PaperExample::c2}));
}

TEST_F(SimFixture, Table1DoubleSimulation) {
  for (SimAlgorithm alg :
       {SimAlgorithm::kBas, SimAlgorithm::kDag, SimAlgorithm::kDagMap}) {
    CandidateSets fb = ComputeDoubleSimulation(ctx_, query_, alg);
    EXPECT_EQ(Sorted(fb[0]), (std::vector<NodeId>{PaperExample::a1,
                                                  PaperExample::a2}))
        << SimAlgorithmName(alg);
    EXPECT_EQ(Sorted(fb[1]), (std::vector<NodeId>{PaperExample::b0,
                                                  PaperExample::b2}))
        << SimAlgorithmName(alg);
    EXPECT_EQ(Sorted(fb[2]),
              (std::vector<NodeId>{PaperExample::c0, PaperExample::c1,
                                   PaperExample::c2}))
        << SimAlgorithmName(alg);
  }
}

TEST_F(SimFixture, AllChildCheckModesAgree) {
  for (ChildCheckMode mode :
       {ChildCheckMode::kBinSearch, ChildCheckMode::kBitIter,
        ChildCheckMode::kBitBat}) {
    SimOptions opts;
    opts.child_check = mode;
    opts.batch_reachability = (mode == ChildCheckMode::kBitBat);
    CandidateSets fb = FBSimBas(ctx_, query_, opts);
    EXPECT_EQ(Sorted(fb[1]), (std::vector<NodeId>{PaperExample::b0,
                                                  PaperExample::b2}))
        << ChildCheckModeName(mode);
  }
}

TEST_F(SimFixture, StatsArePopulated) {
  SimStats stats;
  FBSimBas(ctx_, query_, SimOptions{}, &stats);
  EXPECT_GE(stats.passes, 1);
  EXPECT_GT(stats.pair_checks, 0u);
  EXPECT_GT(stats.pruned_nodes, 0u);  // a0, b1, b3 are pruned
}

TEST_F(SimFixture, PassCapIsSoundApproximation) {
  SimOptions capped;
  capped.max_passes = 1;
  CandidateSets approx = FBSimBas(ctx_, query_, capped);
  CandidateSets exact = FBSimBas(ctx_, query_, SimOptions{});
  for (QueryNodeId v = 0; v < query_.NumNodes(); ++v) {
    EXPECT_TRUE(exact[v].IsSubsetOf(approx[v])) << v;
  }
}

// Empty-answer early termination (the Fig. 4/5 behaviour): a query whose
// label exists but whose structure has no match must yield an all-empty FB.
TEST(Sim, EmptyAnswerDetected) {
  // Data: a -> b only. Query: a -> b -> c with c's label present but never
  // below a b.
  Graph g = Graph::FromEdges({0, 1, 2}, {{0, 1}});
  auto reach = BuildReachabilityIndex(g, ReachKind::kBfl);
  MatchContext ctx(g, *reach);
  PatternQuery q = PatternQuery::FromParts(
      {0, 1, 2},
      {{0, 1, EdgeKind::kChild}, {1, 2, EdgeKind::kDescendant}});
  CandidateSets fb = FBSim(ctx, q);
  for (const Bitmap& b : fb) EXPECT_TRUE(b.Empty());
}

TEST(Sim, PreFilterWeakerThanDoubleSim) {
  Graph g = PaperExample::MakeGraph();
  auto reach = BuildReachabilityIndex(g, ReachKind::kBfl);
  MatchContext ctx(g, *reach);
  PatternQuery q = PaperExample::MakeQuery();
  CandidateSets pre = PreFilter(ctx, q);
  CandidateSets fb = FBSimBas(ctx, q);
  for (QueryNodeId v = 0; v < q.NumNodes(); ++v) {
    EXPECT_TRUE(fb[v].IsSubsetOf(pre[v])) << v;
  }
}

TEST(Sim, BatchBfsHelpersMatchDefinition) {
  Graph g = PaperExample::MakeGraph();
  Bitmap targets = {PaperExample::c0};
  Bitmap reaching = NodesReaching(g, targets);
  // Everything with a path into c0.
  EXPECT_TRUE(reaching.Contains(PaperExample::b0));
  EXPECT_TRUE(reaching.Contains(PaperExample::b1));
  EXPECT_TRUE(reaching.Contains(PaperExample::b2));
  EXPECT_TRUE(reaching.Contains(PaperExample::a1));
  EXPECT_FALSE(reaching.Contains(PaperExample::b3));
  EXPECT_FALSE(reaching.Contains(PaperExample::c0));  // no cycle

  Bitmap sources = {PaperExample::b2};
  Bitmap reachable = NodesReachableFrom(g, sources);
  EXPECT_EQ(Sorted(reachable),
            (std::vector<NodeId>{PaperExample::b0, PaperExample::c0,
                                 PaperExample::c1, PaperExample::c2}));
}

// ---------------------------------------------------------------------------
// Property tests on random graph/query pairs.
// ---------------------------------------------------------------------------

struct SimCase {
  const char* label;
  uint64_t seed;
  uint32_t q_nodes;
  uint32_t q_edges;
  bool dag_data;
};

class SimPropertyTest : public ::testing::TestWithParam<SimCase> {};

// Invariants (Section 4.2): os(q) ⊆ FB(q) ⊆ ms(q), all algorithms compute
// the same (unique) double simulation, and the simulation is a fixpoint.
TEST_P(SimPropertyTest, Invariants) {
  const SimCase& p = GetParam();
  GeneratorOptions gopts{.num_nodes = 60, .num_edges = 200, .num_labels = 4,
                         .seed = p.seed};
  Graph g = p.dag_data ? GenerateRandomDag(gopts) : GeneratePowerLaw(gopts);
  auto reach = BuildReachabilityIndex(g, ReachKind::kBfl);
  MatchContext ctx(g, *reach);

  PatternQuery q = GenerateRandomQuery({.num_nodes = p.q_nodes,
                                        .num_edges = p.q_edges,
                                        .num_labels = 4,
                                        .variant = QueryVariant::kHybrid,
                                        .seed = p.seed * 7 + 1});

  CandidateSets bas = FBSimBas(ctx, q);
  CandidateSets dag = ComputeDoubleSimulation(ctx, q, SimAlgorithm::kDag);
  CandidateSets tuned = ComputeDoubleSimulation(ctx, q, SimAlgorithm::kDagMap);
  CandidateSets ms = InitialMatchSets(g, q);

  // Occurrence sets from the brute-force answer.
  auto answer = BruteForceAnswer(g, q);
  CandidateSets os(q.NumNodes());
  for (const auto& tuple : answer) {
    for (QueryNodeId v = 0; v < q.NumNodes(); ++v) os[v].Add(tuple[v]);
  }

  for (QueryNodeId v = 0; v < q.NumNodes(); ++v) {
    EXPECT_EQ(bas[v], dag[v]) << "node " << v;
    EXPECT_EQ(bas[v], tuned[v]) << "node " << v;
    EXPECT_TRUE(os[v].IsSubsetOf(bas[v])) << "os ⊄ FB at node " << v;
    EXPECT_TRUE(bas[v].IsSubsetOf(ms[v])) << "FB ⊄ ms at node " << v;
  }

  // Fixpoint: re-running any prune pass changes nothing.
  CandidateSets again = bas;
  SimOptions opts;
  bool changed = false;
  for (const QueryEdge& e : q.Edges()) {
    changed |= ForwardPruneEdge(ctx, e, &again[e.from], again[e.to], opts,
                                nullptr);
    changed |= BackwardPruneEdge(ctx, e, again[e.from], &again[e.to], opts,
                                 nullptr);
  }
  EXPECT_FALSE(changed);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SimPropertyTest,
    ::testing::Values(SimCase{"small_tree_dag", 1, 4, 3, true},
                      SimCase{"diamond_dag", 2, 4, 4, true},
                      SimCase{"six_node_cyclic_data", 3, 6, 8, false},
                      SimCase{"dense_query", 4, 5, 9, false},
                      SimCase{"larger_query", 5, 8, 12, true},
                      SimCase{"another_seed", 6, 6, 7, false}),
    [](const ::testing::TestParamInfo<SimCase>& info) {
      return info.param.label;
    });

// Directed-cyclic queries must go through the Dag+Δ path and still agree
// with the baseline.
TEST(Sim, CyclicQueryDagDeltaAgreesWithBas) {
  Graph g = GeneratePowerLaw({.num_nodes = 80, .num_edges = 320,
                              .num_labels = 3, .seed = 10});
  auto reach = BuildReachabilityIndex(g, ReachKind::kBfl);
  MatchContext ctx(g, *reach);
  // Directed 3-cycle query.
  PatternQuery q = PatternQuery::FromParts(
      {0, 1, 2},
      {{0, 1, EdgeKind::kChild},
       {1, 2, EdgeKind::kDescendant},
       {2, 0, EdgeKind::kDescendant}});
  CandidateSets bas = FBSimBas(ctx, q);
  CandidateSets delta = FBSim(ctx, q);
  for (QueryNodeId v = 0; v < q.NumNodes(); ++v) {
    EXPECT_EQ(bas[v], delta[v]) << v;
  }
}

// ------------------------------------------- child-edge kernels vs. pairs
//
// The CSR kernels against a per-pair EdgePairMatch reference, on a graph of
// more than 2^16 nodes (ids cross bitmap container keys and 64-bit word
// boundaries) with self-loops and zero-degree nodes. Every call of a round
// shares one MatchContext, so scratch marks a kernel failed to clear would
// corrupt a later call.

constexpr uint32_t kBigNodes = (1u << 16) + 5000;

Graph MakeBigGraph() {
  std::mt19937 rng(17);
  std::uniform_int_distribution<NodeId> node(0, kBigNodes - 1);
  std::vector<LabelId> labels(kBigNodes, 0);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (int i = 0; i < 150000; ++i) {
    NodeId u = node(rng);
    NodeId v = node(rng);
    // Every node divisible by 7 stays isolated.
    if (u % 7 == 0 || v % 7 == 0) continue;
    edges.emplace_back(u, v);
    // Local edges make dense neighbourhoods around the 2^16 boundary.
    if (u > 60000 && u < 72000) edges.emplace_back(u, u + 1 + u % 3);
  }
  for (NodeId v = 1; v < kBigNodes; v += 97) {
    if (v % 7 != 0) edges.emplace_back(v, v);  // self-loops
  }
  for (auto& [u, v] : edges) v = std::min(v, kBigNodes - 1);
  return Graph::FromEdges(std::move(labels), std::move(edges));
}

// Candidate-set shapes: sparse random ids, a dense range across the 2^16
// key boundary, the out-neighbours of a sample (so pairs do match), and an
// all-isolated set.
std::vector<Bitmap> CandidateShapes(const Graph& g, std::mt19937& rng) {
  std::uniform_int_distribution<NodeId> node(0, kBigNodes - 1);
  std::vector<Bitmap> shapes(4);
  for (int i = 0; i < 1200; ++i) shapes[0].Add(node(rng));
  for (NodeId v = 64500; v < 66500; ++v) shapes[1].Add(v);
  for (int i = 0; i < 300; ++i) {
    for (NodeId w : g.OutNeighbors(node(rng))) shapes[2].Add(w);
    shapes[2].Add(node(rng));
  }
  for (NodeId v = 0; v < kBigNodes; v += 7 * 41) shapes[3].Add(v);
  return shapes;
}

Bitmap ReferenceForward(const MatchContext& ctx, const QueryEdge& e,
                        const Bitmap& src, const Bitmap& dst) {
  std::vector<NodeId> dst_nodes = dst.ToVector();
  Bitmap out;
  src.ForEach([&](NodeId u) {
    for (NodeId w : dst_nodes) {
      if (ctx.EdgePairMatch(e, u, w)) {
        out.Add(u);
        return;
      }
    }
  });
  return out;
}

Bitmap ReferenceBackward(const MatchContext& ctx, const QueryEdge& e,
                         const Bitmap& src, const Bitmap& dst) {
  std::vector<NodeId> src_nodes = src.ToVector();
  Bitmap out;
  dst.ForEach([&](NodeId v) {
    for (NodeId u : src_nodes) {
      if (ctx.EdgePairMatch(e, u, v)) {
        out.Add(v);
        return;
      }
    }
  });
  return out;
}

TEST(ChildKernels, PruneEdgeMatchesPairReferenceInEveryMode) {
  Graph g = MakeBigGraph();
  ASSERT_GT(g.NumNodes(), 1u << 16);
  auto reach = BuildReachabilityIndex(g, ReachKind::kBfs);
  MatchContext ctx(g, *reach);
  std::mt19937 rng(23);
  std::vector<Bitmap> shapes = CandidateShapes(g, rng);
  shapes.emplace_back();  // an empty side
  const QueryEdge edge{.from = 0, .to = 1, .kind = EdgeKind::kChild};
  uint64_t kept = 0;
  for (size_t a = 0; a < shapes.size(); ++a) {
    for (size_t b = 0; b < shapes.size(); ++b) {
      const Bitmap& src = shapes[a];
      const Bitmap& dst = shapes[b];
      const Bitmap fwd_ref = ReferenceForward(ctx, edge, src, dst);
      const Bitmap bwd_ref = ReferenceBackward(ctx, edge, src, dst);
      kept += fwd_ref.Cardinality() + bwd_ref.Cardinality();
      for (ChildCheckMode mode :
           {ChildCheckMode::kBitBat, ChildCheckMode::kBitIter,
            ChildCheckMode::kBinSearch}) {
        SCOPED_TRACE(std::string(ChildCheckModeName(mode)) + " shapes " +
                     std::to_string(a) + "," + std::to_string(b));
        SimOptions opts;
        opts.child_check = mode;
        Bitmap fwd = src;
        EXPECT_EQ(ForwardPruneEdge(ctx, edge, &fwd, dst, opts, nullptr),
                  fwd_ref.Cardinality() != src.Cardinality());
        EXPECT_EQ(fwd.ToVector(), fwd_ref.ToVector());
        Bitmap bwd = dst;
        EXPECT_EQ(BackwardPruneEdge(ctx, edge, src, &bwd, opts, nullptr),
                  bwd_ref.Cardinality() != dst.Cardinality());
        EXPECT_EQ(bwd.ToVector(), bwd_ref.ToVector());
      }
    }
  }
  EXPECT_GT(kept, 0u);  // the shapes do produce matching pairs
}

TEST(ChildKernels, BoundedBatchBfsMatchesPairReference) {
  // The descendant-edge batch path (MultiSourceBfs on the context's marks)
  // against per-pair depth-limited reachability.
  Graph g = MakeBigGraph();
  auto reach = BuildReachabilityIndex(g, ReachKind::kBfs);
  MatchContext ctx(g, *reach);
  std::mt19937 rng(29);
  std::uniform_int_distribution<NodeId> node(0, kBigNodes - 1);
  Bitmap src;
  Bitmap dst;
  for (int i = 0; i < 150; ++i) {
    src.Add(node(rng));
    dst.Add(node(rng));
  }
  for (NodeId v = 65500; v < 65600; ++v) dst.Add(v);
  SimOptions opts;
  for (uint32_t hops : {1u, 2u}) {
    const QueryEdge edge{.from = 0, .to = 1, .kind = EdgeKind::kDescendant,
                         .max_hops = hops};
    Bitmap fwd = src;
    ForwardPruneEdge(ctx, edge, &fwd, dst, opts, nullptr);
    EXPECT_EQ(fwd.ToVector(), ReferenceForward(ctx, edge, src, dst).ToVector());
    Bitmap bwd = dst;
    BackwardPruneEdge(ctx, edge, src, &bwd, opts, nullptr);
    EXPECT_EQ(bwd.ToVector(),
              ReferenceBackward(ctx, edge, src, dst).ToVector());
  }
}

// Every RIG row, and every row of its transpose, equals the set of partners
// for which EdgePairMatch holds: child, descendant and bounded edges, with
// and without the interval cutoff. All rounds expand through one context,
// so scratch a kernel leaves set shows up as a wrong row.
TEST(ChildKernels, ExpandRigRowsMatchEdgePairMatch) {
  Graph g = MakeBigGraph();
  auto reach = BuildReachabilityIndex(g, ReachKind::kBfl);
  MatchContext ctx(g, *reach);
  Condensation cond(g);
  IntervalLabels intervals(g, cond);
  std::mt19937 rng(31);
  std::vector<Bitmap> shapes = CandidateShapes(g, rng);
  // Every third node of each shape: the sides of the reachability edges,
  // whose reference probes every pair.
  std::vector<Bitmap> thinned(shapes.size());
  for (size_t s = 0; s < shapes.size(); ++s) {
    uint64_t i = 0;
    shapes[s].ForEach([&](NodeId v) {
      if (i++ % 3 == 0) thinned[s].Add(v);
    });
  }
  // 0 -> 1 -> 2 => 3 =>{<=2 hops} 4.
  PatternQuery q = PatternQuery::FromParts(
      {0, 0, 0, 0, 0},
      {QueryEdge{.from = 0, .to = 1, .kind = EdgeKind::kChild},
       QueryEdge{.from = 1, .to = 2, .kind = EdgeKind::kChild},
       QueryEdge{.from = 2, .to = 3, .kind = EdgeKind::kDescendant},
       QueryEdge{.from = 3, .to = 4, .kind = EdgeKind::kDescendant,
                 .max_hops = 2}});
  auto nodes = [](std::span<const NodeId> cos, std::span<const uint32_t> row) {
    std::vector<NodeId> out;
    for (uint32_t r : row) out.push_back(cos[r]);
    return out;
  };
  std::vector<uint64_t> edges_seen(q.NumEdges(), 0);
  const size_t n = shapes.size();
  for (size_t round = 0; round < 2 * n; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    CandidateSets cos = {shapes[round % n], shapes[(round + 2) % n],
                         thinned[(round + 1) % n], thinned[(round + 3) % n],
                         thinned[round % n]};
    // Odd rounds scan the reachability edges with the interval cutoff.
    Rig rig = ExpandRig(ctx, q, cos, RigBuildOptions{},
                        round % 2 == 1 ? &intervals : nullptr);
    for (QueryEdgeId e = 0; e < q.NumEdges(); ++e) {
      SCOPED_TRACE("edge " + std::to_string(e));
      const QueryEdge& edge = q.Edge(e);
      const std::span<const NodeId> from = rig.Cos(edge.from);
      const std::span<const NodeId> to = rig.Cos(edge.to);
      ASSERT_EQ(from.size(), cos[edge.from].Cardinality());
      ASSERT_EQ(to.size(), cos[edge.to].Cardinality());
      const OwnedRankRows back = rig.Transpose(e);
      ASSERT_EQ(back.rows.size(), to.size());
      std::vector<std::vector<NodeId>> want_back(to.size());
      uint64_t expected = 0;
      for (uint32_t r = 0; r < from.size(); ++r) {
        std::vector<NodeId> want;
        for (uint32_t t = 0; t < to.size(); ++t) {
          if (ctx.EdgePairMatch(edge, from[r], to[t])) {
            want.push_back(to[t]);
            want_back[t].push_back(from[r]);
          }
        }
        expected += want.size();
        ASSERT_EQ(nodes(to, rig.Rows(e)[r]), want) << "vp " << from[r];
      }
      for (uint32_t t = 0; t < to.size(); ++t) {
        ASSERT_EQ(nodes(from, back.rows[t]), want_back[t]) << "vq " << to[t];
      }
      EXPECT_EQ(rig.EdgeCount(e), expected);
      edges_seen[e] += expected;
    }
  }
  for (QueryEdgeId e = 0; e < q.NumEdges(); ++e) {
    EXPECT_GT(edges_seen[e], 0u) << "edge " << e << " never matched";
  }
}

}  // namespace
}  // namespace rigpm
