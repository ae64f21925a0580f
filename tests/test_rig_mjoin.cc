#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "enumerate/mjoin.h"
#include "enumerate/mjoin_parallel.h"
#include "graph/generators.h"
#include "order/search_order.h"
#include "query/query_generator.h"
#include "rig/rig_builder.h"
#include "test_util.h"

namespace rigpm {
namespace {

using ::rigpm::testing::BruteForceAnswer;
using ::rigpm::testing::PaperExample;
using ::rigpm::testing::RigPartners;
using ::rigpm::testing::RigRank;

std::vector<NodeId> Nodes(std::span<const NodeId> s) {
  return {s.begin(), s.end()};
}

class RigFixture : public ::testing::Test {
 protected:
  RigFixture()
      : graph_(PaperExample::MakeGraph()),
        query_(PaperExample::MakeQuery()),
        reach_(BuildReachabilityIndex(graph_, ReachKind::kBfl)),
        ctx_(graph_, *reach_),
        cond_(graph_),
        intervals_(graph_, cond_) {}

  Graph graph_;
  PatternQuery query_;
  std::unique_ptr<ReachabilityIndex> reach_;
  MatchContext ctx_;
  Condensation cond_;
  IntervalLabels intervals_;
};

// The refined RIG of Fig. 2(e): node sets equal FB, and the (B,C) edge set
// contains the redundant pair (b2, c1) that only MJoin filters out.
TEST_F(RigFixture, PaperExampleRefinedRig) {
  Rig rig = BuildRigFromMatchSets(ctx_, query_, RigBuildOptions{}, &intervals_);
  EXPECT_EQ(Nodes(rig.Cos(0)),
            (std::vector<NodeId>{PaperExample::a1, PaperExample::a2}));
  EXPECT_EQ(Nodes(rig.Cos(1)),
            (std::vector<NodeId>{PaperExample::b0, PaperExample::b2}));
  EXPECT_EQ(Nodes(rig.Cos(2)),
            (std::vector<NodeId>{PaperExample::c0, PaperExample::c1,
                                 PaperExample::c2}));

  // Edge (A,B): exactly the occurrence pairs.
  EXPECT_EQ(RigPartners(rig, query_, 0, PaperExample::a1),
            (std::vector<NodeId>{PaperExample::b0}));
  EXPECT_EQ(RigPartners(rig, query_, 0, PaperExample::a2),
            (std::vector<NodeId>{PaperExample::b2}));
  // Edge (B,C): b2's adjacency includes the redundant c1.
  EXPECT_EQ(RigPartners(rig, query_, 2, PaperExample::b2),
            (std::vector<NodeId>{PaperExample::c0, PaperExample::c1,
                                 PaperExample::c2}));
  EXPECT_EQ(rig.EdgeCount(0), 2u);
  EXPECT_EQ(rig.EdgeCount(2), 5u);  // (b0,c0),(b0,c1),(b2,c0),(b2,c1),(b2,c2)
  EXPECT_EQ(rig.TotalNodes(), 7u);
  EXPECT_GT(rig.MemoryBytes(), 0u);
  EXPECT_FALSE(rig.AnyEmpty());
}

// Proposition 4.1 (losslessness): every homomorphism edge image is a RIG
// edge, in both the refined and the match RIG.
TEST_F(RigFixture, Proposition41Losslessness) {
  RigBuildOptions match_only;
  match_only.skip_simulation = true;  // match RIG G^m_Q
  Rig match_rig = BuildRigFromMatchSets(ctx_, query_, match_only);
  Rig refined = BuildRigFromMatchSets(ctx_, query_, RigBuildOptions{});

  auto answer = BruteForceAnswer(graph_, query_);
  ASSERT_FALSE(answer.empty());
  auto has_edge = [&](const Rig& rig, QueryEdgeId e, NodeId vp, NodeId vq) {
    const std::vector<NodeId> partners = RigPartners(rig, query_, e, vp);
    return std::binary_search(partners.begin(), partners.end(), vq);
  };
  for (const auto& h : answer) {
    for (QueryEdgeId e = 0; e < query_.NumEdges(); ++e) {
      const QueryEdge& edge = query_.Edge(e);
      EXPECT_TRUE(has_edge(match_rig, e, h[edge.from], h[edge.to]));
      EXPECT_TRUE(has_edge(refined, e, h[edge.from], h[edge.to]));
      // The transposed rows MJoin reads backward hold the same pair.
      const OwnedRankRows back = refined.Transpose(e);
      const int64_t from = RigRank(refined, edge.from, h[edge.from]);
      const int64_t to = RigRank(refined, edge.to, h[edge.to]);
      ASSERT_GE(from, 0);
      ASSERT_GE(to, 0);
      const std::span<const uint32_t> row = back.rows[to];
      EXPECT_TRUE(std::binary_search(row.begin(), row.end(), from));
    }
  }
  // The refined RIG is no larger than the match RIG.
  EXPECT_LE(refined.Size(), match_rig.Size());
}

TEST_F(RigFixture, MJoinProducesPaperAnswer) {
  Rig rig = BuildRigFromMatchSets(ctx_, query_, RigBuildOptions{}, &intervals_);
  std::vector<QueryNodeId> order =
      ComputeSearchOrder(query_, rig, OrderStrategy::kJO);
  MJoinStats stats;
  auto tuples = MJoinCollect(query_, rig, order, MJoinOptions{}, &stats);
  std::set<std::vector<NodeId>> got(tuples.begin(), tuples.end());
  EXPECT_EQ(got, PaperExample::ExpectedAnswer());
  EXPECT_EQ(stats.occurrences, 4u);
  EXPECT_GT(stats.intersections, 0u);
}

TEST_F(RigFixture, MJoinAnswerIndependentOfOrderStrategy) {
  Rig rig = BuildRigFromMatchSets(ctx_, query_, RigBuildOptions{}, &intervals_);
  std::set<std::vector<NodeId>> expected = PaperExample::ExpectedAnswer();
  for (OrderStrategy s :
       {OrderStrategy::kJO, OrderStrategy::kRI, OrderStrategy::kBJ}) {
    auto order = ComputeSearchOrder(query_, rig, s);
    auto tuples = MJoinCollect(query_, rig, order);
    EXPECT_EQ(std::set<std::vector<NodeId>>(tuples.begin(), tuples.end()),
              expected)
        << OrderStrategyName(s);
  }
}

TEST_F(RigFixture, MJoinLimitStopsEarly) {
  Rig rig = BuildRigFromMatchSets(ctx_, query_, RigBuildOptions{});
  std::vector<QueryNodeId> order =
      ComputeSearchOrder(query_, rig, OrderStrategy::kJO);
  MJoinOptions opts;
  opts.limit = 2;
  EXPECT_EQ(MJoinCount(query_, rig, order, opts), 2u);
}

TEST_F(RigFixture, MJoinSinkCanAbort) {
  Rig rig = BuildRigFromMatchSets(ctx_, query_, RigBuildOptions{});
  std::vector<QueryNodeId> order =
      ComputeSearchOrder(query_, rig, OrderStrategy::kJO);
  uint64_t seen = 0;
  MJoin(query_, rig, order, [&seen](const Occurrence&) {
    ++seen;
    return false;  // stop immediately
  });
  EXPECT_EQ(seen, 1u);
}

TEST_F(RigFixture, EarlyTerminationMatchesPlainExpansion) {
  RigBuildOptions with_cutoff;
  with_cutoff.early_termination = true;
  RigBuildOptions without;
  without.early_termination = false;
  Rig a = BuildRigFromMatchSets(ctx_, query_, with_cutoff, &intervals_);
  Rig b = BuildRigFromMatchSets(ctx_, query_, without, nullptr);
  EXPECT_EQ(a.TotalEdges(), b.TotalEdges());
  for (QueryEdgeId e = 0; e < query_.NumEdges(); ++e) {
    EXPECT_EQ(a.EdgeCount(e), b.EdgeCount(e)) << e;
  }
}

TEST(Rig, EmptyCosShortCircuitsEverything) {
  // Query label 3 does not exist in the data.
  Graph g = Graph::FromEdges({0, 1}, {{0, 1}});
  auto reach = BuildReachabilityIndex(g, ReachKind::kBfl);
  MatchContext ctx(g, *reach);
  PatternQuery q = PatternQuery::FromParts(
      {0, 3}, {{0, 1, EdgeKind::kChild}});
  RigBuildStats stats;
  Rig rig = BuildRigFromMatchSets(ctx, q, RigBuildOptions{}, nullptr, &stats);
  EXPECT_TRUE(rig.AnyEmpty());
  EXPECT_EQ(rig.TotalEdges(), 0u);
  EXPECT_EQ(stats.expand_pair_checks, 0u);  // expansion was skipped
  std::vector<QueryNodeId> order = {0, 1};
  EXPECT_EQ(MJoinCount(q, rig, order), 0u);
}

TEST_F(RigFixture, MJoinZeroLimitEmitsNothing) {
  Rig rig = BuildRigFromMatchSets(ctx_, query_, RigBuildOptions{});
  std::vector<QueryNodeId> order =
      ComputeSearchOrder(query_, rig, OrderStrategy::kJO);
  uint64_t calls = 0;
  OccurrenceSink sink = [&calls](const Occurrence&) {
    ++calls;
    return true;
  };
  MJoinOptions opts;
  opts.limit = 0;
  MJoinStats stats;
  EXPECT_EQ(MJoin(query_, rig, order, sink, opts, &stats), 0u);
  EXPECT_EQ(stats.occurrences, 0u);
  for (uint32_t threads : {1u, 2u}) {
    ParallelMJoinOptions popts;
    popts.num_threads = threads;
    popts.limit = 0;
    EXPECT_EQ(MJoinParallel(query_, rig, order, sink, popts), 0u) << threads;
  }
  EXPECT_EQ(calls, 0u);
}

TEST(Rig, SelfLoopQueryEdgeKeepsOnlyLoopedCandidates) {
  // Node 0 has a self-loop, node 1 does not; both point at node 2.
  Graph g = Graph::FromEdges({0, 0, 1}, {{0, 0}, {0, 2}, {1, 2}});
  auto reach = BuildReachabilityIndex(g, ReachKind::kBfl);
  MatchContext ctx(g, *reach);
  PatternQuery q = PatternQuery::FromParts(
      {0, 1}, {{0, 0, EdgeKind::kChild}, {0, 1, EdgeKind::kChild}});
  ASSERT_EQ(BruteForceAnswer(g, q),
            (std::set<std::vector<NodeId>>{{0, 2}}));
  // The match RIG keeps node 1 in cos(0): only the loop check drops it.
  RigBuildOptions match_only;
  match_only.skip_simulation = true;
  for (const RigBuildOptions& opts : {RigBuildOptions{}, match_only}) {
    Rig rig = BuildRigFromMatchSets(ctx, q, opts);
    for (std::vector<QueryNodeId> order :
         {std::vector<QueryNodeId>{0, 1}, std::vector<QueryNodeId>{1, 0}}) {
      EXPECT_EQ(MJoinCollect(q, rig, order),
                (std::vector<Occurrence>{{0, 2}}));
    }
  }
}

TEST(Rig, SkewedRowsIntersectByGalloping) {
  // Node 1 (label 1) points at all of nodes 2..201 (label 2); node 0
  // (label 0) at the first, a middle and the last of them and at node 202,
  // which node 1 misses. Binding c intersects a row of at most 4 ranks with
  // one of 200, skewed enough to gallop.
  std::vector<LabelId> labels(203, 2);
  labels[0] = 0;
  labels[1] = 1;
  std::vector<std::pair<NodeId, NodeId>> edges = {
      {0, 2}, {0, 100}, {0, 201}, {0, 202}};
  for (NodeId c = 2; c <= 201; ++c) edges.push_back({1, c});
  Graph g = Graph::FromEdges(labels, edges);
  auto reach = BuildReachabilityIndex(g, ReachKind::kBfl);
  MatchContext ctx(g, *reach);
  PatternQuery q = PatternQuery::FromParts(
      {0, 1, 2}, {{0, 2, EdgeKind::kChild}, {1, 2, EdgeKind::kChild}});
  const std::vector<Occurrence> expected = {
      {0, 1, 2}, {0, 1, 100}, {0, 1, 201}};
  // The match RIG keeps node 202 in cos(c), past the end of node 1's row.
  RigBuildOptions match_only;
  match_only.skip_simulation = true;
  for (const RigBuildOptions& opts : {RigBuildOptions{}, match_only}) {
    Rig rig = BuildRigFromMatchSets(ctx, q, opts);
    for (const auto& order : {std::vector<QueryNodeId>{0, 1, 2},
                              std::vector<QueryNodeId>{1, 0, 2}}) {
      EXPECT_EQ(MJoinCollect(q, rig, order), expected);
    }
  }
}

// --- Search orders.

TEST_F(RigFixture, OrdersArePermutationsWithConnectedPrefixes) {
  Rig rig = BuildRigFromMatchSets(ctx_, query_, RigBuildOptions{});
  for (OrderStrategy s :
       {OrderStrategy::kJO, OrderStrategy::kRI, OrderStrategy::kBJ}) {
    auto order = ComputeSearchOrder(query_, rig, s);
    ASSERT_EQ(order.size(), query_.NumNodes()) << OrderStrategyName(s);
    std::set<QueryNodeId> seen;
    for (uint32_t i = 0; i < order.size(); ++i) {
      EXPECT_TRUE(seen.insert(order[i]).second);
      if (i > 0) {
        bool connected = false;
        for (uint32_t j = 0; j < i && !connected; ++j) {
          connected = query_.HasEdgeBetween(order[i], order[j]) ||
                      query_.HasEdgeBetween(order[j], order[i]);
        }
        EXPECT_TRUE(connected)
            << OrderStrategyName(s) << " position " << i;
      }
    }
  }
}

TEST_F(RigFixture, JoStartsAtSmallestCandidateSet) {
  Rig rig = BuildRigFromMatchSets(ctx_, query_, RigBuildOptions{});
  auto order = ComputeSearchOrder(query_, rig, OrderStrategy::kJO);
  // cos(A) and cos(B) both have 2 nodes; cos(C) has 3. The start node must
  // be one of the minimum-cardinality ones.
  EXPECT_LE(rig.Cos(order[0]).size(), rig.Cos(order[1]).size());
  EXPECT_LE(rig.Cos(order[0]).size(), rig.Cos(order[2]).size());
}

TEST_F(RigFixture, BjReportsPlanCount) {
  Rig rig = BuildRigFromMatchSets(ctx_, query_, RigBuildOptions{});
  OrderStats stats;
  ComputeSearchOrder(query_, rig, OrderStrategy::kBJ, &stats);
  EXPECT_GT(stats.plans_considered, 0u);
  EXPECT_FALSE(stats.fell_back_to_jo);
}

TEST(SearchOrder, BjFallsBackOnHugeQueries) {
  // 24-node path query exceeds the BJ subset-DP bound.
  std::vector<LabelId> labels(24, 0);
  std::vector<QueryEdge> edges;
  for (QueryNodeId i = 0; i + 1 < 24; ++i) {
    edges.push_back({i, i + 1, EdgeKind::kChild});
  }
  PatternQuery q = PatternQuery::FromParts(labels, edges);
  Graph g = Graph::FromEdges({0, 0}, {{0, 1}});
  auto reach = BuildReachabilityIndex(g, ReachKind::kBfl);
  MatchContext ctx(g, *reach);
  Rig rig = BuildRigFromMatchSets(ctx, q, RigBuildOptions{});
  OrderStats stats;
  auto order = ComputeSearchOrder(q, rig, OrderStrategy::kBJ, &stats);
  EXPECT_TRUE(stats.fell_back_to_jo);
  EXPECT_EQ(order.size(), 24u);
}

// Every search order, connected or not: MJoin emits the answer in
// lexicographic order of (t[order[0]], t[order[1]], ...), and a limit of k
// keeps exactly the first k occurrences. Limit-hit queries and the result
// cache's tuple echoes rely on that order.
TEST(MJoinOrder, EveryPermutationEmitsLexicographicallyAndLimitsToAPrefix) {
  GeneratorOptions gopts{.num_nodes = 60, .num_edges = 240, .num_labels = 2,
                         .seed = 11};
  Graph g = GeneratePowerLaw(gopts);
  auto reach = BuildReachabilityIndex(g, ReachKind::kBfl);
  MatchContext ctx(g, *reach);
  // (query nodes, query seed): answers of 61 and 218 occurrences.
  for (auto [nodes, seed] : {std::pair<uint32_t, uint64_t>{4, 43}, {5, 41}}) {
    PatternQuery q = GenerateRandomQuery({.num_nodes = nodes,
                                          .num_edges = nodes + 1,
                                          .num_labels = 2,
                                          .variant = QueryVariant::kHybrid,
                                          .seed = seed});
    Rig rig = BuildRigFromMatchSets(ctx, q, RigBuildOptions{});
    const std::set<std::vector<NodeId>> expected = BruteForceAnswer(g, q);
    ASSERT_GT(expected.size(), 10u) << nodes;
    std::vector<QueryNodeId> order(nodes);
    std::iota(order.begin(), order.end(), 0);
    do {
      SCOPED_TRACE(::testing::PrintToString(order));
      const std::vector<Occurrence> all = MJoinCollect(q, rig, order);
      ASSERT_EQ(std::set<std::vector<NodeId>>(all.begin(), all.end()),
                expected);
      auto key = [&](const Occurrence& t) {
        std::vector<NodeId> k;
        for (QueryNodeId v : order) k.push_back(t[v]);
        return k;
      };
      for (size_t i = 1; i < all.size(); ++i) {
        ASSERT_LT(key(all[i - 1]), key(all[i])) << "at " << i;
      }
      for (uint64_t k : {uint64_t{1}, uint64_t{all.size() / 3},
                         uint64_t{all.size() - 1}, uint64_t{all.size()}}) {
        MJoinOptions opts;
        opts.limit = k;
        EXPECT_EQ(MJoinCollect(q, rig, order, opts),
                  std::vector<Occurrence>(all.begin(), all.begin() + k))
            << "limit " << k;
      }
    } while (std::next_permutation(order.begin(), order.end()));
  }
}

// ---------------------------------------------------------------------------
// Differential property: RIG + MJoin equals brute force on random inputs.
// ---------------------------------------------------------------------------

struct EndToEndCase {
  const char* label;
  uint64_t seed;
  uint32_t q_nodes;
  uint32_t q_edges;
  bool dag_data;
};

class RigMJoinPropertyTest : public ::testing::TestWithParam<EndToEndCase> {};

TEST_P(RigMJoinPropertyTest, MatchesBruteForce) {
  const EndToEndCase& p = GetParam();
  GeneratorOptions gopts{.num_nodes = 50, .num_edges = 170, .num_labels = 4,
                         .seed = p.seed};
  Graph g = p.dag_data ? GenerateRandomDag(gopts) : GeneratePowerLaw(gopts);
  auto reach = BuildReachabilityIndex(g, ReachKind::kBfl);
  MatchContext ctx(g, *reach);
  Condensation cond(g);
  IntervalLabels intervals(g, cond);

  PatternQuery q = GenerateRandomQuery({.num_nodes = p.q_nodes,
                                        .num_edges = p.q_edges,
                                        .num_labels = 4,
                                        .variant = QueryVariant::kHybrid,
                                        .seed = p.seed * 31 + 5});
  Rig rig = BuildRigFromMatchSets(ctx, q, RigBuildOptions{}, &intervals);
  auto order = ComputeSearchOrder(q, rig, OrderStrategy::kJO);
  auto tuples = MJoinCollect(q, rig, order);
  std::set<std::vector<NodeId>> got(tuples.begin(), tuples.end());
  EXPECT_EQ(got.size(), tuples.size()) << "MJoin produced duplicates";
  EXPECT_EQ(got, BruteForceAnswer(g, q));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, RigMJoinPropertyTest,
    ::testing::Values(EndToEndCase{"tree4", 1, 4, 3, true},
                      EndToEndCase{"diamond", 2, 4, 4, false},
                      EndToEndCase{"five_dense", 3, 5, 8, false},
                      EndToEndCase{"six_sparse", 4, 6, 6, true},
                      EndToEndCase{"clique4", 5, 4, 6, false},
                      EndToEndCase{"seven", 6, 7, 9, true},
                      EndToEndCase{"another", 7, 5, 6, false},
                      EndToEndCase{"eighth", 8, 6, 9, false}),
    [](const ::testing::TestParamInfo<EndToEndCase>& info) {
      return info.param.label;
    });

}  // namespace
}  // namespace rigpm
