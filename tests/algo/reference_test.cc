// Hand-computed correctness tests for the six reference algorithms.
#include "algo/reference.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>

#include "core/exec/thread_pool.h"
#include "datagen/graph500.h"
#include "testing/graph_fixtures.h"

namespace ga {
namespace {

using ::ga::testing::MakeClique;
using ::ga::testing::MakeDirectedPath;
using ::ga::testing::MakeGraph;
using ::ga::testing::MakeStar;
using ::ga::testing::MakeUndirectedCycle;

// ---------- BFS ----------

TEST(BfsReferenceTest, DirectedPathHops) {
  Graph graph = MakeDirectedPath(5);
  auto output = reference::Bfs(graph, 0);
  ASSERT_TRUE(output.ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(output->int_values[graph.IndexOf(i)], i);
  }
}

TEST(BfsReferenceTest, DirectedEdgesNotFollowedBackwards) {
  Graph graph = MakeDirectedPath(4);
  auto output = reference::Bfs(graph, 2);
  ASSERT_TRUE(output.ok());
  EXPECT_EQ(output->int_values[graph.IndexOf(2)], 0);
  EXPECT_EQ(output->int_values[graph.IndexOf(3)], 1);
  EXPECT_EQ(output->int_values[graph.IndexOf(0)], kUnreachableHops);
  EXPECT_EQ(output->int_values[graph.IndexOf(1)], kUnreachableHops);
}

TEST(BfsReferenceTest, UndirectedCycleSymmetric) {
  Graph graph = MakeUndirectedCycle(6);
  auto output = reference::Bfs(graph, 0);
  ASSERT_TRUE(output.ok());
  EXPECT_EQ(output->int_values[graph.IndexOf(3)], 3);  // opposite side
  EXPECT_EQ(output->int_values[graph.IndexOf(5)], 1);  // backwards edge
}

TEST(BfsReferenceTest, UnknownSourceRejected) {
  Graph graph = MakeDirectedPath(3);
  auto output = reference::Bfs(graph, 99);
  EXPECT_FALSE(output.ok());
}

TEST(BfsReferenceTest, IsolatedVertexUnreachable) {
  Graph graph = MakeGraph(Directedness::kDirected, {{0, 1}}, {42});
  auto output = reference::Bfs(graph, 0);
  ASSERT_TRUE(output.ok());
  EXPECT_EQ(output->int_values[graph.IndexOf(42)], kUnreachableHops);
}

// ---------- PageRank ----------

TEST(PageRankReferenceTest, SumsToOne) {
  Graph graph = MakeGraph(Directedness::kDirected,
                          {{0, 1}, {1, 2}, {2, 0}, {0, 2}, {3, 0}});
  auto output = reference::PageRank(graph, 30, 0.85);
  ASSERT_TRUE(output.ok());
  double sum = std::accumulate(output->double_values.begin(),
                               output->double_values.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(PageRankReferenceTest, CycleIsUniform) {
  Graph graph = MakeGraph(Directedness::kDirected,
                          {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  auto output = reference::PageRank(graph, 25, 0.85);
  ASSERT_TRUE(output.ok());
  for (double rank : output->double_values) {
    EXPECT_NEAR(rank, 0.25, 1e-12);
  }
}

TEST(PageRankReferenceTest, SinkAccumulatesMoreRank) {
  // 0 -> 2, 1 -> 2: vertex 2 (a dangling sink) must outrank the sources.
  Graph graph = MakeGraph(Directedness::kDirected, {{0, 2}, {1, 2}});
  auto output = reference::PageRank(graph, 20, 0.85);
  ASSERT_TRUE(output.ok());
  EXPECT_GT(output->double_values[graph.IndexOf(2)],
            output->double_values[graph.IndexOf(0)]);
  double sum = std::accumulate(output->double_values.begin(),
                               output->double_values.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);  // dangling mass is redistributed
}

TEST(PageRankReferenceTest, ZeroIterationsIsUniformInitial) {
  Graph graph = MakeDirectedPath(4);
  auto output = reference::PageRank(graph, 0, 0.85);
  ASSERT_TRUE(output.ok());
  for (double rank : output->double_values) EXPECT_DOUBLE_EQ(rank, 0.25);
}

TEST(PageRankReferenceTest, RejectsBadDamping) {
  Graph graph = MakeDirectedPath(3);
  EXPECT_FALSE(reference::PageRank(graph, 10, 1.5).ok());
  EXPECT_FALSE(reference::PageRank(graph, -1, 0.85).ok());
}

// ---------- WCC ----------

TEST(WccReferenceTest, TwoComponents) {
  Graph graph = MakeGraph(Directedness::kUndirected,
                          {{0, 1}, {1, 2}, {10, 11}});
  auto output = reference::Wcc(graph);
  ASSERT_TRUE(output.ok());
  EXPECT_EQ(output->int_values[graph.IndexOf(0)], 0);
  EXPECT_EQ(output->int_values[graph.IndexOf(2)], 0);
  EXPECT_EQ(output->int_values[graph.IndexOf(10)], 10);
  EXPECT_EQ(output->int_values[graph.IndexOf(11)], 10);
}

TEST(WccReferenceTest, DirectionIgnored) {
  // 0 -> 1 <- 2: weakly connected even though not strongly.
  Graph graph = MakeGraph(Directedness::kDirected, {{0, 1}, {2, 1}});
  auto output = reference::Wcc(graph);
  ASSERT_TRUE(output.ok());
  EXPECT_EQ(output->int_values[graph.IndexOf(2)], 0);
}

TEST(WccReferenceTest, IsolatedVertexIsOwnComponent) {
  Graph graph = MakeGraph(Directedness::kUndirected, {{0, 1}}, {7});
  auto output = reference::Wcc(graph);
  ASSERT_TRUE(output.ok());
  EXPECT_EQ(output->int_values[graph.IndexOf(7)], 7);
}

TEST(WccReferenceTest, LabelIsSmallestExternalIdInComponent) {
  Graph graph = MakeGraph(Directedness::kUndirected, {{30, 20}, {20, 25}});
  auto output = reference::Wcc(graph);
  ASSERT_TRUE(output.ok());
  for (VertexIndex v = 0; v < graph.num_vertices(); ++v) {
    EXPECT_EQ(output->int_values[v], 20);
  }
}

// ---------- CDLP ----------

TEST(CdlpReferenceTest, TwoCliquesSeparate) {
  // Two triangles joined by one bridge edge: labels converge per-clique.
  Graph graph = MakeGraph(
      Directedness::kUndirected,
      {{0, 1}, {1, 2}, {0, 2}, {10, 11}, {11, 12}, {10, 12}, {2, 10}});
  auto output = reference::Cdlp(graph, 10);
  ASSERT_TRUE(output.ok());
  EXPECT_EQ(output->int_values[graph.IndexOf(0)],
            output->int_values[graph.IndexOf(1)]);
  EXPECT_EQ(output->int_values[graph.IndexOf(10)],
            output->int_values[graph.IndexOf(12)]);
}

TEST(CdlpReferenceTest, SingleIterationTakesSmallestNeighborLabel) {
  // Star: after one iteration every leaf adopts the hub's label or the
  // smallest leaf label; hub (id 0) has all leaves as neighbours, each with
  // a distinct label, so it takes the smallest (id 1).
  Graph graph = MakeStar(5);
  auto output = reference::Cdlp(graph, 1);
  ASSERT_TRUE(output.ok());
  EXPECT_EQ(output->int_values[graph.IndexOf(0)], 1);
  for (int leaf = 1; leaf < 5; ++leaf) {
    EXPECT_EQ(output->int_values[graph.IndexOf(leaf)], 0);
  }
}

TEST(CdlpReferenceTest, ZeroIterationsKeepsInitialLabels) {
  Graph graph = MakeUndirectedCycle(4);
  auto output = reference::Cdlp(graph, 0);
  ASSERT_TRUE(output.ok());
  for (VertexIndex v = 0; v < graph.num_vertices(); ++v) {
    EXPECT_EQ(output->int_values[v], graph.ExternalId(v));
  }
}

TEST(CdlpReferenceTest, DeterministicTieBreakPicksSmallestLabel) {
  // Vertex 2 sees labels {0, 1} with equal frequency -> picks 0.
  Graph graph = MakeGraph(Directedness::kUndirected, {{0, 2}, {1, 2}});
  auto output = reference::Cdlp(graph, 1);
  ASSERT_TRUE(output.ok());
  EXPECT_EQ(output->int_values[graph.IndexOf(2)], 0);
}

TEST(CdlpReferenceTest, DirectedCountsBothDirections) {
  // 1 -> 0 and 1 <- 2, 1 <- 3 ... the reciprocal pair (1,4),(4,1) gives
  // label 4 two votes at vertex 1, beating single-vote labels.
  Graph graph = MakeGraph(Directedness::kDirected,
                          {{1, 4}, {4, 1}, {0, 1}, {2, 1}});
  auto output = reference::Cdlp(graph, 1);
  ASSERT_TRUE(output.ok());
  EXPECT_EQ(output->int_values[graph.IndexOf(1)], 4);
}

// ---------- LCC ----------

TEST(LccReferenceTest, CliqueIsFullyClustered) {
  Graph graph = MakeClique(5);
  auto output = reference::Lcc(graph);
  ASSERT_TRUE(output.ok());
  for (double lcc : output->double_values) EXPECT_DOUBLE_EQ(lcc, 1.0);
}

TEST(LccReferenceTest, StarHasZeroClustering) {
  Graph graph = MakeStar(6);
  auto output = reference::Lcc(graph);
  ASSERT_TRUE(output.ok());
  for (double lcc : output->double_values) EXPECT_DOUBLE_EQ(lcc, 0.0);
}

TEST(LccReferenceTest, TriangleWithTail) {
  // Triangle 0-1-2 plus edge 2-3.
  Graph graph = MakeGraph(Directedness::kUndirected,
                          {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  auto output = reference::Lcc(graph);
  ASSERT_TRUE(output.ok());
  EXPECT_DOUBLE_EQ(output->double_values[graph.IndexOf(0)], 1.0);
  EXPECT_DOUBLE_EQ(output->double_values[graph.IndexOf(1)], 1.0);
  // Vertex 2 has neighbours {0,1,3}; only pair (0,1) is linked:
  // undirected counting = 2 links / (3*2) = 1/3.
  EXPECT_NEAR(output->double_values[graph.IndexOf(2)], 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(output->double_values[graph.IndexOf(3)], 0.0);
}

TEST(LccReferenceTest, DirectedTriangleCountsDirectedLinks) {
  // Directed cycle 0->1->2->0. N(v) = {other two} for each v; among the
  // two neighbours exactly one directed edge exists -> 1/(2*1) = 0.5.
  Graph graph = MakeGraph(Directedness::kDirected, {{0, 1}, {1, 2}, {2, 0}});
  auto output = reference::Lcc(graph);
  ASSERT_TRUE(output.ok());
  for (double lcc : output->double_values) EXPECT_DOUBLE_EQ(lcc, 0.5);
}

TEST(LccReferenceTest, DegreeOneVertexScoresZero) {
  Graph graph = MakeGraph(Directedness::kUndirected, {{0, 1}});
  auto output = reference::Lcc(graph);
  ASSERT_TRUE(output.ok());
  EXPECT_DOUBLE_EQ(output->double_values[0], 0.0);
  EXPECT_DOUBLE_EQ(output->double_values[1], 0.0);
}

// ---------- Host-thread invariance ----------

Graph SkewedGraph(Directedness directedness) {
  datagen::Graph500Config config;
  config.scale = 11;
  config.num_edges = 16000;
  config.directedness = directedness;
  config.seed = 5;
  auto graph = datagen::GenerateGraph500(config);
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

// CDLP and LCC run on the runner's host pool; their outputs must be
// byte-identical without a pool and at any thread count.
TEST(ReferenceThreadInvarianceTest, CdlpAndLccAreByteIdentical) {
  for (Directedness directedness :
       {Directedness::kDirected, Directedness::kUndirected}) {
    const Graph graph = SkewedGraph(directedness);
    auto cdlp = reference::Cdlp(graph, 5);
    auto lcc = reference::Lcc(graph);
    ASSERT_TRUE(cdlp.ok());
    ASSERT_TRUE(lcc.ok());
    for (int threads : {1, 2, 8}) {
      exec::ThreadPool pool(threads);
      auto pooled_cdlp = reference::Cdlp(graph, 5, &pool);
      auto pooled_lcc = reference::Lcc(graph, &pool);
      ASSERT_TRUE(pooled_cdlp.ok());
      ASSERT_TRUE(pooled_lcc.ok());
      EXPECT_EQ(pooled_cdlp->int_values, cdlp->int_values)
          << threads << " threads";
      ASSERT_EQ(pooled_lcc->double_values.size(), lcc->double_values.size());
      EXPECT_EQ(std::memcmp(pooled_lcc->double_values.data(),
                            lcc->double_values.data(),
                            lcc->double_values.size() * sizeof(double)),
                0)
          << threads << " threads";
    }
  }
}

// ---------- SSSP ----------

TEST(SsspReferenceTest, WeightedPathDistances) {
  Graph graph = MakeGraph(Directedness::kDirected,
                          {{0, 1, 2.0}, {1, 2, 3.0}, {0, 2, 10.0}}, {},
                          /*weighted=*/true);
  auto output = reference::Sssp(graph, 0);
  ASSERT_TRUE(output.ok());
  EXPECT_DOUBLE_EQ(output->double_values[graph.IndexOf(0)], 0.0);
  EXPECT_DOUBLE_EQ(output->double_values[graph.IndexOf(1)], 2.0);
  EXPECT_DOUBLE_EQ(output->double_values[graph.IndexOf(2)], 5.0);  // via 1
}

TEST(SsspReferenceTest, UnreachableIsInfinity) {
  Graph graph = MakeGraph(Directedness::kDirected, {{0, 1, 1.0}}, {9},
                          /*weighted=*/true);
  auto output = reference::Sssp(graph, 0);
  ASSERT_TRUE(output.ok());
  EXPECT_TRUE(std::isinf(output->double_values[graph.IndexOf(9)]));
}

TEST(SsspReferenceTest, RequiresWeightedGraph) {
  Graph graph = MakeDirectedPath(3);
  auto output = reference::Sssp(graph, 0);
  EXPECT_FALSE(output.ok());
  EXPECT_EQ(output.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SsspReferenceTest, UndirectedEdgesUsableBothWays) {
  Graph graph = MakeGraph(Directedness::kUndirected, {{0, 1, 5.0}}, {},
                          /*weighted=*/true);
  auto output = reference::Sssp(graph, 1);
  ASSERT_TRUE(output.ok());
  EXPECT_DOUBLE_EQ(output->double_values[graph.IndexOf(0)], 5.0);
}

// ---------- Dispatch ----------

TEST(RunDispatchTest, RunsEveryAlgorithm) {
  Graph graph = MakeGraph(Directedness::kUndirected,
                          {{0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 1.0}}, {},
                          /*weighted=*/true);
  AlgorithmParams params;
  params.source_vertex = 0;
  for (Algorithm algorithm : kAllAlgorithms) {
    auto output = reference::Run(graph, algorithm, params);
    ASSERT_TRUE(output.ok()) << AlgorithmName(algorithm) << ": "
                             << output.status().ToString();
    EXPECT_EQ(output->size(), 3u) << AlgorithmName(algorithm);
  }
}

}  // namespace
}  // namespace ga
