// Output contract of the dataflow engine's shuffle. The shuffle groups
// each superstep's message rows by destination with a stable counting
// scatter, serial on one host thread and range-parallel on more. BFS,
// SSSP and WCC merge a group with `min` and CDLP counts its votes, so
// their outputs do not depend on the order rows take within a group;
// their golden FNV-1a fingerprints were recorded when the shuffle was
// still a comparison sort. PageRank sums each group in emission order,
// so its fingerprints pin that order: they were recorded with the serial
// counting scatter and must not move. Every golden is checked without a
// pool and at 1, 2 and 8 host threads, which covers both grouping paths.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "algo/output.h"
#include "algo/reference.h"
#include "core/exec/thread_pool.h"
#include "datagen/graph500.h"
#include "platforms/platform.h"
#include "store/snapshot.h"

namespace ga::platform {
namespace {

Graph FixtureGraph(Directedness directedness, bool weighted,
                   std::uint64_t seed) {
  datagen::Graph500Config config;
  config.scale = 9;
  config.num_edges = 3000;
  config.directedness = directedness;
  config.weighted = weighted;
  config.seed = seed;
  auto graph = datagen::GenerateGraph500(config);
  if (!graph.ok()) std::abort();
  return std::move(graph).value();
}

const Graph& DirectedGraph() {
  static const Graph graph =
      FixtureGraph(Directedness::kDirected, /*weighted=*/false, 21);
  return graph;
}

const Graph& UndirectedGraph() {
  static const Graph graph =
      FixtureGraph(Directedness::kUndirected, /*weighted=*/false, 22);
  return graph;
}

const Graph& WeightedGraph() {
  static const Graph graph =
      FixtureGraph(Directedness::kDirected, /*weighted=*/true, 23);
  return graph;
}

ExecutionEnvironment Environment(exec::ThreadPool* pool) {
  ExecutionEnvironment env;
  env.num_machines = 2;
  env.threads_per_machine = 8;
  env.memory_budget_bytes = 1LL << 30;
  env.host_pool = pool;
  return env;
}

RunResult RunDataflow(const Graph& graph, Algorithm algorithm,
                      exec::ThreadPool* pool = nullptr) {
  auto platform = CreatePlatform("dataflow");
  if (!platform.ok()) std::abort();
  AlgorithmParams params;
  params.source_vertex = graph.ExternalId(0);
  auto run = platform.value()->RunJob(graph, algorithm, params,
                                      Environment(pool));
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  if (!run.ok()) std::abort();
  return std::move(run).value();
}

std::string Fingerprint(const Graph& graph, const AlgorithmOutput& output) {
  const std::string text = FormatOutput(graph, output);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(
                    store::Fnv1a64(text.data(), text.size())));
  return hex;
}

struct Golden {
  const char* graph;
  Algorithm algorithm;
  const char* fnv;
};

// BFS/SSSP/WCC/CDLP recorded with the comparison-sort shuffle, PageRank
// with the serial counting scatter.
constexpr Golden kGolden[] = {
    {"directed", Algorithm::kBfs, "65885781a7d6bdc0"},
    {"directed", Algorithm::kWcc, "cef576d2383bf01d"},
    {"directed", Algorithm::kCdlp, "826f6c8375a5375e"},
    {"undirected", Algorithm::kBfs, "e7aaf726b91354a8"},
    {"undirected", Algorithm::kWcc, "f28121bc73791fc8"},
    {"undirected", Algorithm::kCdlp, "193a649305239278"},
    {"weighted", Algorithm::kBfs, "467d3ca0346e036a"},
    {"weighted", Algorithm::kSssp, "383f205fccb1fa35"},
    {"weighted", Algorithm::kWcc, "378cc365aef8a95b"},
    {"weighted", Algorithm::kCdlp, "7ae09cab1890e5e2"},
    {"directed", Algorithm::kPageRank, "814b4578e444c4ab"},
    {"undirected", Algorithm::kPageRank, "69f00951f089a595"},
    {"weighted", Algorithm::kPageRank, "e983912cf2a0e2e0"},
};

const Graph& GraphNamed(const std::string& name) {
  if (name == "directed") return DirectedGraph();
  if (name == "undirected") return UndirectedGraph();
  return WeightedGraph();
}

TEST(DataflowShuffleTest, OutputsMatchGoldenFingerprintsAtAnyThreadCount) {
  for (int host_threads : {0, 1, 2, 8}) {
    std::unique_ptr<exec::ThreadPool> pool;
    if (host_threads > 0) {
      pool = std::make_unique<exec::ThreadPool>(host_threads);
    }
    for (const Golden& golden : kGolden) {
      const Graph& graph = GraphNamed(golden.graph);
      const RunResult run = RunDataflow(graph, golden.algorithm, pool.get());
      EXPECT_EQ(Fingerprint(graph, run.output), golden.fnv)
          << golden.graph << "/" << AlgorithmName(golden.algorithm) << " at "
          << host_threads << " host threads";
    }
  }
}

TEST(DataflowShuffleTest, PageRankValidatesAndIsHostThreadInvariant) {
  for (const Graph* graph :
       {&DirectedGraph(), &UndirectedGraph(), &WeightedGraph()}) {
    const RunResult serial = RunDataflow(*graph, Algorithm::kPageRank);
    AlgorithmParams params;
    auto reference = reference::Run(*graph, Algorithm::kPageRank, params);
    ASSERT_TRUE(reference.ok());
    EXPECT_TRUE(ValidateOutput(*graph, *reference, serial.output).ok());
    for (int host_threads : {1, 2, 8}) {
      exec::ThreadPool pool(host_threads);
      const RunResult run = RunDataflow(*graph, Algorithm::kPageRank, &pool);
      ASSERT_EQ(run.output.double_values.size(),
                serial.output.double_values.size());
      EXPECT_EQ(std::memcmp(run.output.double_values.data(),
                            serial.output.double_values.data(),
                            serial.output.double_values.size() *
                                sizeof(double)),
                0)
          << host_threads << " host threads";
    }
  }
}

}  // namespace
}  // namespace ga::platform
