#include <queue>
#include <utility>
#include <vector>

#include "algo/reference.h"

namespace ga::reference {

Result<AlgorithmOutput> Sssp(const Graph& graph, VertexId source) {
  if (!graph.is_weighted()) {
    return Status::FailedPrecondition("SSSP requires a weighted graph");
  }
  const VertexIndex root = graph.IndexOf(source);
  if (root == kInvalidVertex) {
    return Status::InvalidArgument("SSSP source vertex " +
                                   std::to_string(source) + " not in graph");
  }
  AlgorithmOutput output;
  output.algorithm = Algorithm::kSssp;
  output.double_values.assign(graph.num_vertices(), kUnreachableDistance);
  output.double_values[root] = 0.0;

  using Entry = std::pair<double, VertexIndex>;  // (distance, vertex)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  heap.emplace(0.0, root);
  while (!heap.empty()) {
    const auto [distance, v] = heap.top();
    heap.pop();
    if (distance > output.double_values[v]) continue;  // stale entry
    const auto neighbors = graph.OutNeighbors(v);
    const auto weights = graph.OutWeights(v);
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      const double candidate = distance + weights[i];
      if (candidate < output.double_values[neighbors[i]]) {
        output.double_values[neighbors[i]] = candidate;
        heap.emplace(candidate, neighbors[i]);
      }
    }
  }
  return output;
}

Result<AlgorithmOutput> Run(const Graph& graph, Algorithm algorithm,
                            const AlgorithmParams& params,
                            exec::ThreadPool* pool) {
  switch (algorithm) {
    case Algorithm::kBfs:
      return Bfs(graph, params.source_vertex, pool);
    case Algorithm::kPageRank:
      return PageRank(graph, params.pagerank_iterations,
                      params.damping_factor, pool);
    case Algorithm::kWcc:
      return Wcc(graph, pool);
    case Algorithm::kCdlp:
      return Cdlp(graph, params.cdlp_iterations, pool);
    case Algorithm::kLcc:
      return Lcc(graph, pool);
    case Algorithm::kSssp:
      return Sssp(graph, params.source_vertex);
  }
  return Status::Internal("unknown algorithm");
}

}  // namespace ga::reference
