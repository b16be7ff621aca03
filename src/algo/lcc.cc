#include <cstdint>
#include <vector>

#include "algo/lcc_kernel.h"
#include "algo/reference.h"

namespace ga::reference {

Result<AlgorithmOutput> Lcc(const Graph& graph, exec::ThreadPool* pool) {
  const VertexIndex n = graph.num_vertices();
  AlgorithmOutput output;
  output.algorithm = Algorithm::kLcc;
  output.double_values.assign(n, 0.0);

  // Degree-oriented triangle counting over the sorted CSR
  // (algo/lcc_kernel.h): each support triangle is found once from its
  // lowest-rank corner and contributes its opposite edge's directed
  // multiplicity to every corner's links counter. For undirected graphs
  // each triangle edge is counted in both directions, matching the
  // undirected denominator convention d*(d-1). The kernel's integer
  // accumulators make its result the same at any host thread count.
  exec::ExecContext ctx(pool);
  lcc::NeighborhoodIndex index;
  index.Build(ctx, graph);
  std::vector<std::int64_t> links;
  index.CountLinks(ctx, &links);
  for (VertexIndex v = 0; v < n; ++v) {
    output.double_values[v] = lcc::Coefficient(links[v], index.Degree(v));
  }
  return output;
}

}  // namespace ga::reference
