#include <vector>

#include "algo/reference.h"
#include "core/exec/scratch_pool.h"

namespace ga::reference {

Result<AlgorithmOutput> Cdlp(const Graph& graph, int iterations,
                             exec::ThreadPool* pool) {
  if (iterations < 0) {
    return Status::InvalidArgument("CDLP iterations must be >= 0");
  }
  const VertexIndex n = graph.num_vertices();
  AlgorithmOutput output;
  output.algorithm = Algorithm::kCdlp;
  output.int_values.resize(n);
  for (VertexIndex v = 0; v < n; ++v) {
    output.int_values[v] = graph.ExternalId(v);
  }

  std::vector<std::int64_t> next(n);
  // One reusable label counter per slot: mode with smallest-label
  // tie-break, without per-vertex allocations (reset, not reallocated).
  // Each vertex's new label depends only on the previous iteration's
  // labels, so the sweep is the same at any host thread count.
  exec::ExecContext ctx(pool);
  exec::ScratchPool scratch;
  scratch.Prepare(exec::ExecContext::NumSlots(n));
  for (int iteration = 0; iteration < iterations; ++iteration) {
    exec::parallel_for(ctx, 0, n, [&](const exec::Slice& slice) {
      for (VertexIndex v = slice.begin; v < slice.end; ++v) {
        exec::LabelCounter& votes = scratch.labels(slice.slot);
        // Directed graphs: in- and out-neighbours each contribute one
        // vote (a reciprocal pair therefore votes twice). Undirected
        // graphs: InNeighbors aliases OutNeighbors, so count only one
        // side.
        for (VertexIndex u : graph.OutNeighbors(v)) {
          votes.Add(output.int_values[u]);
        }
        if (graph.is_directed()) {
          for (VertexIndex u : graph.InNeighbors(v)) {
            votes.Add(output.int_values[u]);
          }
        }
        next[v] = votes.empty() ? output.int_values[v] : votes.Mode();
      }
    });
    output.int_values.swap(next);
  }
  return output;
}

}  // namespace ga::reference
