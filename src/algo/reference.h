// Reference (exact) implementations of the six Graphalytics core
// algorithms (Section 2.2.3 of the paper). These define ground truth for
// validating the platform analogues, exactly as the paper's reference
// implementations define correctness for the real platforms. All but
// SSSP (Dijkstra, serial) can run their main loops on a host pool; their
// outputs are identical at any thread count.
#ifndef GRAPHALYTICS_ALGO_REFERENCE_H_
#define GRAPHALYTICS_ALGO_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "algo/output.h"
#include "algo/params.h"
#include "core/exec/exec.h"
#include "core/graph.h"
#include "core/status.h"
#include "core/types.h"
#include "granula/tracer.h"

namespace ga::reference {

// The parallel references run their main loops through ga::exec: BFS's
// frontier, PageRank's pull sweep, WCC's labelling pass, CDLP's
// per-vertex vote and LCC's triangle kernel. `pool` is optional host
// parallelism; outputs are identical at any thread count and without one.
//
// References share the deep-tracing API with the platform engines
// (docs/OBSERVABILITY.md): pass an enabled granula::Tracer plus a parent
// Operation and the frontier-driven references append one wall-clock
// Superstep child per level/iteration (Tracer::CloseStepUnder). Tracing
// never alters the computed output.

/// Breadth-first search: minimum number of hops from `source` (external id)
/// to every vertex, following out-edges; kUnreachableHops if unreachable.
Result<AlgorithmOutput> Bfs(const Graph& graph, VertexId source,
                            exec::ThreadPool* pool = nullptr,
                            granula::Tracer* tracer = nullptr,
                            granula::Operation* trace_parent = nullptr);

/// PageRank with a fixed number of iterations, damping factor d, uniform
/// 1/n initialisation, and dangling-vertex mass redistributed uniformly.
Result<AlgorithmOutput> PageRank(const Graph& graph, int iterations,
                                 double damping,
                                 exec::ThreadPool* pool = nullptr);

/// Weakly connected components. Label = smallest external vertex id in the
/// component (deterministic canonical labelling).
Result<AlgorithmOutput> Wcc(const Graph& graph,
                            exec::ThreadPool* pool = nullptr);

/// Community detection by label propagation — the deterministic parallel
/// variant used by the paper [Raghavan et al., modified per the technical
/// report]: synchronous updates for a fixed number of iterations; the new
/// label is the most frequent label among in- and out-neighbours (each
/// direction contributes separately), ties broken towards the smallest
/// label. Initial label = external vertex id.
Result<AlgorithmOutput> Cdlp(const Graph& graph, int iterations,
                             exec::ThreadPool* pool = nullptr);

/// Local clustering coefficient: for each vertex, the ratio of the number
/// of directed edges that exist between its neighbours (union of in- and
/// out-neighbours) to the number that could exist, d*(d-1). Vertices with
/// fewer than two neighbours score 0.
Result<AlgorithmOutput> Lcc(const Graph& graph,
                            exec::ThreadPool* pool = nullptr);

/// Single-source shortest paths over double edge weights (Dijkstra).
/// Requires a weighted graph; kUnreachableDistance if unreachable.
Result<AlgorithmOutput> Sssp(const Graph& graph, VertexId source);

/// Dispatches to the implementation for `algorithm`.
Result<AlgorithmOutput> Run(const Graph& graph, Algorithm algorithm,
                            const AlgorithmParams& params,
                            exec::ThreadPool* pool = nullptr);

}  // namespace ga::reference

#endif  // GRAPHALYTICS_ALGO_REFERENCE_H_
