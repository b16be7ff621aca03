#include "platforms/dataflow.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <vector>

#include "algo/lcc_kernel.h"
#include "core/exec/exec.h"
#include "core/exec/scratch_pool.h"
#include "granula/tracer.h"
#include "platforms/worker_map.h"

namespace ga::platform {

namespace {

// Shuffle-row wire/heap footprint (boxed key + value + spill record).
constexpr std::int64_t kRowBytes = 48;
// CDLP shuffle rows: the mode aggregation has no map-side combiner, so
// groupByKey materialises the full label multiset as boxed (Long, Long)
// tuples in hash maps on a managed heap with ~55% usable fraction —
// ~650 effective bytes per vote. This is what makes GraphX "unable to
// complete CDLP" even on R4(S) in the paper (§4.2).
constexpr std::int64_t kCdlpRowBytes = 650;

struct MessageRow {
  VertexIndex dst;
  double value;
};

// The dataflow runtime: tracks row processing, shuffles (real groupings),
// memory for double-buffered shuffle files, and cross-machine bytes.
class DataflowRuntime {
 public:
  DataflowRuntime(JobContext& ctx, const Graph& graph)
      : ctx_(ctx),
        graph_(graph),
        workers_(graph, ctx.num_machines(), ctx.threads_per_machine()) {}

  ~DataflowRuntime() { ReleaseIterationBuffers(); }

  // Charges `rows` row-scans, spread across all workers (Spark balances
  // shuffle partitions); `op_factor` scales the per-row cost.
  void ChargeRows(std::uint64_t rows, double op_factor = 1.0) {
    const double per_row = ctx_.profile().ops_per_message * op_factor;
    const std::uint64_t total =
        static_cast<std::uint64_t>(static_cast<double>(rows) * per_row);
    const int workers = ctx_.num_workers();
    for (int w = 0; w < workers; ++w) {
      ctx_.worker_ops()[w] += total / workers;
    }
    ctx_.worker_ops()[0] += total % workers;
    ctx_.ledger().rows_materialized += rows;
  }

  // Real shuffle: groups this superstep's emitted rows by destination
  // vertex into `messages` with a stable counting scatter (each group in
  // emission order; host-parallel on a multi-thread pool; scratch pooled
  // across iterations), and charges the modeled sort's comparison cost
  // plus cross-machine traffic (a row moves when the destination
  // vertex's machine differs from the source's hash partition).
  void Shuffle(exec::SlotBuffers<MessageRow>& emitted,
               std::vector<MessageRow>* messages,
               std::int64_t row_bytes = kRowBytes) {
    ChargeShuffle(emitted.TotalSize(), row_bytes);
    emitted.GroupInto(
        ctx_.exec(), static_cast<std::size_t>(graph_.num_vertices()),
        [](const MessageRow& row) { return row.dst; }, &dst_offsets_,
        messages);
  }

  // The last Shuffle's groups as a CSR over its `messages`: vertex v's
  // rows are [group_offsets()[v], group_offsets()[v + 1]).
  const std::vector<std::size_t>& group_offsets() const {
    return dst_offsets_;
  }

 private:
  void ChargeShuffle(std::size_t rows, std::int64_t row_bytes) {
    const double log_rows =
        std::max(1.0, std::log2(static_cast<double>(rows)));
    ChargeRows(static_cast<std::uint64_t>(
                   static_cast<double>(rows) * log_rows / 12.0),
               2.0);
    if (ctx_.num_machines() > 1) {
      // Roughly (p-1)/p of rows cross machines under hash partitioning;
      // map-side combining shrinks the shipped rows by ~4x (except for
      // CDLP, whose mode aggregation cannot combine — its heavier
      // row_bytes already reflect that).
      constexpr double kMapSideCombine = 4.0;
      const double cross_fraction =
          static_cast<double>(ctx_.num_machines() - 1) /
          static_cast<double>(ctx_.num_machines());
      const auto cross_bytes = static_cast<std::uint64_t>(
          cross_fraction * static_cast<double>(rows) *
          static_cast<double>(ctx_.profile().bytes_per_message) /
          (kMapSideCombine * static_cast<double>(ctx_.num_machines())));
      (void)row_bytes;
      for (int m = 0; m < ctx_.num_machines(); ++m) {
        ctx_.machine_comm()[m].bytes_sent += cross_bytes;
        ctx_.machine_comm()[m].bytes_received += cross_bytes;
      }
    }
  }

 public:
  // Shuffle files + materialised RDD of this iteration stay resident until
  // the next iteration replaces them (GraphX unpersists the previous one).
  Status ChargeIterationBuffers(std::uint64_t rows, std::int64_t row_bytes) {
    ReleaseIterationBuffers();
    charged_per_machine_ =
        static_cast<std::int64_t>(rows) * row_bytes /
        std::max(ctx_.num_machines(), 1);
    for (int m = 0; m < ctx_.num_machines(); ++m) {
      GA_RETURN_IF_ERROR(
          ctx_.ChargeMemory(m, charged_per_machine_, "shuffle buffers"));
    }
    charged_ = true;
    return Status::Ok();
  }

  void ReleaseIterationBuffers() {
    if (!charged_) return;
    for (int m = 0; m < ctx_.num_machines(); ++m) {
      ctx_.ReleaseMemory(m, charged_per_machine_);
    }
    charged_ = false;
  }

  const WorkerMap& workers() const { return workers_; }

 private:
  JobContext& ctx_;
  const Graph& graph_;
  WorkerMap workers_;
  std::int64_t charged_per_machine_ = 0;
  bool charged_ = false;
  std::vector<std::size_t> dst_offsets_;  // shuffle scatter offsets
};

// GraphX-Pregel skeleton over double-valued vertex state.
//
//   send(edge_source_state, edge, forward?) -> optional message value
//   merge(a, b) -> combined message
//   apply(v, old_state, merged) -> new state
//
// `reverse_sends` additionally evaluates each edge in the reverse
// direction (GraphX triplets can message both endpoints), used by WCC and
// CDLP on directed graphs.
template <typename SendFn, typename MergeFn, typename ApplyFn>
Status RunGraphxPregel(JobContext& ctx, const Graph& graph,
                       DataflowRuntime& runtime,
                       std::vector<double>* state,
                       std::vector<char>* active, int max_iterations,
                       bool reverse_sends, std::int64_t row_bytes,
                       double row_op_factor, const std::string& label,
                       SendFn&& send, MergeFn&& merge, ApplyFn&& apply) {
  std::vector<MessageRow> messages;
  exec::SlotBuffers<MessageRow> emitted;
  std::vector<char> next_active;
  std::vector<std::size_t> group_counts;
  for (int iteration = 0; iteration < max_iterations; ++iteration) {
    bool any_active = false;
    for (char a : *active) {
      if (a) {
        any_active = true;
        break;
      }
    }
    if (!any_active) break;
    if (ctx.tracer().enabled()) {
      // Traced-only occupancy probe: count of active vertices feeding
      // this iteration's full-edge-table triplet scan.
      std::int64_t active_count = 0;
      for (char a : *active) active_count += a ? 1 : 0;
      ctx.tracer().AnnotateActive(active_count);
    }

    // Triplet phase: the FULL edge table is scanned (GraphX cannot skip
    // inactive triplets without a full pass). The scan runs host-parallel
    // over edge slices; the shuffle drains per-slot outputs in slot
    // order, which reproduces the serial emission sequence exactly.
    std::span<const Edge> edges = graph.edges();
    emitted.Reset(exec::ExecContext::NumSlots(
        static_cast<std::int64_t>(edges.size())));
    exec::parallel_for(
        ctx.exec(), 0, static_cast<std::int64_t>(edges.size()),
        [&](const exec::Slice& slice) {
          std::vector<MessageRow>& out = emitted.buf(slice.slot);
          for (std::int64_t e = slice.begin; e < slice.end; ++e) {
            const Edge& edge = edges[e];
            if ((*active)[edge.source]) {
              auto value =
                  send((*state)[edge.source], edge, /*forward=*/true);
              if (value) out.push_back({edge.target, *value});
            }
            const bool evaluate_reverse =
                !graph.is_directed() || reverse_sends;
            if (evaluate_reverse && (*active)[edge.target]) {
              auto value =
                  send((*state)[edge.target], edge, /*forward=*/false);
              if (value) out.push_back({edge.source, *value});
            }
          }
        });
    runtime.ChargeRows(graph.edges().size() * 2, row_op_factor);
    runtime.Shuffle(emitted, &messages, row_bytes);

    // Reduce by key + join: produces a brand-new vertex table, one
    // vertex per loop index, each merging its group in shuffle order.
    // The retained shuffle buffers hold the post-combine rows (one per
    // distinct destination; GraphX's aggregateMessages combines
    // map-side), not the raw message multiset.
    const std::vector<std::size_t>& offsets = runtime.group_offsets();
    next_active.resize(state->size());
    const std::size_t groups = exec::parallel_reduce(
        ctx.exec(), 0, static_cast<std::int64_t>(state->size()),
        std::size_t{0},
        [&](const exec::Slice& slice, std::size_t& count) {
          for (VertexIndex v = slice.begin; v < slice.end; ++v) {
            std::size_t i = offsets[v];
            const std::size_t end = offsets[v + 1];
            bool changed = false;
            if (i < end) {
              double combined = messages[i].value;
              for (++i; i < end; ++i) {
                combined = merge(combined, messages[i].value);
              }
              changed = apply(v, &(*state)[v], combined);
              ++count;
            }
            next_active[v] = changed ? 1 : 0;
          }
        },
        [](std::size_t& into, std::size_t from) { into += from; },
        &group_counts);
    runtime.ChargeRows(messages.size() + state->size());
    GA_RETURN_IF_ERROR(runtime.ChargeIterationBuffers(
        groups + state->size(), row_bytes));
    active->swap(next_active);
    GA_RETURN_IF_ERROR(ctx.EndSuperstep(label));
  }
  runtime.ReleaseIterationBuffers();
  return Status::Ok();
}

Result<AlgorithmOutput> RunBfs(JobContext& ctx, const Graph& graph,
                               VertexIndex root) {
  DataflowRuntime runtime(ctx, graph);
  const VertexIndex n = graph.num_vertices();
  std::vector<double> state(n, static_cast<double>(kUnreachableHops));
  std::vector<char> active(n, 0);
  state[root] = 0;
  active[root] = 1;
  GA_RETURN_IF_ERROR(RunGraphxPregel(
      ctx, graph, runtime, &state, &active, static_cast<int>(n) + 1,
      /*reverse_sends=*/false, kRowBytes, 1.0, "bfs",
      [&](double source_state, const Edge&, bool) -> std::optional<double> {
        return source_state + 1.0;
      },
      [](double a, double b) { return std::min(a, b); },
      [](VertexIndex, double* value, double merged) {
        if (merged < *value) {
          *value = merged;
          return true;
        }
        return false;
      }));
  AlgorithmOutput output;
  output.algorithm = Algorithm::kBfs;
  output.int_values.resize(n);
  for (VertexIndex v = 0; v < n; ++v) {
    // Compare in double space: the unreachable sentinel exceeds the exact
    // double range and must not be cast back to int64.
    output.int_values[v] = state[v] >= 1e15
                               ? kUnreachableHops
                               : static_cast<std::int64_t>(state[v]);
  }
  return output;
}

Result<AlgorithmOutput> RunSssp(JobContext& ctx, const Graph& graph,
                                VertexIndex root) {
  DataflowRuntime runtime(ctx, graph);
  const VertexIndex n = graph.num_vertices();
  std::vector<double> state(n, kUnreachableDistance);
  std::vector<char> active(n, 0);
  state[root] = 0.0;
  active[root] = 1;
  GA_RETURN_IF_ERROR(RunGraphxPregel(
      ctx, graph, runtime, &state, &active, static_cast<int>(n) + 1,
      /*reverse_sends=*/false, kRowBytes, 1.0, "sssp",
      [&](double source_state, const Edge& edge,
          bool) -> std::optional<double> {
        return source_state + edge.weight;
      },
      [](double a, double b) { return std::min(a, b); },
      [](VertexIndex, double* value, double merged) {
        if (merged < *value) {
          *value = merged;
          return true;
        }
        return false;
      }));
  AlgorithmOutput output;
  output.algorithm = Algorithm::kSssp;
  output.double_values = std::move(state);
  return output;
}

Result<AlgorithmOutput> RunWcc(JobContext& ctx, const Graph& graph) {
  DataflowRuntime runtime(ctx, graph);
  const VertexIndex n = graph.num_vertices();
  std::vector<double> state(n);
  for (VertexIndex v = 0; v < n; ++v) {
    state[v] = static_cast<double>(graph.ExternalId(v));
  }
  std::vector<char> active(n, 1);
  GA_RETURN_IF_ERROR(RunGraphxPregel(
      ctx, graph, runtime, &state, &active, static_cast<int>(n) + 1,
      /*reverse_sends=*/true, kRowBytes, 1.0, "wcc",
      [&](double source_state, const Edge&, bool) -> std::optional<double> {
        return source_state;
      },
      [](double a, double b) { return std::min(a, b); },
      [](VertexIndex, double* value, double merged) {
        if (merged < *value) {
          *value = merged;
          return true;
        }
        return false;
      }));
  AlgorithmOutput output;
  output.algorithm = Algorithm::kWcc;
  output.int_values.resize(n);
  for (VertexIndex v = 0; v < n; ++v) {
    output.int_values[v] = static_cast<std::int64_t>(state[v]);
  }
  return output;
}

Result<AlgorithmOutput> RunPageRank(JobContext& ctx, const Graph& graph,
                                    int iterations, double damping) {
  DataflowRuntime runtime(ctx, graph);
  const VertexIndex n = graph.num_vertices();
  AlgorithmOutput output;
  output.algorithm = Algorithm::kPageRank;
  output.double_values.assign(n, n > 0 ? 1.0 / static_cast<double>(n) : 0.0);
  if (n == 0) return output;
  std::vector<double>& rank = output.double_values;
  std::vector<MessageRow> messages;
  exec::SlotBuffers<MessageRow> emitted;
  std::vector<double> next;
  std::vector<double> dangling_scratch;

  for (int iteration = 0; iteration < iterations; ++iteration) {
    const double dangling = exec::parallel_reduce(
        ctx.exec(), 0, n, 0.0,
        [&](const exec::Slice& slice, double& acc) {
          for (VertexIndex v = slice.begin; v < slice.end; ++v) {
            if (graph.OutDegree(v) == 0) acc += rank[v];
          }
        },
        [](double& into, double from) { into += from; },
        &dangling_scratch);
    std::span<const Edge> edges = graph.edges();
    emitted.Reset(exec::ExecContext::NumSlots(
        static_cast<std::int64_t>(edges.size())));
    exec::parallel_for(
        ctx.exec(), 0, static_cast<std::int64_t>(edges.size()),
        [&](const exec::Slice& slice) {
          std::vector<MessageRow>& out = emitted.buf(slice.slot);
          for (std::int64_t e = slice.begin; e < slice.end; ++e) {
            const Edge& edge = edges[e];
            out.push_back(
                {edge.target,
                 rank[edge.source] /
                     static_cast<double>(graph.OutDegree(edge.source))});
            if (!graph.is_directed()) {
              out.push_back(
                  {edge.source,
                   rank[edge.target] /
                       static_cast<double>(graph.OutDegree(edge.target))});
            }
          }
        });
    runtime.ChargeRows(graph.edges().size() * 2);
    // PageRank scatters along every edge, and GraphX materialises the
    // rank-joined triplet messages *before* the reduce can shrink them —
    // the per-iteration buffer holds the raw message multiset. This is
    // why PR needs 4 machines on D1000 where BFS needs only 2 (§4.4).
    GA_RETURN_IF_ERROR(runtime.ChargeIterationBuffers(
        emitted.TotalSize() + static_cast<std::uint64_t>(n), kRowBytes));
    runtime.Shuffle(emitted, &messages);

    const double base = (1.0 - damping) / static_cast<double>(n) +
                        damping * dangling / static_cast<double>(n);
    // Reduce by key, one vertex per loop index: each vertex sums its
    // group in shuffle order, the same additions in the same order at
    // any host thread count.
    const std::vector<std::size_t>& offsets = runtime.group_offsets();
    next.resize(n);
    exec::parallel_for(ctx.exec(), 0, n, [&](const exec::Slice& slice) {
      for (VertexIndex v = slice.begin; v < slice.end; ++v) {
        double sum = base;
        for (std::size_t i = offsets[v]; i < offsets[v + 1]; ++i) {
          sum += damping * messages[i].value;
        }
        next[v] = sum;
      }
    });
    runtime.ChargeRows(messages.size() + n);
    if (ctx.tracer().enabled()) {
      // Traced-only convergence probe: L1 delta between successive
      // rank vectors, observed before the swap installs the update.
      double residual = 0.0;
      for (VertexIndex v = 0; v < n; ++v) {
        residual += std::abs(next[v] - rank[v]);
      }
      ctx.tracer().AnnotateResidual(residual);
      ctx.tracer().AnnotateActive(n);
    }
    rank.swap(next);
    GA_RETURN_IF_ERROR(ctx.EndSuperstep("pr"));
  }
  runtime.ReleaseIterationBuffers();
  return output;
}

Result<AlgorithmOutput> RunCdlp(JobContext& ctx, const Graph& graph,
                                int iterations) {
  DataflowRuntime runtime(ctx, graph);
  const VertexIndex n = graph.num_vertices();
  AlgorithmOutput output;
  output.algorithm = Algorithm::kCdlp;
  output.int_values.resize(n);
  for (VertexIndex v = 0; v < n; ++v) {
    output.int_values[v] = graph.ExternalId(v);
  }
  std::vector<MessageRow> messages;
  exec::SlotBuffers<MessageRow> emitted;
  exec::LabelCounter votes;
  std::vector<std::int64_t> next;

  for (int iteration = 0; iteration < iterations; ++iteration) {
    std::span<const Edge> edges = graph.edges();
    emitted.Reset(exec::ExecContext::NumSlots(
        static_cast<std::int64_t>(edges.size())));
    exec::parallel_for(
        ctx.exec(), 0, static_cast<std::int64_t>(edges.size()),
        [&](const exec::Slice& slice) {
          std::vector<MessageRow>& out = emitted.buf(slice.slot);
          for (std::int64_t e = slice.begin; e < slice.end; ++e) {
            const Edge& edge = edges[e];
            // Labels travel both ways: along the edge and its reverse
            // (for directed graphs each direction is a separate vote).
            out.push_back({edge.target,
                           static_cast<double>(
                               output.int_values[edge.source])});
            out.push_back({edge.source,
                           static_cast<double>(
                               output.int_values[edge.target])});
          }
        });
    // groupByKey: no map-side combine exists for the mode aggregation, so
    // the full label multiset is shuffled and grouped (the reason GraphX
    // cannot complete CDLP in the paper, §4.2).
    runtime.ChargeRows(graph.edges().size() * 2, 4.0);
    GA_RETURN_IF_ERROR(
        runtime.ChargeIterationBuffers(emitted.TotalSize() + n, kCdlpRowBytes));
    runtime.Shuffle(emitted, &messages, kCdlpRowBytes);

    next.assign(output.int_values.begin(), output.int_values.end());
    std::size_t i = 0;
    while (i < messages.size()) {
      const VertexIndex v = messages[i].dst;
      votes.Clear();
      std::size_t j = i;
      while (j < messages.size() && messages[j].dst == v) {
        votes.Add(static_cast<std::int64_t>(messages[j].value));
        ++j;
      }
      next[v] = votes.Mode();
      i = j;
    }
    runtime.ChargeRows(messages.size(), 4.0);
    output.int_values.swap(next);
    ctx.tracer().AnnotateActive(n);
    GA_RETURN_IF_ERROR(ctx.EndSuperstep("cdlp"));
  }
  runtime.ReleaseIterationBuffers();
  return output;
}

Result<AlgorithmOutput> RunLcc(JobContext& ctx, const Graph& graph) {
  DataflowRuntime runtime(ctx, graph);
  const VertexIndex n = graph.num_vertices();

  // The neighbourhood join materialises sum_v sum_{u in N(v)} deg(u) rows.
  // Charge that memory up front (computable in O(n)); on dense graphs this
  // is where the job dies, before any compute happens — as observed for
  // GraphX in the paper (§4.2).
  const double join_rows = exec::parallel_reduce(
      ctx.exec(), 0, n, 0.0,
      [&](const exec::Slice& slice, double& acc) {
        for (VertexIndex v = slice.begin; v < slice.end; ++v) {
          const double degree =
              static_cast<double>(graph.OutDegree(v)) +
              (graph.is_directed()
                   ? static_cast<double>(graph.InDegree(v))
                   : 0.0);
          acc += degree * degree;
        }
      },
      [](double& into, double from) { into += from; });
  GA_RETURN_IF_ERROR(runtime.ChargeIterationBuffers(
      static_cast<std::uint64_t>(join_rows), kRowBytes));

  AlgorithmOutput output;
  output.algorithm = Algorithm::kLcc;
  output.double_values.assign(n, 0.0);
  // Host-parallel degree-oriented triangle counting over the sorted CSR
  // (algo/lcc_kernel.h); the scanned-row counts charged per slot keep the
  // modeled join's flag-scan volume, so the simulated cost is unchanged.
  lcc::NeighborhoodIndex index;
  index.Build(ctx.exec(), graph);
  std::vector<std::int64_t> links;
  index.CountLinks(ctx.exec(), &links);
  const int num_slots =
      exec::ExecContext::NumSlots(n, exec::ExecContext::kScratchSlots);
  std::vector<std::uint64_t> slot_scanned(std::max(num_slots, 1), 0);
  exec::parallel_for(
      ctx.exec(), 0, n,
      [&](const exec::Slice& slice) {
    for (VertexIndex v = slice.begin; v < slice.end; ++v) {
      const std::span<const VertexIndex> neighborhood = index.Neighbors(v);
      if (neighborhood.size() < 2) continue;
      slot_scanned[slice.slot] += lcc::ScannedEdgesProxy(graph, neighborhood);
      output.double_values[v] = lcc::Coefficient(
          links[v], static_cast<std::int64_t>(neighborhood.size()));
    }
      },
      exec::ExecContext::kScratchSlots);
  for (int slot = 0; slot < num_slots; ++slot) {
    runtime.ChargeRows(slot_scanned[slot]);
  }
  GA_RETURN_IF_ERROR(ctx.EndSuperstep("lcc"));
  runtime.ReleaseIterationBuffers();
  return output;
}

}  // namespace

DataflowPlatform::DataflowPlatform() {
  info_ = PlatformInfo{"dataflow", "GraphX 1.6.0 (Apache Spark)",
                       "community", "Spark RDD dataflow (triplet joins)",
                       /*distributed=*/true};
  profile_.ops_per_edge = 4.0;
  profile_.ops_per_vertex = 8.0;
  profile_.ops_per_message = 10.0;  // per shuffle row
  profile_.ops_per_load_entry = 14.0;
  profile_.bytes_per_message = 40.0;
  profile_.startup_seconds = 164.0;
  profile_.superstep_overhead_seconds = 1.02;  // task scheduling per stage
  profile_.hyperthread_efficiency = 0.05;
  profile_.serial_fraction = 0.19;
  profile_.mem_bytes_per_vertex = 256.0;
  profile_.mem_bytes_per_entry = 46.0;
  profile_.mem_bytes_per_hub_degree = 4000.0;
  profile_.variability_cv = 0.026;
}

Result<AlgorithmOutput> DataflowPlatform::Execute(
    JobContext& ctx, const Graph& graph, Algorithm algorithm,
    const AlgorithmParams& params) {
  switch (algorithm) {
    case Algorithm::kBfs: {
      const VertexIndex root = graph.IndexOf(params.source_vertex);
      if (root == kInvalidVertex) {
        return Status::InvalidArgument("BFS source not in graph");
      }
      return RunBfs(ctx, graph, root);
    }
    case Algorithm::kPageRank:
      return RunPageRank(ctx, graph, params.pagerank_iterations,
                         params.damping_factor);
    case Algorithm::kWcc:
      return RunWcc(ctx, graph);
    case Algorithm::kCdlp:
      return RunCdlp(ctx, graph, params.cdlp_iterations);
    case Algorithm::kLcc:
      return RunLcc(ctx, graph);
    case Algorithm::kSssp: {
      const VertexIndex root = graph.IndexOf(params.source_vertex);
      if (root == kInvalidVertex) {
        return Status::InvalidArgument("SSSP source not in graph");
      }
      return RunSssp(ctx, graph, root);
    }
  }
  return Status::Internal("unknown algorithm");
}

}  // namespace ga::platform
