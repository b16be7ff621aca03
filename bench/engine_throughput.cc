// Engine-throughput microbenchmarks (google-benchmark): the PageRank, BFS,
// WCC, SSSP, CDLP and LCC kernels of all six platform engines, driven
// directly through Platform::ExecuteKernel — no startup/upload simulation,
// no Granula tree, no memory accounting — so the numbers isolate the real
// data path this repo's perf work targets (arena messaging, pooled scratch,
// hybrid frontiers; DESIGN.md §8-§9).
//
// Output: the usual google-benchmark console table, plus a JSON trajectory
// point written to $GA_BENCH_OUT when it is set (no file otherwise, so a
// stray run cannot overwrite a committed trajectory point). Each kernel
// entry reports ns per full kernel run, supersteps per run, ns per
// superstep, and sweep throughput in adjacency entries per second (the
// per-superstep edge-traversal rate; meaningful for the full-sweep PR and
// CDLP kernels, a whole-traversal average for the frontier kernels).
//
// Flags: --filter=S1,S2,... keeps only kernels whose "platform/algo" name
// contains one of the substrings (cheaper than --benchmark_filter:
// unmatched kernels are never registered, so smoke runs stay fast — CI
// uses --filter=/bfs,/wcc,/sssp,/lcc). Reading the numbers:
// docs/BENCHMARK_GUIDE.md, "Reading the micro and engine benchmarks". CI
// runs the traversal kernels in smoke mode (--benchmark_min_time=0.05s)
// and uploads the JSON as an artifact.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/json_writer.h"
#include "datagen/graph500.h"
#include "platforms/platform.h"
#include "sysmodel/cluster.h"

namespace ga::bench {
namespace {

// One R-MAT graph shared by every kernel: skewed degrees (the shape that
// stresses per-vertex message buffers, frontier direction switches and
// CDLP histograms), directed so both adjacency directions are exercised,
// weighted so SSSP runs too.
const Graph& BenchGraph() {
  static const Graph graph = [] {
    datagen::Graph500Config config;
    config.scale = 12;
    config.num_edges = 60000;
    config.directedness = Directedness::kDirected;
    config.weighted = true;
    config.seed = 7;
    auto built = datagen::GenerateGraph500(config);
    if (!built.ok()) {
      std::fprintf(stderr, "bench graph generation failed: %s\n",
                   built.status().message().c_str());
      std::abort();
    }
    return std::move(built).value();
  }();
  return graph;
}

struct KernelCase {
  std::string platform;
  Algorithm algorithm;
  const char* algorithm_name;
};

AlgorithmParams BenchParams(const Graph& graph) {
  AlgorithmParams params;
  params.source_vertex = graph.ExternalId(0);
  params.pagerank_iterations = 10;
  params.cdlp_iterations = 5;
  return params;
}

void RunKernel(benchmark::State& state, const KernelCase& kernel) {
  const Graph& graph = BenchGraph();
  auto platform = platform::CreatePlatform(kernel.platform);
  if (!platform.ok()) {
    state.SkipWithError("unknown platform");
    return;
  }
  const AlgorithmParams params = BenchParams(graph);
  platform::ExecutionEnvironment env;
  env.host_pool = nullptr;  // single-threaded: the wins must be local
  const platform::CostProfile& profile = platform.value()->profile();
  sysmodel::ClusterModel cluster(platform::MakeClusterConfig(env, profile));

  std::int64_t supersteps = 0;
  for (auto _ : state) {
    platform::JobContext ctx(cluster, /*memory=*/nullptr, profile,
                             /*processing_op=*/nullptr, env);
    auto output =
        platform.value()->ExecuteKernel(ctx, graph, kernel.algorithm, params);
    if (!output.ok()) {
      state.SkipWithError(output.status().message().c_str());
      return;
    }
    benchmark::DoNotOptimize(output.value());
    supersteps = ctx.supersteps();
  }
  state.counters["supersteps"] = static_cast<double>(supersteps);
  // Adjacency entries touched per full-graph sweep; the per-superstep
  // traversal rate for PR/CDLP.
  state.SetItemsProcessed(state.iterations() * supersteps *
                          graph.num_adjacency_entries());
}

/// --filter grammar: comma-separated substrings; a kernel registers when
/// its "platform/algo" name contains any of them.
bool MatchesFilter(const std::string& name, const std::string& filter) {
  if (filter.empty()) return true;
  std::size_t begin = 0;
  while (begin <= filter.size()) {
    const std::size_t comma = filter.find(',', begin);
    const std::size_t end = comma == std::string::npos ? filter.size() : comma;
    if (end > begin &&
        name.find(filter.substr(begin, end - begin)) != std::string::npos) {
      return true;
    }
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return false;
}

std::vector<KernelCase> AllKernels(const std::string& filter) {
  static constexpr struct {
    Algorithm algorithm;
    const char* name;
  } kAlgorithms[] = {
      {Algorithm::kPageRank, "pr"}, {Algorithm::kBfs, "bfs"},
      {Algorithm::kWcc, "wcc"},     {Algorithm::kSssp, "sssp"},
      {Algorithm::kCdlp, "cdlp"},   {Algorithm::kLcc, "lcc"},
  };
  platform::ExecutionEnvironment env;
  env.host_pool = nullptr;
  std::vector<KernelCase> kernels;
  for (const std::string& id : platform::AllPlatformIds()) {
    auto platform = platform::CreatePlatform(id);
    if (!platform.ok()) continue;
    for (const auto& algorithm : kAlgorithms) {
      if (!platform.value()->SupportsAlgorithm(algorithm.algorithm, env)) {
        continue;  // e.g. pushpull has no LCC ("NA" in Figure 6)
      }
      const std::string name = id + "/" + algorithm.name;
      if (!MatchesFilter(name, filter)) continue;
      kernels.push_back({id, algorithm.algorithm, algorithm.name});
    }
  }
  return kernels;
}

/// Console output as usual, plus a collected copy of every finished run
/// for the JSON trajectory point.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  struct Sample {
    std::string name;
    double ns_per_run = 0.0;
    double supersteps = 0.0;
    double items_per_second = 0.0;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.iterations == 0) continue;
      Sample sample;
      sample.name = run.benchmark_name();
      sample.ns_per_run = run.real_accumulated_time /
                          static_cast<double>(run.iterations) * 1e9;
      auto supersteps = run.counters.find("supersteps");
      if (supersteps != run.counters.end()) {
        sample.supersteps = supersteps->second.value;
      }
      auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        sample.items_per_second = items->second.value;
      }
      samples_.push_back(std::move(sample));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<Sample>& samples() const { return samples_; }

 private:
  std::vector<Sample> samples_;
};

int WriteJson(const std::string& path, const Graph& graph,
              const std::vector<CollectingReporter::Sample>& samples) {
  JsonWriter json;
  json.BeginObject();
  json.Field("bench", "engine_throughput");
  json.Field("trajectory_point", "PR4");
  json.Key("config").BeginObject();
  json.Field("graph",
             "graph500 scale=12 edges=60000 directed weighted seed=7");
  json.Field("vertices", static_cast<std::int64_t>(graph.num_vertices()));
  json.Field("adjacency_entries",
             static_cast<std::int64_t>(graph.num_adjacency_entries()));
  json.Field("pagerank_iterations", 10);
  json.Field("cdlp_iterations", 5);
  json.Field("host_threads", 1);
  json.EndObject();
  json.Key("kernels").BeginArray();
  for (const auto& sample : samples) {
    json.BeginObject();
    json.Field("name", sample.name);
    json.Field("ns_per_run", sample.ns_per_run);
    json.Field("supersteps_per_run", sample.supersteps);
    json.Field("ns_per_superstep",
               sample.supersteps > 0 ? sample.ns_per_run / sample.supersteps
                                     : sample.ns_per_run);
    json.Field("sweep_entries_per_sec", sample.items_per_second);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fputs(json.str().c_str(), out);
  std::fputc('\n', out);
  std::fclose(out);
  std::printf("\nwrote %s (%zu kernels)\n", path.c_str(), samples.size());
  return 0;
}

}  // namespace
}  // namespace ga::bench

int main(int argc, char** argv) {
  // Pull out --filter before google-benchmark parses the rest.
  std::string filter;
  int argc_out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--filter=", 9) == 0) {
      filter = argv[i] + 9;
    } else {
      argv[argc_out++] = argv[i];
    }
  }
  argc = argc_out;
  benchmark::Initialize(&argc, argv);
  for (const auto& kernel : ga::bench::AllKernels(filter)) {
    benchmark::RegisterBenchmark(
        (kernel.platform + "/" + kernel.algorithm_name).c_str(),
        [kernel](benchmark::State& state) {
          ga::bench::RunKernel(state, kernel);
        });
  }
  ga::bench::CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const char* out = std::getenv("GA_BENCH_OUT");
  if (out == nullptr || *out == '\0') return 0;
  return ga::bench::WriteJson(out, ga::bench::BenchGraph(),
                              reporter.samples());
}
