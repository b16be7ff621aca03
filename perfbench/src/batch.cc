// The batch workloads: the job matrix through BenchmarkRunner, one fresh
// runner per pass as in one CLI call.
#include "workloads.h"

namespace perfbench {

int RunBatch(const Options& options, const BatchShape& shape) {
  Report report;
  const std::string cache_dir = options.work_dir + "/cache";
  const ga::harness::BenchmarkConfig config =
      MakeConfig(options, shape.divisor, /*host_jobs=*/4, cache_dir);
  const std::vector<Cell> cells = MatrixCells(shape.datasets, shape.divisor);
  Log("%s: %zu cells on %zu datasets at divisor %lld", options.workload.c_str(),
      cells.size(), shape.datasets.size(),
      static_cast<long long>(shape.divisor));

  if (options.trace) {
    SpanLog log;
    TraceLayers(options, config, shape.datasets, cells, shape.warmup_passes,
                &log, &report);
    report.Print();
    return 0;
  }

  const double setup_s = MedianOf(shape.setup_reps, [&] {
    return SetupDatasets(config, shape.datasets);
  });
  Verdicts& verdicts = report.verdicts();
  for (int i = 0; i < shape.warmup_passes; ++i) {
    RunMatrixPass(config, cells, &verdicts);
  }
  std::vector<PassResult> passes;
  const std::int64_t start = SteadyNowNs();
  while (static_cast<int>(passes.size()) < kMinPasses ||
         SecondsSince(start) < options.seconds) {
    passes.push_back(RunMatrixPass(config, cells, &verdicts));
  }
  const MatrixSummary summary = Summarize(passes, cells);
  Log("%zu passes", passes.size());
  report.Add("setup_s", setup_s, "s");
  report.Add("matrix_s", summary.matrix_s, "s");
  report.Add("cell_geomean_ms", summary.cell_geomean_ms, "ms");
  report.Add("peak_rss_mb", PeakRssMb(), "MiB");
  report.Print();
  return 0;
}

}  // namespace perfbench
