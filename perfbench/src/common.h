// Shared pieces of the benchmark program: options, the result line, the
// job matrix with its expected verdicts, dataset set-up, and the traced
// replay of BenchmarkRunner::Run.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/types.h"
#include "harness/config.h"
#include "harness/runner.h"
#include "stats.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for snapshot caches; wiped and reused.
  std::string work_dir;
  /// Where the traced run writes its spans (empty: not written).
  std::string trace_out;
};

/// Collects the run's metrics and verdicts and prints the final line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// A metric printed with the report but kept out of the result line:
  /// the workload-specific figures (the serve ladder) that not every
  /// workload can report.
  void Extra(const std::string& name, double value, const std::string& unit,
             const std::string& note = "");
  Verdicts& verdicts() { return verdicts_; }
  /// Prints `name = value unit` for every metric, the failure count, and
  /// as the last line the JSON object the benchmark contract asks for.
  void Print() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  std::vector<std::string> extras_;
  Verdicts verdicts_;
};

/// Progress and diagnostics go to stderr; stdout carries the report.
void Log(const char* format, ...) __attribute__((format(printf, 1, 2)));

double PeakRssMb();
double SecondsSince(std::int64_t start_ns);

/// Benchmark configuration for a workload: the workload seed seeds every
/// dataset; validation stays on and faults, checkpoints and tracing off.
ga::harness::BenchmarkConfig MakeConfig(const Options& options,
                                        std::int64_t divisor, int host_jobs,
                                        const std::string& data_dir);

/// One cell of a job matrix and the verdict it is expected to get.
struct Cell {
  std::string platform;
  std::string dataset;
  ga::Algorithm algorithm = ga::Algorithm::kBfs;
  ga::harness::JobOutcome expected = ga::harness::JobOutcome::kCompleted;
};

/// Every engine x every algorithm on `datasets`, SSSP only on weighted
/// graphs (the Graphalytics rule), each with its expected verdict.
std::vector<Cell> MatrixCells(const std::vector<std::string>& datasets,
                              std::int64_t divisor);

std::string CellName(const Cell& cell);

/// Wipes `config.data_dir`, generates every dataset into it (snapshot
/// write included), then reloads each from a fresh registry (the
/// checksum-verified warm path). Returns the wall seconds.
double SetupDatasets(const ga::harness::BenchmarkConfig& config,
                     const std::vector<std::string>& datasets);

/// Runs `body` `reps` times and returns the median of what it returns.
template <typename Body>
double MedianOf(int reps, Body&& body) {
  std::vector<double> values;
  for (int i = 0; i < reps; ++i) values.push_back(body());
  return Median(values);
}

/// Passes measured per run even when they outlast --seconds: enough for
/// a per-cell median to drop one pass hit by a burst of outside load.
constexpr int kMinPasses = 3;

/// One untraced pass of the matrix through a fresh BenchmarkRunner, as
/// one CLI call runs it. Counts each cell's verdict into `verdicts`.
struct PassResult {
  double wall_s = 0.0;
  /// Per-cell Run wall in ms, in cell order (0 for cells that errored).
  std::vector<double> cell_ms;
};
PassResult RunMatrixPass(const ga::harness::BenchmarkConfig& config,
                         const std::vector<Cell>& cells, Verdicts* verdicts);

/// The median pass, cell by cell, so a burst of outside load during one
/// pass moves only the cells it hit: matrix_s is the sum of each cell's
/// median Run wall plus the median of the rest of a pass (runner
/// construction); cell_geomean_ms is the geometric mean of the median
/// walls of the cells expected to complete.
struct MatrixSummary {
  double matrix_s = 0.0;
  double cell_geomean_ms = 0.0;
};
MatrixSummary Summarize(const std::vector<PassResult>& passes,
                        const std::vector<Cell>& cells);

/// The traced replay: each cell the way BenchmarkRunner::Run runs it
/// (resolve; CreatePlatform + RunJob; reference on first use per dataset
/// and algorithm; validate), then serialize (FormatOutput + Fnv1a64),
/// with a span around each layer call.
struct ReplayResult {
  /// Output fingerprint of each completed cell (hex FNV-1a 64), by
  /// CellName.
  std::map<std::string, std::string> fingerprints;
  std::uint64_t loops = 0;
  std::uint64_t chunks = 0;
  std::int64_t busy_ns = 0;
  std::uint64_t steals = 0;
  std::int64_t run_job_ns = 0;
  int host_threads = 0;
  /// Index of each cell's job span in the log.
  std::vector<int> job_span;
};
/// Span ops are `op_base` + the cell's index.
ReplayResult ReplayPass(const ga::harness::BenchmarkConfig& config,
                        const std::vector<Cell>& cells, std::int64_t op_base,
                        SpanLog* log, Verdicts* verdicts);

/// Per-layer metrics every workload's traced run reports: the exec
/// probe, datagen/store timings on `datasets`, then untraced passes of
/// `cells` interleaved with traced replays (at least kMinPasses pairs, and
/// for --seconds), and one untraced pass at 1 host thread. Prints the
/// attribution report, writes the spans, and returns the last replay
/// (for its fingerprints).
ReplayResult TraceLayers(const Options& options,
                         const ga::harness::BenchmarkConfig& config,
                         const std::vector<std::string>& datasets,
                         const std::vector<Cell>& cells, int warmup_passes,
                         SpanLog* log, Report* report);

/// Whether a cell's outcome matches the expected verdict.
bool VerdictMatches(const Cell& cell, const ga::harness::JobReport& report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
