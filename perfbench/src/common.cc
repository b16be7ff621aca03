#include "common.h"

#include <sys/resource.h>

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>

#include "algo/output.h"
#include "algo/reference.h"
#include "core/exec/exec.h"
#include "harness/dataset_registry.h"
#include "platforms/platform.h"
#include "store/dataset_cache.h"
#include "store/snapshot.h"

namespace perfbench {

using ga::Algorithm;
using ga::harness::BenchmarkConfig;
using ga::harness::JobOutcome;

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Extra(const std::string& name, double value,
                   const std::string& unit, const std::string& note) {
  char line[256];
  std::snprintf(line, sizeof(line), "%-34s %.6g %s%s%s", name.c_str(), value,
                unit.c_str(), note.empty() ? "" : "  ", note.c_str());
  extras_.push_back(line);
}

void Report::Print() const {
  for (const std::string& line : extras_) std::printf("%s\n", line.c_str());
  for (const auto& [name, metric] : metrics_) {
    std::printf("%-34s %.6g %s\n", name.c_str(), metric.first,
                metric.second.c_str());
  }
  std::printf("%-34s %.6g ratio (%lld of %lld operations deviated)\n",
              "failed_ratio", verdicts_.failed_ratio(),
              static_cast<long long>(verdicts_.failed),
              static_cast<long long>(verdicts_.attempted));
  std::string json = "{\"correct\": ";
  json += verdicts_.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(verdicts_.attempted);
  json += ", \"failed\": " + std::to_string(verdicts_.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].second.first);
    json += (i == 0 ? "\"" : ", \"") + metrics_[i].first +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            metrics_[i].second.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void Log(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fputc('\n', stderr);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(SteadyNowNs() - start_ns) / 1e9;
}

namespace {

[[noreturn]] void Fatal(const std::string& what) {
  Log("perfbench: %s", what.c_str());
  std::exit(2);
}

// Cells that do not complete, by divisor, as fixed when the benchmark
// was defined. Everything
// else is expected to complete with a validated output. The verdicts
// come from the engines' simulated memory model (crashed = out of
// memory) and their feature sets (unsupported), so they do not depend
// on the workload seed.
const std::set<std::string>& Crashed(std::int64_t divisor) {
  static const std::set<std::string> k1024 = {
      "dataflow/R2/lcc", "spmat/R2/lcc",   "dataflow/R4/cdlp",
      "bsplite/R4/lcc",  "dataflow/R4/lcc", "spmat/R4/lcc",
      "dataflow/G22/cdlp", "bsplite/G22/lcc", "dataflow/G22/lcc",
      "spmat/G22/lcc"};
  static const std::set<std::string> k64 = {
      "dataflow/R4/cdlp", "bsplite/R4/lcc",    "dataflow/R4/lcc",
      "spmat/R4/lcc",     "dataflow/G22/cdlp", "bsplite/G22/lcc",
      "dataflow/G22/lcc", "spmat/G22/lcc"};
  static const std::set<std::string> kNone;
  if (divisor == 1024) return k1024;
  if (divisor == 64) return k64;
  return kNone;
}

JobOutcome OutcomeForStatus(ga::StatusCode code) {
  switch (code) {
    case ga::StatusCode::kOutOfMemory:
    case ga::StatusCode::kAborted:
      return JobOutcome::kCrashed;
    case ga::StatusCode::kDeadlineExceeded:
      return JobOutcome::kTimedOut;
    case ga::StatusCode::kUnsupported:
      return JobOutcome::kUnsupported;
    default:
      return JobOutcome::kFailed;
  }
}

std::string FnvHex(const std::string& text) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(
                    ga::store::Fnv1a64(text.data(), text.size())));
  return hex;
}

/// µs per empty 32-slot parallel_for, median of 9 batches.
double DispatchMicros(ga::exec::ThreadPool* pool) {
  ga::exec::ExecContext ctx(pool);
  constexpr std::int64_t kItems = 32 * ga::exec::ExecContext::kMinGrain;
  const auto body = [](const ga::exec::Slice& slice) {
    asm volatile("" : : "r"(slice.begin) : "memory");
  };
  const int calls = pool == nullptr ? 20000 : 2000;
  for (int i = 0; i < calls / 10; ++i) ga::exec::parallel_for(ctx, 0, kItems, body);
  return MedianOf(9, [&] {
    const std::int64_t start = SteadyNowNs();
    for (int i = 0; i < calls; ++i) ga::exec::parallel_for(ctx, 0, kItems, body);
    return static_cast<double>(SteadyNowNs() - start) / 1e3 / calls;
  });
}

}  // namespace

BenchmarkConfig MakeConfig(const Options& options, std::int64_t divisor,
                           int host_jobs, const std::string& data_dir) {
  BenchmarkConfig config;
  config.scale_divisor = divisor;
  config.seed = options.seed;
  config.host_jobs = host_jobs;
  config.data_dir = data_dir;
  return config;
}

std::string CellName(const Cell& cell) {
  return cell.platform + "/" + cell.dataset + "/" +
         std::string(ga::AlgorithmName(cell.algorithm));
}

std::vector<Cell> MatrixCells(const std::vector<std::string>& datasets,
                              std::int64_t divisor) {
  BenchmarkConfig config;
  config.scale_divisor = divisor;
  ga::harness::DatasetRegistry catalogue(config);
  std::vector<Cell> cells;
  for (const std::string& dataset : datasets) {
    auto spec = catalogue.Find(dataset);
    if (!spec.ok()) Fatal(spec.status().ToString());
    for (Algorithm algorithm : ga::kAllAlgorithms) {
      if (algorithm == Algorithm::kSssp && !spec->weighted) continue;
      for (const std::string& platform : ga::platform::AllPlatformIds()) {
        Cell cell{platform, dataset, algorithm, JobOutcome::kCompleted};
        if (platform == "pushpull" && algorithm == Algorithm::kLcc) {
          cell.expected = JobOutcome::kUnsupported;
        } else if (Crashed(divisor).count(CellName(cell)) != 0) {
          cell.expected = JobOutcome::kCrashed;
        }
        cells.push_back(cell);
      }
    }
  }
  return cells;
}

bool VerdictMatches(const Cell& cell, const ga::harness::JobReport& report) {
  const bool matches =
      report.outcome == cell.expected &&
      (report.outcome != JobOutcome::kCompleted || report.output_validated);
  if (!matches) {
    Log("deviation: %s expected %s, got %s%s %s", CellName(cell).c_str(),
        std::string(ga::harness::JobOutcomeName(cell.expected)).c_str(),
        std::string(ga::harness::JobOutcomeName(report.outcome)).c_str(),
        report.output_validated ? " (validated)" : "",
        report.failure.c_str());
  }
  return matches;
}

double SetupDatasets(const BenchmarkConfig& config,
                     const std::vector<std::string>& datasets) {
  std::error_code ignored;
  std::filesystem::remove_all(config.data_dir, ignored);
  const std::int64_t start = SteadyNowNs();
  {
    ga::exec::ThreadPool pool(config.host_jobs);
    ga::harness::DatasetRegistry registry(config);
    registry.set_host_pool(&pool);
    for (const std::string& dataset : datasets) {
      auto graph = registry.Load(dataset);
      if (!graph.ok()) Fatal(dataset + ": " + graph.status().ToString());
      auto path = registry.SnapshotPathFor(dataset);
      if (!path.ok() || !std::filesystem::exists(*path)) {
        Fatal(dataset + ": snapshot was not written");
      }
    }
  }
  ga::harness::DatasetRegistry warm(config);
  for (const std::string& dataset : datasets) {
    auto graph = warm.Load(dataset);
    if (!graph.ok()) Fatal(dataset + ": " + graph.status().ToString());
  }
  return SecondsSince(start);
}

MatrixSummary Summarize(const std::vector<PassResult>& passes,
                        const std::vector<Cell>& cells) {
  std::vector<double> rest_s;
  for (const PassResult& pass : passes) {
    double cells_s = 0.0;
    for (double ms : pass.cell_ms) cells_s += ms / 1e3;
    rest_s.push_back(pass.wall_s - cells_s);
  }
  MatrixSummary summary;
  summary.matrix_s = Median(rest_s);
  std::vector<double> completed_ms;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::vector<double> cell_ms;
    for (const PassResult& pass : passes) cell_ms.push_back(pass.cell_ms[i]);
    const double ms = Median(cell_ms);
    summary.matrix_s += ms / 1e3;
    if (cells[i].expected == JobOutcome::kCompleted) completed_ms.push_back(ms);
  }
  summary.cell_geomean_ms = GeoMean(completed_ms);
  return summary;
}

PassResult RunMatrixPass(const BenchmarkConfig& config,
                         const std::vector<Cell>& cells, Verdicts* verdicts) {
  PassResult pass;
  const std::int64_t start = SteadyNowNs();
  ga::harness::BenchmarkRunner runner(config);
  for (const Cell& cell : cells) {
    ga::harness::JobSpec spec;
    spec.platform_id = cell.platform;
    spec.dataset_id = cell.dataset;
    spec.algorithm = cell.algorithm;
    const std::int64_t cell_start = SteadyNowNs();
    auto report = runner.Run(spec);
    const double ms = static_cast<double>(SteadyNowNs() - cell_start) / 1e6;
    pass.cell_ms.push_back(report.ok() ? ms : 0.0);
    if (!report.ok()) {
      Log("deviation: %s: %s", CellName(cell).c_str(),
          report.status().ToString().c_str());
    }
    verdicts->Count(report.ok() && VerdictMatches(cell, *report));
  }
  pass.wall_s = SecondsSince(start);
  return pass;
}

ReplayResult ReplayPass(const BenchmarkConfig& config,
                        const std::vector<Cell>& cells, std::int64_t op_base,
                        SpanLog* log, Verdicts* verdicts) {
  ReplayResult result;
  ga::exec::ThreadPool pool(config.host_jobs);
  result.host_threads = pool.num_threads();
  ga::harness::DatasetRegistry registry(config);
  registry.set_host_pool(&pool);
  std::map<std::string, ga::AlgorithmOutput> references;

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const std::int64_t op = op_base + static_cast<std::int64_t>(i);
    const int job = log->Begin("job", -1, op);
    result.job_span.push_back(job);

    int span = log->Begin("harness.resolve", job, op);
    auto graph = registry.Load(cell.dataset);
    auto params = graph.ok() ? registry.ParamsFor(cell.dataset)
                             : ga::Result<ga::AlgorithmParams>(graph.status());
    log->End(span);
    if (!params.ok()) Fatal(CellName(cell) + ": " + params.status().ToString());

    span = log->Begin("platforms." + CellName(cell), job, op);
    auto platform = ga::platform::CreatePlatform(cell.platform);
    if (!platform.ok()) Fatal(platform.status().ToString());
    ga::platform::ExecutionEnvironment env;
    env.memory_budget_bytes = config.ScaledMemoryBudget();
    env.overhead_scale = 1.0 / static_cast<double>(config.scale_divisor);
    env.host_pool = &pool;
    ga::exec::CounterSheet sheet;
    sheet.Enable(/*retain_spans=*/false);
    env.metrics_sheet = &sheet;
    const std::uint64_t steal_base = pool.TotalSteals();
    const std::int64_t run_start = SteadyNowNs();
    auto run = (*platform)->RunJob(**graph, cell.algorithm, *params, env);
    result.run_job_ns += SteadyNowNs() - run_start;
    log->End(span);
    sheet.FlushStep(0, nullptr);
    result.loops += sheet.job_totals().loops;
    result.chunks += sheet.job_totals().chunks;
    result.busy_ns += sheet.job_totals().busy_ns;
    result.steals += pool.TotalSteals() - steal_base;

    ga::harness::JobReport report;
    if (!run.ok()) {
      report.outcome = OutcomeForStatus(run.status().code());
      report.failure = run.status().ToString();
    } else if (config.Project(run->metrics.makespan_sim_seconds) >
               config.sla_projected_seconds) {
      report.outcome = JobOutcome::kTimedOut;
    } else {
      const std::string key =
          cell.dataset + "/" + std::string(ga::AlgorithmName(cell.algorithm));
      auto cached = references.find(key);
      if (cached == references.end()) {
        span = log->Begin("algo.reference", job, op);
        auto reference =
            ga::reference::Run(**graph, cell.algorithm, *params, &pool);
        log->End(span);
        if (!reference.ok()) Fatal(key + ": " + reference.status().ToString());
        cached = references.emplace(key, std::move(*reference)).first;
      }
      span = log->Begin("algo.validate", job, op);
      ga::Status valid = ga::ValidateOutput(**graph, cached->second, run->output);
      log->End(span);
      report.outcome =
          valid.ok() ? JobOutcome::kCompleted : JobOutcome::kFailed;
      report.output_validated = valid.ok();
      if (!valid.ok()) report.failure = valid.ToString();
    }
    log->End(job);

    if (run.ok()) {
      // BenchmarkRunner::Run does not serialize; the serve path does.
      span = log->Begin("algo.serialize", -1, op);
      const std::string fingerprint =
          FnvHex(ga::FormatOutput(**graph, run->output));
      log->End(span);
      if (report.completed()) result.fingerprints[CellName(cell)] = fingerprint;
    }
    verdicts->Count(VerdictMatches(cell, report));
  }
  return result;
}

ReplayResult TraceLayers(const Options& options, const BenchmarkConfig& config,
                         const std::vector<std::string>& datasets,
                         const std::vector<Cell>& cells, int warmup_passes,
                         SpanLog* log, Report* report) {
  // exec: dispatch cost of an empty 32-slot loop, inline and pooled.
  report->Add("exec.dispatch_us.t1", DispatchMicros(nullptr), "us");
  {
    ga::exec::ThreadPool pool(4);
    report->Add("exec.dispatch_us.t4", DispatchMicros(&pool), "us");
  }

  // datagen and store, each timed on its own public entry point.
  double generate_s = 0.0;
  double write_s = 0.0;
  double load_s = 0.0;
  double bytes = 0.0;
  {
    BenchmarkConfig cold = config;
    cold.data_dir.clear();
    ga::exec::ThreadPool pool(config.host_jobs);
    ga::harness::DatasetRegistry registry(cold);
    registry.set_host_pool(&pool);
    ga::store::DatasetCache cache(options.work_dir + "/layer-store");
    for (const std::string& dataset : datasets) {
      std::int64_t start = SteadyNowNs();
      auto graph = registry.Load(dataset);
      generate_s += SecondsSince(start);
      if (!graph.ok()) Fatal(dataset + ": " + graph.status().ToString());
      ga::store::CacheKey key{"perfbench", dataset,
                              "seed=" + std::to_string(config.seed),
                              config.scale_divisor};
      start = SteadyNowNs();
      ga::Status stored = cache.Store(**graph, key);
      write_s += SecondsSince(start);
      if (!stored.ok()) Fatal(stored.ToString());
      start = SteadyNowNs();
      auto loaded = cache.Load(key);
      load_s += SecondsSince(start);
      if (!loaded.ok()) Fatal(loaded.status().ToString());
      bytes += static_cast<double>(std::filesystem::file_size(cache.PathFor(key)));
    }
  }
  SetupDatasets(config, datasets);

  // Untraced passes at 4 host threads interleaved with traced replays,
  // then one untraced pass at 1 host thread.
  Verdicts& verdicts = report->verdicts();
  for (int i = 0; i < warmup_passes; ++i) RunMatrixPass(config, cells, &verdicts);
  std::vector<PassResult> untraced;
  std::vector<ReplayResult> replays;
  const std::int64_t start = SteadyNowNs();
  while (static_cast<int>(replays.size()) < kMinPasses ||
         SecondsSince(start) < options.seconds) {
    untraced.push_back(RunMatrixPass(config, cells, &verdicts));
    replays.push_back(ReplayPass(config, cells,
                                 static_cast<std::int64_t>(replays.size() *
                                                           cells.size()),
                                 log, &verdicts));
  }
  BenchmarkConfig serial = config;
  serial.host_jobs = 1;
  const PassResult single = RunMatrixPass(serial, cells, &verdicts);

  const double passes = static_cast<double>(replays.size());
  std::vector<double> untraced_s;
  double busy_ns = 0.0;
  double run_job_ns = 0.0;
  double steals = 0.0;
  for (std::size_t k = 0; k < replays.size(); ++k) {
    untraced_s.push_back(untraced[k].wall_s);
    busy_ns += static_cast<double>(replays[k].busy_ns);
    run_job_ns += static_cast<double>(replays[k].run_job_ns);
    steals += static_cast<double>(replays[k].steals);
  }
  report->Add("exec.loops", static_cast<double>(replays[0].loops), "count");
  report->Add("exec.chunks", static_cast<double>(replays[0].chunks), "count");
  report->Add("exec.busy_share",
              busy_ns / (replays[0].host_threads * run_job_ns), "ratio");
  report->Add("exec.steals", steals / passes, "count");
  report->Add("exec.speedup_t4", single.wall_s / Median(untraced_s), "ratio");

  // Layer walls, per pass. The platform spans are named after their
  // cell and folded by engine and by algorithm.
  const std::vector<Span>& spans = log->spans();
  std::map<std::string, double> engine_ms;
  std::map<std::string, double> algo_ms;
  for (const std::string& id : ga::platform::AllPlatformIds()) engine_ms[id];
  for (Algorithm algorithm : ga::kAllAlgorithms) {
    algo_ms[std::string(ga::AlgorithmName(algorithm))];
  }
  std::vector<double> children_ms(spans.size(), 0.0);
  for (const Span& span : spans) {
    const double ms = static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    if (span.parent >= 0) children_ms[span.parent] += ms;
    if (span.name.rfind("platforms.", 0) == 0) {
      const Cell& cell = cells[span.op % cells.size()];
      engine_ms[cell.platform] += ms / passes;
      algo_ms[std::string(ga::AlgorithmName(cell.algorithm))] += ms / passes;
    }
  }
  for (const auto& [engine, ms] : engine_ms) {
    report->Add("platforms." + engine + ".ms", ms, "ms");
  }
  for (const auto& [algo, ms] : algo_ms) {
    report->Add("platforms." + algo + ".ms", ms, "ms");
  }
  std::map<std::string, double> wall = WallMsByName(spans);
  report->Add("algo.reference_ms", wall["algo.reference"] / passes, "ms");
  report->Add("algo.validate_ms", wall["algo.validate"] / passes, "ms");
  report->Add("algo.serialize_ms", wall["algo.serialize"] / passes, "ms");
  report->Add("harness.resolve_ms", wall["harness.resolve"] / passes, "ms");

  // Attribution, per job: the untraced Run wall (median over passes) =
  // the traced layer spans (median over passes) + the unattributed
  // remainder, which holds Run's own bookkeeping and pass-to-pass noise.
  double unattributed_ms = 0.0;
  double traced_job_ms = 0.0;
  double untraced_job_ms = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::vector<double> run_ms, job_ms, layer_ms;
    for (std::size_t k = 0; k < replays.size(); ++k) {
      const Span& job = spans[replays[k].job_span[i]];
      run_ms.push_back(untraced[k].cell_ms[i]);
      job_ms.push_back(static_cast<double>(job.end_ns - job.start_ns) / 1e6);
      layer_ms.push_back(children_ms[replays[k].job_span[i]]);
    }
    untraced_job_ms += Median(run_ms);
    traced_job_ms += Median(job_ms);
    unattributed_ms += Median(run_ms) - Median(layer_ms);
  }
  const double overhead = traced_job_ms / untraced_job_ms - 1.0;
  report->Add("harness.unattributed_ms", unattributed_ms, "ms");
  report->Add("harness.trace_overhead", overhead, "ratio");

  report->Add("datagen.generate_s", generate_s, "s");
  report->Add("store.write_s", write_s, "s");
  report->Add("store.load_s", load_s, "s");
  report->Add("store.load_mbps", bytes / (1024.0 * 1024.0) / load_s, "MiB/s");

  // Attribution report (stderr keeps stdout for the metrics).
  Log("attribution, %s, %zu jobs x %zu passes: untraced Run wall %.1f ms "
      "= layer spans %.1f ms + unattributed %.1f ms; traced job wall "
      "%.1f ms (tracing overhead %+.2f%%)",
      options.workload.c_str(), cells.size(), replays.size(), untraced_job_ms,
      untraced_job_ms - unattributed_ms, unattributed_ms, traced_job_ms,
      100.0 * overhead);
  std::map<std::string, double> self;
  for (const auto& [name, ms] : SelfTimeMsByName(spans)) {
    self[name.rfind("platforms.", 0) == 0 ? "platforms.*" : name] += ms / passes;
  }
  for (const auto& [name, ms] : self) {
    Log("  self per pass %-18s %10.2f ms", name.c_str(), ms);
  }
  if (!options.trace_out.empty() && !log->WriteJson(options.trace_out)) {
    Log("could not write spans to %s", options.trace_out.c_str());
  }
  return replays.back();
}

}  // namespace perfbench
