// serve-open: an in-process ga::serve::Server driven through Submit by
// one open-loop generator thread at a fixed ladder of Poisson rates.
#include <chrono>
#include <cmath>
#include <limits>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>

#include "core/rng.h"
#include "harness/dataset_registry.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {

namespace {

using ga::serve::Request;
using ga::serve::Response;
using ga::serve::Server;

constexpr std::int64_t kDivisor = 1024;
const std::vector<std::string> kDatasets = {"R1", "R2", "R3", "R4", "G22"};

// Server threads: workers x host_jobs = 3, one core short of the box's
// four so the generator thread is not starved while it sleeps.
constexpr int kWorkers = 3;
constexpr int kHostJobs = 1;
constexpr int kQueueCapacity = 32;
// A client gives up after this long; the server sheds or times out.
constexpr double kDeadlineMs = 1000.0;
// The fixed p99 latency limit a rung must meet to count towards
// max_ok_rps. Fixed once; later changes must not retune it. The slowest
// cell of the mix (dataflow PageRank on G22) alone runs ~150 ms.
constexpr double kLatencyLimitMs = 250.0;
// A rung whose generator ran later than this at p99 measured the
// scheduler, not the server: it is rerun up to twice, then the run is
// invalid and not scored.
constexpr double kMaxGeneratorLateMs = 10.0;

struct Rung {
  const char* name;
  double rate;  // requests per second
  int count;
};

// low/mid/high sit at about a quarter, a half and three quarters of the
// server's capacity when the ladder was fixed (~300 requests/s on a
// 4-vCPU x86 virtual machine). Each carries 1000 requests, enough for a
// p99 with ten samples beyond it. The rungs above are short; they let
// max_ok_rps rise when capacity does.
constexpr Rung kLadder[] = {
    {"low", 75.0, 1000},  {"mid", 150.0, 1000},  {"high", 225.0, 1000},
    {"r300", 300.0, 450}, {"r400", 400.0, 600},  {"r500", 500.0, 750},
};
// cell_geomean_ms is the geometric mean over the mix's cells of each
// cell's median latency on low and mid. Near capacity (high) queueing
// amplifies run-to-run noise several-fold, which would hide a
// regression in service time.
constexpr int kGeomeanRungs = 2;

struct Outcome {
  std::int64_t due_ns = 0;
  std::int64_t submit_ns = 0;
  std::int64_t done_ns = 0;
  Response response;
};

struct RungResult {
  std::vector<double> latency_ms;  // from due; +inf when not completed
  std::vector<int> cell;           // mix index of each request
  std::vector<double> queue_wait_ms;
  std::vector<double> load_ms;
  std::vector<double> exec_ms;
  std::vector<double> serialize_ms;
  std::vector<double> late_ms;
  std::int64_t shed = 0;
  std::int64_t timed_out = 0;
  std::int64_t backlog_growth = 0;
};

/// Sends `rung` open-loop and waits for every reply. Each completed
/// reply's fingerprint must equal the batch fingerprint of its cell.
RungResult RunRung(Server& server, const Rung& rung, int attempt,
                   std::uint64_t seed, const std::vector<Cell>& mix,
                   const std::map<std::string, std::string>& fingerprints,
                   Verdicts* verdicts) {
  const std::vector<std::int64_t> due =
      PoissonSchedule(rung.rate, rung.count, seed);
  // Every cell of the mix appears equally often (up to one), in an
  // order the seed shuffles: the seed moves arrival times and order, not
  // the mix's proportions.
  std::vector<int> shape(rung.count);
  for (int i = 0; i < rung.count; ++i) shape[i] = i % static_cast<int>(mix.size());
  ga::SplitMix64 pick(seed ^ 0x9E3779B97F4A7C15ULL);
  for (int i = rung.count - 1; i > 0; --i) {
    std::swap(shape[i], shape[pick.NextBounded(static_cast<std::uint64_t>(i) + 1)]);
  }
  // Requests are built before the clock starts so the generator thread
  // only stamps and submits.
  std::vector<Request> requests(rung.count);
  for (int i = 0; i < rung.count; ++i) {
    const Cell& cell = mix[shape[i]];
    requests[i].id = std::string(rung.name) + "." + std::to_string(attempt) +
                     "." + std::to_string(i);
    requests[i].platform = cell.platform;
    requests[i].dataset = cell.dataset;
    requests[i].algorithm = cell.algorithm;
    requests[i].deadline_ms = kDeadlineMs;
  }

  std::vector<Outcome> outcomes(rung.count);
  std::mutex mutex;
  std::condition_variable all_done;
  int done = 0;
  std::int64_t backlog_mid = 0;
  std::int64_t backlog_end = 0;

  Clock clock;
  clock.now_ns = SteadyNowNs;
  // Sleep to within 1 ms of the due time, then spin: on a virtual
  // machine a vCPU that went idle can take ~10 ms to be scheduled back,
  // which would make the generator, not the server, late.
  clock.sleep_until_ns = [](std::int64_t t) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(t - 1'000'000)));
    while (SteadyNowNs() < t) {
    }
  };
  RungResult result;
  result.late_ms = RunOpenLoop(due, clock, [&](int i, std::int64_t due_ns) {
    Outcome* slot = &outcomes[i];
    slot->due_ns = due_ns;
    slot->submit_ns = SteadyNowNs();
    {
      std::lock_guard<std::mutex> lock(mutex);
      const std::int64_t backlog = i - done;
      if (i == rung.count / 2) backlog_mid = backlog;
      if (i == rung.count - 1) backlog_end = backlog;
    }
    server.Submit(requests[i], [&, slot](const Response& response) {
      slot->done_ns = SteadyNowNs();
      slot->response = response;
      std::lock_guard<std::mutex> lock(mutex);
      ++done;
      if (done == rung.count) all_done.notify_one();
    });
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    all_done.wait(lock, [&] { return done == rung.count; });
  }
  result.backlog_growth = backlog_end - backlog_mid;
  result.cell = shape;

  for (int i = 0; i < rung.count; ++i) {
    const Outcome& outcome = outcomes[i];
    const Response& response = outcome.response;
    if (response.status == "completed") {
      const Cell& cell = mix[shape[i]];
      auto expected = fingerprints.find(CellName(cell));
      const bool correct = expected != fingerprints.end() &&
                           expected->second == response.output_fnv;
      if (!correct) {
        Log("deviation: %s fingerprint %s != batch %s", CellName(cell).c_str(),
            response.output_fnv.c_str(),
            expected == fingerprints.end() ? "(none)" : expected->second.c_str());
      }
      verdicts->Count(correct);
      const double latency = LatencyFromDueMs(outcome.due_ns, outcome.done_ns);
      const double since_submit =
          static_cast<double>(outcome.done_ns - outcome.submit_ns) / 1e6;
      result.latency_ms.push_back(latency);
      result.queue_wait_ms.push_back(response.queue_wait_ms);
      result.load_ms.push_back(response.load_ms);
      result.exec_ms.push_back(response.exec_ms);
      result.serialize_ms.push_back(since_submit - response.queue_wait_ms -
                                    response.load_ms - response.exec_ms);
      continue;
    }
    // Shed and timed-out requests are the server's answer to load; they
    // miss the latency limit but are not wrong results.
    const bool load_outcome = response.status == "shed" ||
                              response.status == "timed-out" ||
                              response.status == "cancelled";
    if (!load_outcome) {
      Log("deviation: request %s ended %s: %s", response.id.c_str(),
          response.status.c_str(), response.message.c_str());
    }
    verdicts->Count(load_outcome);
    if (response.status == "shed") ++result.shed;
    else ++result.timed_out;
    result.latency_ms.push_back(std::numeric_limits<double>::infinity());
  }
  return result;
}

/// `name.pNN` for the highest percentile the sample supports.
void AddTail(Report* report, const std::string& name,
             const std::vector<double>& values, const std::string& unit) {
  const std::string count = "n=" + std::to_string(values.size());
  if (auto p99 = SupportedPercentile(values, 99)) {
    report->Extra(name + ".p99", *p99, unit, count);
  } else if (auto tail = HighestSupportedTail(values)) {
    report->Extra(name + ".p" + std::to_string(tail->percentile), tail->value,
                  unit, count + ", too few for p99");
  } else {
    report->Extra(name + ".p99", 0.0, unit, count + ", too few to report");
  }
}

// The residency budget as a share of the mix's working set. At half the
// working set every second lookup misses and capacity collapses below
// 100 requests/s; at 0.85 about a third of lookups evict and reload.
std::int64_t ResidencyBudget(std::int64_t working_set) {
  return working_set * 85 / 100;
}

std::int64_t GraphBytes(const ga::Graph& graph) {
  return static_cast<std::int64_t>(
      graph.external_ids().size_bytes() + graph.edges().size_bytes() +
      graph.out_offsets().size_bytes() + graph.out_targets().size_bytes() +
      graph.out_weights().size_bytes() +
      (graph.is_directed() ? graph.in_offsets().size_bytes() +
                                 graph.in_sources().size_bytes() +
                                 graph.in_weights().size_bytes()
                           : 0));
}

ga::serve::ServeOptions MakeServeOptions(const ga::harness::BenchmarkConfig& bench,
                                         std::int64_t budget) {
  ga::serve::ServeOptions options;
  options.queue_capacity = kQueueCapacity;
  options.workers = kWorkers;
  options.memory_budget_bytes = budget;
  options.bench = bench;
  options.bench.host_jobs = kHostJobs;
  return options;
}

Response SubmitAndWait(Server& server, const Request& request) {
  std::mutex mutex;
  std::condition_variable ready;
  std::optional<Response> result;
  server.Submit(request, [&](const Response& response) {
    std::lock_guard<std::mutex> lock(mutex);
    result = response;
    ready.notify_one();
  });
  std::unique_lock<std::mutex> lock(mutex);
  ready.wait(lock, [&] { return result.has_value(); });
  return *result;
}

}  // namespace

int RunServeOpen(const Options& options) {
  Report report;
  Verdicts& verdicts = report.verdicts();
  const ga::harness::BenchmarkConfig config =
      MakeConfig(options, kDivisor, /*host_jobs=*/4, options.work_dir + "/cache");
  const std::vector<Cell> matrix = MatrixCells(kDatasets, kDivisor);
  std::vector<Cell> mix;
  for (const Cell& cell : matrix) {
    if (cell.expected == ga::harness::JobOutcome::kCompleted) mix.push_back(cell);
  }

  std::int64_t working_set = 0;
  const auto measure_working_set = [&] {
    ga::harness::DatasetRegistry registry(config);
    working_set = 0;
    for (const std::string& dataset : kDatasets) {
      auto graph = registry.Load(dataset);
      if (graph.ok()) working_set += GraphBytes(**graph);
    }
  };

  std::map<std::string, std::string> fingerprints;
  if (options.trace) {
    SpanLog log;
    fingerprints =
        TraceLayers(options, config, kDatasets, matrix, /*warmup_passes=*/1,
                    &log, &report)
            .fingerprints;
    measure_working_set();
  } else {
    const double setup_s = MedianOf(15, [&] {
      const double datasets_s = SetupDatasets(config, kDatasets);
      measure_working_set();
      const std::int64_t start = SteadyNowNs();
      Server server(MakeServeOptions(config, ResidencyBudget(working_set)));
      if (!server.Start().ok()) {
        Log("perfbench: server failed to start");
        std::exit(2);
      }
      const double start_s = SecondsSince(start);
      server.Drain();
      return datasets_s + start_s;
    });
    report.Add("setup_s", setup_s, "s");
    // The batch fingerprints every serve reply is checked against.
    SpanLog log;
    fingerprints = ReplayPass(config, mix, 0, &log, &verdicts).fingerprints;
  }

  Server server(MakeServeOptions(config, ResidencyBudget(working_set)));
  if (!server.Start().ok()) {
    Log("perfbench: server failed to start");
    return 2;
  }

  // Closed loop: every cell of the mix once, one request outstanding.
  std::vector<PassResult> closed_passes;
  std::vector<double> closed_ms;
  for (int pass = 0; pass < 8; ++pass) {
    PassResult& closed = closed_passes.emplace_back();
    const std::int64_t start = SteadyNowNs();
    for (std::size_t i = 0; i < mix.size(); ++i) {
      Request request;
      request.id = "closed." + std::to_string(pass) + "." + std::to_string(i);
      request.platform = mix[i].platform;
      request.dataset = mix[i].dataset;
      request.algorithm = mix[i].algorithm;
      const std::int64_t sent = SteadyNowNs();
      const Response response = SubmitAndWait(server, request);
      closed.cell_ms.push_back(static_cast<double>(SteadyNowNs() - sent) / 1e6);
      closed_ms.push_back(closed.cell_ms.back());
      const bool correct = response.status == "completed" &&
                           response.output_fnv == fingerprints[CellName(mix[i])];
      if (!correct) {
        Log("deviation: closed-loop %s ended %s fnv %s", CellName(mix[i]).c_str(),
            response.status.c_str(), response.output_fnv.c_str());
      }
      verdicts.Count(correct);
    }
    closed.wall_s = SecondsSince(start);
  }

  // Open loop: the rate ladder.
  // Loaded latency of each cell of the mix over the geomean rungs.
  std::vector<std::vector<double>> loaded_ms(mix.size());
  std::vector<double> all_load_ms, all_exec_ms, all_serialize_ms, all_late_ms;
  double max_ok_rps = 0.0;
  for (int r = 0; r < static_cast<int>(std::size(kLadder)); ++r) {
    const Rung& rung = kLadder[r];
    RungResult result;
    for (int attempt = 0;; ++attempt) {
      result = RunRung(server, rung, attempt,
                       ga::Mix64(options.seed * 131 + static_cast<std::uint64_t>(r)),
                       mix, fingerprints, &verdicts);
      const double late_p99 = Quantile(result.late_ms, 0.99);
      if (late_p99 <= kMaxGeneratorLateMs) break;
      Log("rung %s: generator p99 %.2f ms late (bound %.1f ms)%s", rung.name,
          late_p99, kMaxGeneratorLateMs, attempt < 2 ? ", rerunning" : "");
      if (attempt == 2) {
        Log("perfbench: the generator fell behind; run invalid, not scored");
        server.Drain();
        return 3;
      }
    }
    const std::string n = "n=" + std::to_string(result.latency_ms.size());
    report.Extra("lat_p50_ms." + std::string(rung.name),
                 Quantile(result.latency_ms, 0.5), "ms", n);
    AddTail(&report, "lat_ms." + std::string(rung.name), result.latency_ms, "ms");
    const auto tail = HighestSupportedTail(result.latency_ms);
    const bool backlog_grows =
        result.backlog_growth > std::max<std::int64_t>(8, rung.count / 20);
    if (tail && tail->value <= kLatencyLimitMs && !backlog_grows) {
      max_ok_rps = std::max(max_ok_rps, rung.rate);
    }
    const std::string suffix = "." + std::string(rung.name);
    const double count = static_cast<double>(rung.count);
    report.Extra("serve.shed_ratio" + suffix, result.shed / count, "ratio");
    report.Extra("serve.timeout_ratio" + suffix, result.timed_out / count, "ratio");
    report.Extra("serve.backlog_growth" + suffix,
                 static_cast<double>(result.backlog_growth), "count");
    report.Extra("serve.queue_wait_ms.p50" + suffix,
                 Quantile(result.queue_wait_ms, 0.5), "ms");
    AddTail(&report, "serve.queue_wait_ms" + suffix, result.queue_wait_ms, "ms");
    AddTail(&report, "serve.generator_late_ms" + suffix, result.late_ms, "ms");
    std::vector<double> penalised_ms;
    for (std::size_t i = 0; i < result.latency_ms.size(); ++i) {
      const double ms = std::isfinite(result.latency_ms[i])
                            ? result.latency_ms[i] : kDeadlineMs;
      penalised_ms.push_back(ms);
      if (r < kGeomeanRungs) loaded_ms[result.cell[i]].push_back(ms);
    }
    report.Extra("lat_geomean_ms" + suffix, GeoMean(penalised_ms), "ms");
    all_load_ms.insert(all_load_ms.end(), result.load_ms.begin(), result.load_ms.end());
    all_exec_ms.insert(all_exec_ms.end(), result.exec_ms.begin(), result.exec_ms.end());
    all_serialize_ms.insert(all_serialize_ms.end(), result.serialize_ms.begin(),
                            result.serialize_ms.end());
    all_late_ms.insert(all_late_ms.end(), result.late_ms.begin(), result.late_ms.end());
  }
  const ga::serve::ServeStats stats = server.StatsSnapshot();
  server.Drain();

  report.Extra("max_ok_rps", max_ok_rps, "1/s",
               "p99 limit " + std::to_string(static_cast<int>(kLatencyLimitMs)) + " ms");
  AddTail(&report, "serve.load_ms", all_load_ms, "ms");
  report.Extra("serve.exec_ms.p50", Quantile(all_exec_ms, 0.5), "ms");
  AddTail(&report, "serve.exec_ms", all_exec_ms, "ms");
  report.Extra("serve.serialize_ms.p50", Quantile(all_serialize_ms, 0.5), "ms");
  AddTail(&report, "serve.generator_late_ms", all_late_ms, "ms");
  report.Extra("serve.evictions", static_cast<double>(stats.evictions), "count");
  const double lookups =
      static_cast<double>(stats.residency_hits + stats.residency_misses);
  report.Extra("serve.residency_hit_ratio",
               lookups > 0 ? stats.residency_hits / lookups : 0.0, "ratio");
  report.Extra("serve.closed_loop_p50_ms", Median(closed_ms), "ms");

  if (!options.trace) {
    report.Add("matrix_s", Summarize(closed_passes, mix).matrix_s, "s");
    std::vector<double> cell_ms;
    for (const std::vector<double>& samples : loaded_ms) {
      cell_ms.push_back(Median(samples));
    }
    report.Add("cell_geomean_ms", GeoMean(cell_ms), "ms");
    report.Add("peak_rss_mb", PeakRssMb(), "MiB");
  }
  report.Print();
  return 0;
}

}  // namespace perfbench
