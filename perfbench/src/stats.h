// Statistics and span accounting for the repository benchmark.
//
// Everything here is a pure function of its inputs (plus an injectable
// clock for the open-loop generator), so tests/stats_test.cc can check it
// without running the graph program.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 for an empty set.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);

/// True when `samples` values leave at least ten beyond the percentile:
/// samples * (100 - percentile) / 100 >= 10. A tail percentile is only
/// reported when this holds (p99 needs 1000 samples, p95 200, p90 100).
bool PercentileSupported(std::size_t samples, int percentile);

/// The percentile's value, or nullopt when the sample cannot support it.
std::optional<double> SupportedPercentile(const std::vector<double>& values,
                                          int percentile);

/// The highest of p99/p95/p90/p50 the sample supports, with its value
/// (nullopt for fewer than 20 samples).
struct Tail {
  int percentile = 0;
  double value = 0.0;
};
std::optional<Tail> HighestSupportedTail(const std::vector<double>& values);

/// Geometric mean of strictly positive values (0 for an empty set).
double GeoMean(const std::vector<double>& values);

/// Correctness accounting: every operation attempted is either as
/// expected or a deviation; failed_ratio = deviations / attempted.
struct Verdicts {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  void Count(bool as_expected) {
    ++attempted;
    if (!as_expected) ++failed;
  }
  double failed_ratio() const {
    return attempted > 0 ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 0.0;
  }
};

/// One timed call into a layer. `parent` indexes the span that caused it
/// (-1 for a root); `op` is the job or request id shared by its spans.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::int64_t op = -1;
};

/// In-memory span recorder. Single-threaded: one owner records, and the
/// spans are written out when the benchmark ends.
class SpanLog {
 public:
  /// Opens a span starting now and returns its index.
  int Begin(std::string name, int parent, std::int64_t op);
  /// Closes span `index` now.
  void End(int index);
  /// Records a finished span with explicit times.
  int Add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, std::int64_t op);
  const std::vector<Span>& spans() const { return spans_; }
  /// Writes the spans as a JSON array to `path`; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

std::int64_t SteadyNowNs();

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
std::vector<std::int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Sum of self time per span name, in milliseconds.
std::map<std::string, double> SelfTimeMsByName(const std::vector<Span>& spans);

/// Sum of duration per span name, in milliseconds.
std::map<std::string, double> WallMsByName(const std::vector<Span>& spans);

/// A seeded Poisson arrival schedule: `count` due times (ns offsets from
/// the schedule start) with exponential gaps of mean 1/rate seconds.
std::vector<std::int64_t> PoissonSchedule(double rate_per_s, int count,
                                          std::uint64_t seed);

/// The clock an open-loop generator runs on; tests substitute a fake.
struct Clock {
  std::function<std::int64_t()> now_ns;
  std::function<void(std::int64_t)> sleep_until_ns;
};

/// Open-loop generator: sends request i at start + due[i] regardless of
/// earlier replies. `send(i, due_ns)` gets the absolute due time so the
/// reply can be timed from when the request was due, not from when it
/// was sent — a generator stall then shows up as latency. Returns how
/// late each send was, in ms.
std::vector<double> RunOpenLoop(const std::vector<std::int64_t>& due_offsets,
                                const Clock& clock,
                                const std::function<void(int, std::int64_t)>&
                                    send);

/// Latency of a reply at `done_ns` for a request due at `due_ns`, in ms.
inline double LatencyFromDueMs(std::int64_t due_ns, std::int64_t done_ns) {
  return static_cast<double>(done_ns - due_ns) / 1e6;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
