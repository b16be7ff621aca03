// Tests for the benchmark's statistics code (src/stats.h). Run with
// `python3 perfbench/run.py --selftest` or ctest in the benchmark's
// build directory. Exits non-zero on the first failed check.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                 \
      ++failures;                                                    \
    }                                                                \
  } while (0)

bool Near(double a, double b, double tolerance = 1e-9) {
  return std::fabs(a - b) <= tolerance;
}

std::vector<double> Ramp(int n) {
  std::vector<double> values;
  for (int i = 1; i <= n; ++i) values.push_back(i);
  return values;
}

void PercentileNeedsTenSamplesBeyond() {
  using perfbench::PercentileSupported;
  CHECK(!PercentileSupported(999, 99));
  CHECK(PercentileSupported(1000, 99));
  CHECK(!PercentileSupported(199, 95));
  CHECK(PercentileSupported(200, 95));
  CHECK(PercentileSupported(20, 50));
  CHECK(!PercentileSupported(19, 50));

  CHECK(!perfbench::SupportedPercentile(Ramp(999), 99).has_value());
  auto p99 = perfbench::SupportedPercentile(Ramp(1000), 99);
  CHECK(p99.has_value() && Near(*p99, 990.0));

  // 400 samples support p95 (20 beyond it) but not p99 (4 beyond it).
  auto tail = perfbench::HighestSupportedTail(Ramp(400));
  CHECK(tail.has_value() && tail->percentile == 95 && Near(tail->value, 380));
  CHECK(!perfbench::HighestSupportedTail(Ramp(19)).has_value());
  CHECK(Near(perfbench::Median(Ramp(4)), 2.5));
  CHECK(Near(perfbench::Median(Ramp(5)), 3.0));
}

void LatencyIsTimedFromDueUnderFakeClock() {
  // Three requests due at 0, 10 and 20 ms. The first send stalls the
  // generator for 50 ms; replies arrive 1 ms after each send.
  std::int64_t now = 1'000'000'000;
  perfbench::Clock clock;
  clock.now_ns = [&] { return now; };
  clock.sleep_until_ns = [&](std::int64_t t) { now = std::max(now, t); };
  std::vector<double> latency_ms;
  std::vector<double> since_send_ms;
  const std::vector<std::int64_t> due = {0, 10'000'000, 20'000'000};
  std::vector<double> late = perfbench::RunOpenLoop(
      due, clock, [&](int i, std::int64_t due_ns) {
        const std::int64_t sent = now;
        const std::int64_t done = sent + 1'000'000;
        latency_ms.push_back(perfbench::LatencyFromDueMs(due_ns, done));
        since_send_ms.push_back((done - sent) / 1e6);
        if (i == 0) now += 50'000'000;
      });
  CHECK(late.size() == 3);
  CHECK(Near(late[0], 0.0) && Near(late[1], 40.0) && Near(late[2], 30.0));
  CHECK(Near(latency_ms[0], 1.0));
  CHECK(Near(latency_ms[1], 41.0));  // the stall counts against request 1
  CHECK(Near(latency_ms[2], 31.0));
  CHECK(Near(since_send_ms[1], 1.0));  // what a closed loop would report
}

void SelfTimeComesFromNestedSpans() {
  perfbench::SpanLog log;
  const int root = log.Add("job", 0, 100, -1, 7);
  const int a = log.Add("a", 10, 40, root, 7);
  log.Add("b", 30, 60, root, 7);  // overlaps a: 10..60 covered once
  log.Add("a.inner", 15, 20, a, 7);
  log.Add("b", 70, 80, root, 7);
  const std::vector<std::int64_t> self = perfbench::SelfTimesNs(log.spans());
  CHECK(self[0] == 100 - 50 - 10);
  CHECK(self[1] == 30 - 5);
  CHECK(self[2] == 30);
  CHECK(self[3] == 5);
  auto by_name = perfbench::SelfTimeMsByName(log.spans());
  CHECK(Near(by_name["b"], 40 / 1e6));
  auto wall = perfbench::WallMsByName(log.spans());
  CHECK(Near(wall["job"], 100 / 1e6));
  // Children running past their parent are clipped to it.
  perfbench::SpanLog clipped;
  clipped.Add("p", 0, 10, -1, 0);
  clipped.Add("c", 5, 20, 0, 0);
  CHECK(perfbench::SelfTimesNs(clipped.spans())[0] == 5);
}

void GeoMeanAndFailedRatio() {
  CHECK(Near(perfbench::GeoMean({1.0, 4.0, 16.0}), 4.0, 1e-12));
  CHECK(Near(perfbench::GeoMean({2.0}), 2.0, 1e-12));
  CHECK(perfbench::GeoMean({}) == 0.0);
  perfbench::Verdicts verdicts;
  CHECK(verdicts.failed_ratio() == 0.0);
  for (int i = 0; i < 8; ++i) verdicts.Count(true);
  verdicts.Count(false);
  verdicts.Count(false);
  CHECK(verdicts.attempted == 10 && verdicts.failed == 2);
  CHECK(Near(verdicts.failed_ratio(), 0.2));
}

void PoissonScheduleIsSeeded() {
  const auto a = perfbench::PoissonSchedule(100.0, 5000, 11);
  const auto b = perfbench::PoissonSchedule(100.0, 5000, 11);
  const auto c = perfbench::PoissonSchedule(100.0, 5000, 12);
  CHECK(a == b);
  CHECK(a != c);
  CHECK(std::is_sorted(a.begin(), a.end()));
  // 5000 arrivals at 100/s span about 50 s.
  CHECK(std::fabs(a.back() / 1e9 - 50.0) < 3.0);
}

}  // namespace

int main() {
  PercentileNeedsTenSamplesBeyond();
  LatencyIsTimedFromDueUnderFakeClock();
  SelfTimeComesFromNestedSpans();
  GeoMeanAndFailedRatio();
  PoissonScheduleIsSeeded();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("stats_test: all checks passed\n");
  return 0;
}
