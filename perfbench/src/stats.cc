#include "stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "core/rng.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[index];
}

double Median(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t mid = sorted.size() / 2;
  return sorted.size() % 2 == 1 ? sorted[mid]
                                : 0.5 * (sorted[mid - 1] + sorted[mid]);
}

bool PercentileSupported(std::size_t samples, int percentile) {
  return static_cast<std::int64_t>(samples) * (100 - percentile) >= 1000;
}

std::optional<double> SupportedPercentile(const std::vector<double>& values,
                                          int percentile) {
  if (!PercentileSupported(values.size(), percentile)) return std::nullopt;
  return Quantile(values, percentile / 100.0);
}

std::optional<Tail> HighestSupportedTail(const std::vector<double>& values) {
  for (int percentile : {99, 95, 90, 50}) {
    if (auto value = SupportedPercentile(values, percentile)) {
      return Tail{percentile, *value};
    }
  }
  return std::nullopt;
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double value : values) log_sum += std::log(value);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

std::int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanLog::Begin(std::string name, int parent, std::int64_t op) {
  const std::int64_t now = SteadyNowNs();
  return Add(std::move(name), now, now, parent, op);
}

void SpanLog::End(int index) { spans_[index].end_ns = SteadyNowNs(); }

int SpanLog::Add(std::string name, std::int64_t start_ns,
                 std::int64_t end_ns, int parent, std::int64_t op) {
  spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, op});
  return static_cast<int>(spans_.size()) - 1;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("[\n", out);
  const std::vector<std::int64_t> self = SelfTimesNs(spans_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"op\":%lld,"
                 "\"self_ns\":%lld}%s\n",
                 i, span.name.c_str(), static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), span.parent,
                 static_cast<long long>(span.op),
                 static_cast<long long>(self[i]),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", out);
  return std::fclose(out) == 0;
}

std::vector<std::int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    std::int64_t covered = 0;
    std::int64_t cursor = span.start_ns;
    for (auto [begin, end] : kids) {
      begin = std::max(begin, cursor);
      end = std::min(end, span.end_ns);
      if (end > begin) {
        covered += end - begin;
        cursor = end;
      }
    }
    self[i] = (span.end_ns - span.start_ns) - covered;
  }
  return self;
}

std::map<std::string, double> SelfTimeMsByName(
    const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = SelfTimesNs(spans);
  std::map<std::string, double> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    totals[spans[i].name] += static_cast<double>(self[i]) / 1e6;
  }
  return totals;
}

std::map<std::string, double> WallMsByName(const std::vector<Span>& spans) {
  std::map<std::string, double> totals;
  for (const Span& span : spans) {
    totals[span.name] += static_cast<double>(span.end_ns - span.start_ns) / 1e6;
  }
  return totals;
}

std::vector<std::int64_t> PoissonSchedule(double rate_per_s, int count,
                                          std::uint64_t seed) {
  ga::SplitMix64 rng(seed);
  std::vector<std::int64_t> due;
  due.reserve(count);
  double at_s = 0.0;
  for (int i = 0; i < count; ++i) {
    // 1 - u lies in (0, 1], so the log is finite.
    at_s += -std::log(1.0 - rng.NextDouble()) / rate_per_s;
    due.push_back(static_cast<std::int64_t>(at_s * 1e9));
  }
  return due;
}

std::vector<double> RunOpenLoop(const std::vector<std::int64_t>& due_offsets,
                                const Clock& clock,
                                const std::function<void(int, std::int64_t)>&
                                    send) {
  std::vector<double> late_ms;
  late_ms.reserve(due_offsets.size());
  const std::int64_t start = clock.now_ns();
  for (std::size_t i = 0; i < due_offsets.size(); ++i) {
    const std::int64_t due = start + due_offsets[i];
    clock.sleep_until_ns(due);
    late_ms.push_back(static_cast<double>(clock.now_ns() - due) / 1e6);
    send(static_cast<int>(i), due);
  }
  return late_ms;
}

}  // namespace perfbench
