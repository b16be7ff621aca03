// The benchmark's workloads (README.md explains why each exists).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct BatchShape {
  std::int64_t divisor = 1024;
  std::vector<std::string> datasets;
  /// Set-ups per run; setup_s is their median.
  int setup_reps = 15;
  /// Untimed passes before measuring (allocator and page-cache warm-up).
  int warmup_passes = 1;
};

int RunBatch(const Options& options, const BatchShape& shape);
int RunServeOpen(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
