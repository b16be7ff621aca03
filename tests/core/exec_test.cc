// Tests for the ga::exec host-parallel substrate: the thread pool, the
// fixed slot decomposition, and the determinism contract (results
// identical at any host thread count).
#include "core/exec/exec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "core/exec/alloc_stats.h"
#include "core/exec/scratch_pool.h"
#include "core/exec/thread_pool.h"

namespace ga::exec {
namespace {

TEST(ThreadPoolTest, ExecutesEveryChunkExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    constexpr std::int64_t kChunks = 1000;
    std::vector<std::atomic<int>> seen(kChunks);
    pool.Execute(kChunks,
                 [&](std::int64_t chunk) { seen[chunk].fetch_add(1); });
    for (std::int64_t chunk = 0; chunk < kChunks; ++chunk) {
      EXPECT_EQ(seen[chunk].load(), 1) << "chunk " << chunk;
    }
  }
}

// A throwing chunk must not std::terminate the process: every chunk
// still runs, and the exception of the LOWEST throwing chunk index is
// rethrown on the submitting thread — so the surfaced failure is the
// same at any thread count.
TEST(ThreadPoolTest, ChunkExceptionPropagatesToSubmittingThread) {
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    constexpr std::int64_t kChunks = 100;
    std::vector<std::atomic<int>> seen(kChunks);
    bool caught = false;
    try {
      pool.Execute(kChunks, [&](std::int64_t chunk) {
        seen[chunk].fetch_add(1);
        if (chunk == 42 || chunk == 77) {
          throw StatusException(Status::Aborted(
              "injected failure in chunk " + std::to_string(chunk)));
        }
      });
    } catch (const StatusException& e) {
      caught = true;
      EXPECT_EQ(e.status().code(), StatusCode::kAborted) << threads;
      // Lowest chunk index wins, regardless of which thread ran it.
      EXPECT_NE(e.status().message().find("chunk 42"), std::string::npos)
          << threads << " threads surfaced: " << e.status().message();
    }
    EXPECT_TRUE(caught) << threads << " threads swallowed the exception";
    for (std::int64_t chunk = 0; chunk < kChunks; ++chunk) {
      EXPECT_EQ(seen[chunk].load(), 1)
          << "chunk " << chunk << " skipped after a peer threw ("
          << threads << " threads)";
    }
  }
}

TEST(ThreadPoolTest, CreateRejectsNonPositiveThreadCounts) {
  for (int bad : {0, -1, -64}) {
    auto pool = ThreadPool::Create(bad);
    ASSERT_FALSE(pool.ok()) << bad;
    EXPECT_EQ(pool.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  auto pool = ThreadPool::Create(2);
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  EXPECT_EQ((*pool)->num_threads(), 2);
}

TEST(ThreadPoolTest, ReusableAcrossJobs) {
  ThreadPool pool(4);
  for (int job = 0; job < 50; ++job) {
    std::atomic<std::int64_t> sum{0};
    pool.Execute(17, [&](std::int64_t chunk) { sum.fetch_add(chunk); });
    EXPECT_EQ(sum.load(), 17 * 16 / 2);
  }
}

TEST(ThreadPoolTest, ZeroChunksIsANoOp) {
  ThreadPool pool(2);
  pool.Execute(0, [&](std::int64_t) { FAIL() << "body must not run"; });
}

TEST(ExecContextTest, SlotCountDependsOnlyOnRangeSize) {
  // The decomposition must not depend on any pool: NumSlots is static.
  EXPECT_EQ(ExecContext::NumSlots(0), 0);
  EXPECT_EQ(ExecContext::NumSlots(1), 1);
  EXPECT_EQ(ExecContext::NumSlots(ExecContext::kMinGrain), 1);
  EXPECT_EQ(ExecContext::NumSlots(ExecContext::kMinGrain + 1), 2);
  EXPECT_EQ(ExecContext::NumSlots(1 << 30), ExecContext::kMaxSlots);
}

TEST(ExecContextTest, SlicesTileTheRangeContiguously) {
  const std::int64_t begin = 13;
  const std::int64_t end = 13 + 5000;
  const int num_slots = ExecContext::NumSlots(end - begin);
  std::int64_t cursor = begin;
  for (int slot = 0; slot < num_slots; ++slot) {
    const Slice slice = ExecContext::SliceOf(begin, end, slot, num_slots);
    EXPECT_EQ(slice.begin, cursor);
    EXPECT_LE(slice.begin, slice.end);
    EXPECT_EQ(slice.slot, slot);
    cursor = slice.end;
  }
  EXPECT_EQ(cursor, end);
}

TEST(ParallelForTest, VisitsEveryIndexOnceAtAnyThreadCount) {
  constexpr std::int64_t kRange = 10'000;
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    ExecContext ctx(&pool);
    std::vector<std::atomic<int>> seen(kRange);
    parallel_for(ctx, 0, kRange, [&](const Slice& slice) {
      for (std::int64_t i = slice.begin; i < slice.end; ++i) {
        seen[i].fetch_add(1);
      }
    });
    for (std::int64_t i = 0; i < kRange; ++i) {
      ASSERT_EQ(seen[i].load(), 1) << "index " << i;
    }
  }
}

// Floating-point reductions must be bit-identical at any thread count:
// the slot decomposition fixes the summation grouping.
TEST(ParallelReduceTest, FloatSumBitIdenticalAcrossThreadCounts) {
  constexpr std::int64_t kRange = 54321;
  std::vector<double> values(kRange);
  for (std::int64_t i = 0; i < kRange; ++i) {
    values[i] = 1.0 / static_cast<double>(i + 1);
  }
  auto sum_with = [&](ThreadPool* pool) {
    ExecContext ctx(pool);
    return parallel_reduce(
        ctx, 0, kRange, 0.0,
        [&](const Slice& slice, double& acc) {
          for (std::int64_t i = slice.begin; i < slice.end; ++i) {
            acc += values[i];
          }
        },
        [](double& into, double from) { into += from; });
  };
  const double serial = sum_with(nullptr);
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(sum_with(&pool), serial) << threads << " threads";
  }
}

TEST(SlotBuffersTest, DrainReplaysSerialEmissionOrder) {
  constexpr std::int64_t kRange = 2000;
  ThreadPool pool(8);
  ExecContext ctx(&pool);
  SlotBuffers<std::int64_t> buffers;
  buffers.Reset(ExecContext::NumSlots(kRange));
  parallel_for(ctx, 0, kRange, [&](const Slice& slice) {
    for (std::int64_t i = slice.begin; i < slice.end; ++i) {
      if (i % 3 == 0) buffers.buf(slice.slot).push_back(i);
    }
  });
  std::vector<std::int64_t> drained;
  buffers.Drain([&](std::int64_t i) { drained.push_back(i); });
  std::vector<std::int64_t> expected;
  for (std::int64_t i = 0; i < kRange; i += 3) expected.push_back(i);
  EXPECT_EQ(drained, expected);
}

// GroupInto is a stable counting sort: groups come out in ascending key
// order, and rows within a group keep slot (== serial emission) order.
TEST(SlotBuffersTest, GroupIntoIsStableByKeyInSlotOrder) {
  struct Row {
    std::int64_t key;
    std::int64_t seq;
  };
  constexpr std::int64_t kRange = 5000;
  constexpr std::int64_t kKeys = 37;
  auto key_of = [](std::int64_t i) { return (i * 7919) % kKeys; };
  std::vector<Row> expected;
  for (std::int64_t i = 0; i < kRange; ++i) {
    if (i % 5 != 4) expected.push_back({key_of(i), i});
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Row& a, const Row& b) { return a.key < b.key; });
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    ExecContext ctx(&pool);
    SlotBuffers<Row> buffers;
    buffers.Reset(ExecContext::NumSlots(kRange));
    parallel_for(ctx, 0, kRange, [&](const Slice& slice) {
      for (std::int64_t i = slice.begin; i < slice.end; ++i) {
        if (i % 5 != 4) buffers.buf(slice.slot).push_back({key_of(i), i});
      }
    });
    std::vector<std::size_t> offsets;
    std::vector<Row> grouped = {{-1, -1}};  // stale contents are replaced
    buffers.GroupInto(
        ctx, kKeys, [](const Row& row) { return row.key; }, &offsets,
        &grouped);
    ASSERT_EQ(grouped.size(), expected.size()) << threads << " threads";
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(grouped[i].key, expected[i].key) << i;
      ASSERT_EQ(grouped[i].seq, expected[i].seq) << i;
    }
  }
  // No rows: an empty result, whatever `out` held before.
  SlotBuffers<Row> empty;
  empty.Reset(3);
  ExecContext serial;
  std::vector<std::size_t> offsets;
  std::vector<Row> grouped = {{0, 0}};
  empty.GroupInto(
      serial, kKeys, [](const Row& row) { return row.key; }, &offsets,
      &grouped);
  EXPECT_TRUE(grouped.empty());
}

// The range-parallel GroupInto (pools of 2+ threads) must produce
// exactly the serial grouping, rows and CSR offsets alike, on every
// input shape: skew, empty slots, key counts on both sides of the
// one-range cut-off, and no rows at all.
TEST(SlotBuffersTest, ParallelGroupIntoEqualsSerial) {
  struct Row {
    std::int64_t key;
    std::int64_t seq;
  };
  struct Case {
    const char* name;
    std::size_t num_keys;
    int num_slots;
    std::int64_t rows;
    std::function<std::int64_t(std::int64_t)> key_of;
    std::function<bool(int)> slot_empty;
  };
  std::uint64_t state = 99;
  std::vector<std::int64_t> random_keys(40000);
  for (std::int64_t& key : random_keys) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    key = static_cast<std::int64_t>((state >> 33) % 100003);
  }
  const auto never = [](int) { return false; };
  const std::vector<Case> cases = {
      {"random keys", 100003, 32, 40000,
       [&](std::int64_t i) { return random_keys[i]; }, never},
      {"all rows on one key", 5000, 32, 20000,
       [](std::int64_t) { return std::int64_t{4321}; }, never},
      {"empty slots", 3000, 32, 20000,
       [](std::int64_t i) { return (i * 7919) % 3000; },
       [](int slot) { return slot % 3 != 1; }},
      {"fewer than 64 keys", 50, 32, 20000,
       [](std::int64_t i) { return (i * 31) % 50; }, never},
      {"one key", 1, 32, 5000, [](std::int64_t) { return std::int64_t{0}; },
       never},
      {"zero rows", 7000, 32, 0, [](std::int64_t i) { return i; }, never},
  };
  const auto key_of_row = [](const Row& row) { return row.key; };
  for (const Case& c : cases) {
    SlotBuffers<Row> buffers;
    buffers.Reset(c.num_slots);
    for (std::int64_t i = 0; i < c.rows; ++i) {
      const Slice slice = [&] {
        for (int slot = 0;; ++slot) {
          const Slice s = ExecContext::SliceOf(0, c.rows, slot, c.num_slots);
          if (i < s.end) return s;
        }
      }();
      if (!c.slot_empty(slice.slot)) {
        buffers.buf(slice.slot).push_back({c.key_of(i), i});
      }
    }
    // The expected grouping, built independently of GroupInto.
    std::vector<Row> expected;
    buffers.Drain([&](const Row& row) { expected.push_back(row); });
    std::stable_sort(expected.begin(), expected.end(),
                     [](const Row& a, const Row& b) { return a.key < b.key; });

    ExecContext serial;
    std::vector<std::size_t> serial_offsets;
    std::vector<Row> serial_rows;
    buffers.GroupInto(serial, c.num_keys, key_of_row, &serial_offsets,
                      &serial_rows);
    ASSERT_EQ(serial_rows.size(), expected.size()) << c.name;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(serial_rows[i].seq, expected[i].seq) << c.name << " row " << i;
    }
    // A valid CSR: group k is serial_rows[offsets[k], offsets[k + 1]).
    ASSERT_EQ(serial_offsets.size(), c.num_keys + 1) << c.name;
    EXPECT_EQ(serial_offsets.front(), 0u) << c.name;
    EXPECT_EQ(serial_offsets.back(), serial_rows.size()) << c.name;
    for (std::size_t k = 0; k < c.num_keys; ++k) {
      ASSERT_LE(serial_offsets[k], serial_offsets[k + 1]) << c.name;
      for (std::size_t i = serial_offsets[k]; i < serial_offsets[k + 1];
           ++i) {
        ASSERT_EQ(serial_rows[i].key, static_cast<std::int64_t>(k))
            << c.name;
      }
    }

    for (int threads : {1, 2, 4, 8}) {
      ThreadPool pool(threads);
      ExecContext ctx(&pool);
      std::vector<std::size_t> offsets = {7, 7, 7};  // stale contents
      std::vector<Row> rows = {{-1, -1}};
      // Twice: the second call reuses the pooled scratch.
      for (int call = 0; call < 2; ++call) {
        buffers.GroupInto(ctx, c.num_keys, key_of_row, &offsets, &rows);
        EXPECT_EQ(offsets, serial_offsets)
            << c.name << " at " << threads << " threads";
        ASSERT_EQ(rows.size(), serial_rows.size()) << c.name;
        for (std::size_t i = 0; i < rows.size(); ++i) {
          ASSERT_EQ(rows[i].key, serial_rows[i].key)
              << c.name << " at " << threads << " threads, row " << i;
          ASSERT_EQ(rows[i].seq, serial_rows[i].seq)
              << c.name << " at " << threads << " threads, row " << i;
        }
      }
    }
  }
}

// Equal keys must keep the same (deterministic) permutation at any thread
// count, so downstream dedup picks the same survivor.
TEST(ParallelSortTest, SortsAndIsThreadCountInvariant) {
  struct Item {
    int key;
    int payload;
  };
  constexpr int kCount = 9973;
  std::vector<Item> input(kCount);
  std::uint64_t state = 12345;
  for (int i = 0; i < kCount; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    input[i] = {static_cast<int>(state % 100), i};
  }
  auto less = [](const Item& a, const Item& b) { return a.key < b.key; };

  auto sort_with = [&](ThreadPool* pool) {
    std::vector<Item> items = input;
    ExecContext ctx(pool);
    parallel_sort(ctx, &items, less);
    return items;
  };
  const std::vector<Item> serial = sort_with(nullptr);
  for (int i = 1; i < kCount; ++i) {
    ASSERT_LE(serial[i - 1].key, serial[i].key);
  }
  for (int threads : {2, 8}) {
    ThreadPool pool(threads);
    const std::vector<Item> sorted = sort_with(&pool);
    for (int i = 0; i < kCount; ++i) {
      ASSERT_EQ(sorted[i].key, serial[i].key) << "position " << i;
      ASSERT_EQ(sorted[i].payload, serial[i].payload) << "position " << i;
    }
  }
}

TEST(ParallelSortTest, HandlesSmallAndEmptyInputs) {
  ThreadPool pool(4);
  ExecContext ctx(&pool);
  std::vector<int> empty;
  parallel_sort(ctx, &empty, std::less<int>{});
  EXPECT_TRUE(empty.empty());
  std::vector<int> tiny = {3, 1, 2};
  parallel_sort(ctx, &tiny, std::less<int>{});
  EXPECT_EQ(tiny, (std::vector<int>{1, 2, 3}));
}

// The scratch overload must produce the same result as the allocating one
// and reuse the caller's partials buffer across calls.
TEST(ParallelReduceTest, ScratchOverloadMatchesAndReusesBuffer) {
  constexpr std::int64_t kRange = 12345;
  ExecContext ctx(nullptr);
  auto map = [](const Slice& slice, std::int64_t& acc) {
    for (std::int64_t i = slice.begin; i < slice.end; ++i) acc += i;
  };
  auto reduce = [](std::int64_t& into, std::int64_t from) { into += from; };
  const std::int64_t expected =
      parallel_reduce(ctx, 0, kRange, std::int64_t{0}, map, reduce);
  std::vector<std::int64_t> scratch;
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(parallel_reduce(ctx, 0, kRange, std::int64_t{0}, map, reduce,
                              &scratch),
              expected);
  }
  EXPECT_EQ(static_cast<int>(scratch.size()),
            ExecContext::NumSlots(kRange));
}

// --- ScratchPool / LabelCounter -----------------------------------------

// LabelCounter must agree with a reference histogram: most frequent label
// wins, ties break to the smallest label.
TEST(LabelCounterTest, MatchesReferenceHistogramOnRandomVotes) {
  LabelCounter counter;
  std::uint64_t state = 99;
  for (int round = 0; round < 200; ++round) {
    counter.Clear();
    std::map<std::int64_t, std::int64_t> reference;
    const int votes = 1 + static_cast<int>(state % 64);
    for (int i = 0; i < votes; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      // Small domain to force ties, shifted to exercise negatives.
      const std::int64_t label = static_cast<std::int64_t>(state % 13) - 4;
      counter.Add(label);
      ++reference[label];
    }
    std::int64_t best_label = 0;
    std::int64_t best_count = -1;
    for (const auto& [label, count] : reference) {
      if (count > best_count) {  // map is ordered: first max = smallest
        best_label = label;
        best_count = count;
      }
    }
    ASSERT_EQ(counter.Mode(), best_label) << "round " << round;
    ASSERT_EQ(counter.size(), static_cast<std::size_t>(votes));
  }
}

TEST(LabelCounterTest, ClearIsReuseNotReallocation) {
  LabelCounter counter;
  // Warm up to the high-water distinct-label count.
  for (int i = 0; i < 100; ++i) counter.Add(i);
  EXPECT_EQ(counter.Mode(), 0);
  const std::uint64_t warm = DataPathAllocEvents();
  for (int round = 0; round < 1000; ++round) {
    counter.Clear();
    EXPECT_TRUE(counter.empty());
    for (int i = 0; i < 100; ++i) counter.Add(i % 7);
    ASSERT_EQ(counter.Mode(), 0);
  }
  EXPECT_EQ(DataPathAllocEvents(), warm)
      << "steady-state Clear/Add cycles grew the counter";
}

// Slot isolation: concurrent slots must never observe each other's
// scratch, and the per-slot results must be bit-identical at any host
// thread count (the exec determinism contract).
TEST(ScratchPoolTest, SlotIsolationAndThreadCountInvariance) {
  constexpr std::int64_t kRange = 4096;
  auto run_with = [&](ThreadPool* pool) {
    ExecContext ctx(pool);
    ScratchPool scratch;
    const int num_slots = ExecContext::NumSlots(kRange);
    scratch.Prepare(num_slots);
    std::vector<std::int64_t> modes(kRange, -1);
    parallel_for(ctx, 0, kRange, [&](const Slice& slice) {
      for (std::int64_t i = slice.begin; i < slice.end; ++i) {
        LabelCounter& counter = scratch.labels(slice.slot);
        // Vertex-dependent vote multiset; mode = i % 17, runner-up i % 5.
        for (int rep = 0; rep < 3; ++rep) counter.Add(i % 17);
        counter.Add(i % 5);
        counter.Add(i % 5);
        std::vector<char>& flags =
            scratch.flags(slice.slot, static_cast<std::size_t>(kRange));
        ASSERT_EQ(flags[static_cast<std::size_t>(i)], 0)
            << "flag array leaked state across acquisitions";
        flags[static_cast<std::size_t>(i)] = 1;
        modes[i] = counter.Mode();
        flags[static_cast<std::size_t>(i)] = 0;  // sparse reset contract
      }
    });
    return modes;
  };
  const std::vector<std::int64_t> serial = run_with(nullptr);
  for (std::int64_t i = 0; i < kRange; ++i) {
    ASSERT_EQ(serial[i], i % 17) << "index " << i;
  }
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    ASSERT_EQ(run_with(&pool), serial) << threads << " threads";
  }
}

// Reuse across supersteps: after a warm-up pass, further passes over the
// same shape must not grow any slot's scratch.
TEST(ScratchPoolTest, SteadyStatePassesDoNotGrowScratch) {
  constexpr std::int64_t kRange = 2048;
  ExecContext ctx(nullptr);
  ScratchPool scratch;
  const int num_slots = ExecContext::NumSlots(kRange);
  auto pass = [&] {
    scratch.Prepare(num_slots);
    parallel_for(ctx, 0, kRange, [&](const Slice& slice) {
      for (std::int64_t i = slice.begin; i < slice.end; ++i) {
        LabelCounter& counter = scratch.labels(slice.slot);
        for (int vote = 0; vote < 8; ++vote) counter.Add(vote % 3);
        ASSERT_EQ(counter.Mode(), 0);
        std::vector<std::int64_t>& indices = scratch.indices(slice.slot);
        indices.push_back(i);
      }
    });
  };
  pass();  // warm-up allocates
  const std::uint64_t warm = DataPathAllocEvents();
  for (int superstep = 0; superstep < 20; ++superstep) pass();
  EXPECT_EQ(DataPathAllocEvents(), warm)
      << "steady-state passes grew pooled scratch";
}

// A pre-cancelled token stops a loop before any body runs: every chunk
// throws at its first instruction and the lowest chunk's kCancelled
// surfaces on the submitting thread.
TEST(ParallelForTest, PreCancelledTokenRunsNoBodies) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    ExecContext ctx(&pool);
    CancelToken token;
    token.Cancel("test cancel");
    ctx.set_cancel_token(&token);
    std::atomic<int> bodies{0};
    bool caught = false;
    try {
      parallel_for(ctx, 0, 10'000,
                   [&](const Slice&) { bodies.fetch_add(1); });
    } catch (const StatusException& e) {
      caught = true;
      EXPECT_EQ(e.status().code(), StatusCode::kCancelled);
      EXPECT_EQ(e.status().message(), "test cancel");
    }
    EXPECT_TRUE(caught);
    EXPECT_EQ(bodies.load(), 0);
  }
}

// Cancellation raised DURING a loop stops it within one chunk, not at
// the loop boundary: on the serial path (1 thread, deterministic chunk
// order) a body that cancels at chunk 3 means exactly 4 bodies run and
// the loop surfaces kCancelled.
TEST(ParallelForTest, MidLoopCancelStopsWithinOneChunk) {
  ThreadPool pool(1);
  ExecContext ctx(&pool);
  CancelToken token;
  ctx.set_cancel_token(&token);
  constexpr std::int64_t kRange = 32 * ExecContext::kMinGrain;
  const int num_slots = ExecContext::NumSlots(kRange);
  ASSERT_GT(num_slots, 4);
  std::atomic<int> bodies{0};
  bool caught = false;
  try {
    parallel_for(ctx, 0, kRange, [&](const Slice& slice) {
      bodies.fetch_add(1);
      if (slice.slot == 3) token.Cancel("cancelled at chunk 3");
    });
  } catch (const StatusException& e) {
    caught = true;
    EXPECT_EQ(e.status().code(), StatusCode::kCancelled);
  }
  EXPECT_TRUE(caught);
  EXPECT_EQ(bodies.load(), 4) << "loop ran past the cancelled chunk";
}

// An expired deadline reads as stop_requested and surfaces
// kDeadlineExceeded; parallel_reduce shares parallel_for's check.
TEST(ParallelReduceTest, ExpiredDeadlineSurfacesDeadlineExceeded) {
  ThreadPool pool(2);
  ExecContext ctx(&pool);
  CancelToken token;
  token.SetDeadlineAfter(std::chrono::nanoseconds(-1));  // already past
  ASSERT_TRUE(token.deadline_expired());
  ASSERT_TRUE(token.stop_requested());
  EXPECT_EQ(token.status().code(), StatusCode::kDeadlineExceeded);
  ctx.set_cancel_token(&token);
  bool caught = false;
  try {
    parallel_reduce(
        ctx, 0, 10'000, std::int64_t{0},
        [](const Slice& slice, std::int64_t& acc) {
          acc += slice.end - slice.begin;
        },
        [](std::int64_t& into, const std::int64_t& from) { into += from; });
  } catch (const StatusException& e) {
    caught = true;
    EXPECT_EQ(e.status().code(), StatusCode::kDeadlineExceeded);
  }
  EXPECT_TRUE(caught);
}

// First Cancel wins the reason; later calls are no-ops.
TEST(CancelTokenTest, FirstCancelReasonWins) {
  CancelToken token;
  EXPECT_FALSE(token.stop_requested());
  EXPECT_TRUE(token.status().ok());
  token.Cancel("first");
  token.Cancel("second");
  EXPECT_TRUE(token.cancel_requested());
  EXPECT_EQ(token.status().message(), "first");
}

}  // namespace
}  // namespace ga::exec
