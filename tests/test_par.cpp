// Unit tests for src/par: the thread pool and the data-parallel loop and
// reduction primitives, swept across worker counts.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "par/parallel_for.hpp"
#include "par/thread_pool.hpp"

namespace gclus {
namespace {

class ParallelForTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(GetParam());
  constexpr std::size_t n = 10007;  // prime, not a multiple of the grain
  std::vector<std::atomic<int>> hits(n);
  parallel_for(pool, 0, n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST_P(ParallelForTest, EmptyAndSingletonRanges) {
  ThreadPool pool(GetParam());
  int count = 0;
  parallel_for(pool, 5, 5, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 0);
  parallel_for(pool, 5, 6, [&](std::size_t i) {
    EXPECT_EQ(i, 5u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST_P(ParallelForTest, ChunkVariantCoversRange) {
  ThreadPool pool(GetParam());
  constexpr std::size_t n = 5000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for_chunks(
      pool, 0, n,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      },
      /*grain=*/128);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST_P(ParallelForTest, ReduceMatchesSequentialSum) {
  ThreadPool pool(GetParam());
  constexpr std::size_t n = 12345;
  const auto sum = parallel_reduce<std::uint64_t>(
      pool, 0, n, 0, [](std::size_t i) { return static_cast<std::uint64_t>(i); },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  EXPECT_EQ(sum, static_cast<std::uint64_t>(n) * (n - 1) / 2);
}

TEST_P(ParallelForTest, ReduceMax) {
  ThreadPool pool(GetParam());
  std::vector<int> values(4097);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int>((i * 7919) % 10007);
  }
  const int expected = *std::max_element(values.begin(), values.end());
  const int got = parallel_reduce<int>(
      pool, 0, values.size(), 0, [&](std::size_t i) { return values[i]; },
      [](int a, int b) { return a > b ? a : b; }, /*grain=*/64);
  EXPECT_EQ(got, expected);
}

TEST_P(ParallelForTest, SumHelper) {
  ThreadPool pool(GetParam());
  const auto s = parallel_sum<std::uint64_t>(
      pool, 1, 101, [](std::size_t i) { return static_cast<std::uint64_t>(i); });
  EXPECT_EQ(s, 5050u);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, ParallelForTest,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(ThreadPool, ReportsThreadCount) {
  ThreadPool p1(1), p4(4);
  EXPECT_EQ(p1.num_threads(), 1u);
  EXPECT_EQ(p4.num_threads(), 4u);
  ThreadPool p0(0);  // clamped to 1
  EXPECT_EQ(p0.num_threads(), 1u);
}

TEST(ThreadPool, RunOnWorkersGivesDistinctIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4);
  pool.run_on_workers([&](std::size_t w) {
    ASSERT_LT(w, 4u);
    hits[w].fetch_add(1);
  });
  for (std::size_t w = 0; w < 4; ++w) EXPECT_EQ(hits[w].load(), 1);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int job = 0; job < 50; ++job) {
    pool.run_on_workers([&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 150);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  ThreadPool& a = ThreadPool::global();
  ThreadPool& b = ThreadPool::global();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_threads(), 1u);
}

TEST(ThreadPool, OnWorkerThreadOnlyInsideItsOwnJobs) {
  ThreadPool pool(3);
  ThreadPool other(2);
  EXPECT_FALSE(pool.on_worker_thread());
  std::atomic<int> own{0};
  std::atomic<int> foreign{0};
  pool.run_on_workers([&](std::size_t) {
    own.fetch_add(pool.on_worker_thread() ? 1 : 0);
    foreign.fetch_add(other.on_worker_thread() ? 1 : 0);
  });
  EXPECT_EQ(own.load(), 3);
  EXPECT_EQ(foreign.load(), 0);
  EXPECT_FALSE(pool.on_worker_thread());
}

// ---- nesting ---------------------------------------------------------------

constexpr std::size_t kNestN = 5000;
constexpr std::size_t kNestGrain = 16;  // many chunks: dispatches at top level
constexpr std::uint64_t kNestSum =
    static_cast<std::uint64_t>(kNestN) * (kNestN - 1) / 2;

/// What one caller observed running the three index-space helpers.
struct NestedRun {
  std::uint64_t for_sum = 0;
  std::uint64_t chunk_sum = 0;
  std::uint64_t reduce_sum = 0;
  bool all_on_caller = true;
};

NestedRun run_helpers(ThreadPool& pool) {
  NestedRun r;
  const auto caller = std::this_thread::get_id();
  std::atomic<std::uint64_t> for_sum{0};
  std::atomic<std::uint64_t> chunk_sum{0};
  std::atomic<bool> all_on_caller{true};
  const auto note_thread = [&] {
    if (std::this_thread::get_id() != caller) all_on_caller.store(false);
  };
  parallel_for(
      pool, 0, kNestN,
      [&](std::size_t i) {
        note_thread();
        for_sum.fetch_add(i, std::memory_order_relaxed);
      },
      kNestGrain);
  parallel_for_chunks(
      pool, 0, kNestN,
      [&](std::size_t lo, std::size_t hi) {
        note_thread();
        for (std::size_t i = lo; i < hi; ++i) {
          chunk_sum.fetch_add(i, std::memory_order_relaxed);
        }
      },
      kNestGrain);
  r.reduce_sum = parallel_reduce<std::uint64_t>(
      pool, 0, kNestN, 0,
      [&](std::size_t i) {
        note_thread();
        return static_cast<std::uint64_t>(i);
      },
      [](std::uint64_t a, std::uint64_t b) { return a + b; }, kNestGrain);
  r.for_sum = for_sum.load();
  r.chunk_sum = chunk_sum.load();
  r.all_on_caller = all_on_caller.load();
  return r;
}

TEST(ParallelNesting, SamePoolRunsInlineWithSerialResult) {
  ThreadPool pool(4);
  std::vector<NestedRun> runs(pool.num_threads());
  pool.run_on_workers([&](std::size_t w) { runs[w] = run_helpers(pool); });
  for (std::size_t w = 0; w < runs.size(); ++w) {
    EXPECT_TRUE(runs[w].all_on_caller) << "worker " << w;
    EXPECT_EQ(runs[w].for_sum, kNestSum) << "worker " << w;
    EXPECT_EQ(runs[w].chunk_sum, kNestSum) << "worker " << w;
    EXPECT_EQ(runs[w].reduce_sum, kNestSum) << "worker " << w;
  }
}

TEST(ParallelNesting, OtherPoolStillDispatches) {
  ThreadPool outer(2);
  ThreadPool inner(4);
  // A pool serves one job at a time, so only one outer worker uses it.
  NestedRun run;
  outer.run_on_workers([&](std::size_t w) {
    if (w == 0) run = run_helpers(inner);
  });
  EXPECT_FALSE(run.all_on_caller);  // the bodies ran on inner's workers
  EXPECT_EQ(run.for_sum, kNestSum);
  EXPECT_EQ(run.chunk_sum, kNestSum);
  EXPECT_EQ(run.reduce_sum, kNestSum);
}

TEST(ThreadPoolDeathTest, RawNestedRunOnWorkersStillAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool pool(2);
        pool.run_on_workers(
            [&](std::size_t) { pool.run_on_workers([](std::size_t) {}); });
      },
      "nested run_on_workers");
}

TEST(AtomicFetchMin, LowersMonotonically) {
  std::atomic<std::uint64_t> target{100};
  EXPECT_FALSE(atomic_fetch_min(target, std::uint64_t{200}));
  EXPECT_EQ(target.load(), 100u);
  EXPECT_TRUE(atomic_fetch_min(target, std::uint64_t{50}));
  EXPECT_EQ(target.load(), 50u);
  EXPECT_FALSE(atomic_fetch_min(target, std::uint64_t{50}));  // equal: no-op
}

TEST(AtomicFetchMin, ConcurrentMinIsGlobalMin) {
  std::atomic<std::uint64_t> target{~std::uint64_t{0}};
  ThreadPool pool(4);
  constexpr std::size_t n = 100000;
  parallel_for(pool, 0, n, [&](std::size_t i) {
    atomic_fetch_min(target, static_cast<std::uint64_t>((i * 2654435761u) %
                                                        999983));
  });
  // The minimum of (i * K) % p over i in [0, n) with n > p covers 0.
  std::uint64_t expected = ~std::uint64_t{0};
  for (std::size_t i = 0; i < n; ++i) {
    expected = std::min<std::uint64_t>(expected, (i * 2654435761u) % 999983);
  }
  EXPECT_EQ(target.load(), expected);
}

TEST(ExclusivePrefixSum, MatchesReference) {
  std::vector<std::uint64_t> v{3, 1, 4, 1, 5, 9, 2, 6};
  const auto total = exclusive_prefix_sum(v);
  EXPECT_EQ(total, 31u);
  const std::vector<std::uint64_t> expected{0, 3, 4, 8, 9, 14, 23, 25};
  EXPECT_EQ(v, expected);
}

TEST(ExclusivePrefixSum, EmptyVector) {
  std::vector<std::uint64_t> v;
  EXPECT_EQ(exclusive_prefix_sum(v), 0u);
}

}  // namespace
}  // namespace gclus
