// Tests for the thread pool and deterministic parallel_for.

#include "sim/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

namespace mldcs::sim {
namespace {

TEST(ThreadPoolTest, DefaultSizeIsAtLeastOne) {
  const ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolTest, ExplicitSizeRespected) {
  const ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { ++visits[i]; });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroIterations) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelForFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> visits(3);
  pool.parallel_for(3, [&](std::size_t i) { ++visits[i]; });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPoolTest, WeightedChunksCoverEveryIndexOnce) {
  ThreadPool pool(4);
  // Skewed weights: one hub dwarfs everything else.
  std::vector<std::uint32_t> weights(100, 1);
  weights[7] = 1000;
  std::vector<int> visits(weights.size(), 0);
  std::mutex m;
  pool.parallel_weighted_chunks(
      weights, [&](std::size_t, std::size_t lo, std::size_t hi) {
        const std::lock_guard<std::mutex> lock(m);
        for (std::size_t i = lo; i < hi; ++i) ++visits[i];
      });
  for (const int v : visits) EXPECT_EQ(v, 1);
}

TEST(ThreadPoolTest, WeightedChunksBalanceSkewedWeights) {
  ThreadPool pool(4);
  // Ascending quadratic weights: equal-count chunking would give the last
  // chunk ~58% of the total; weighted chunking must stay near 25% each.
  std::vector<std::uint32_t> weights(1000);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = static_cast<std::uint32_t>(i * i / 1000 + 1);
  }
  std::uint64_t total = 0;
  for (const std::uint32_t w : weights) total += w;
  std::vector<std::uint64_t> chunk_weight(4, 0);
  std::size_t max_chunk = 0;
  std::mutex m;
  pool.parallel_weighted_chunks(
      weights, [&](std::size_t c, std::size_t lo, std::size_t hi) {
        const std::lock_guard<std::mutex> lock(m);
        max_chunk = std::max(max_chunk, c);
        for (std::size_t i = lo; i < hi; ++i) chunk_weight[c] += weights[i];
      });
  ASSERT_LE(max_chunk, 3u);
  for (std::size_t c = 0; c <= max_chunk; ++c) {
    // Each chunk within (25 +- 10)% of the total: one index can overshoot
    // a boundary by at most the largest single weight (~0.1% here).
    EXPECT_GT(chunk_weight[c], total / 7);
    EXPECT_LT(chunk_weight[c], total / 2);
  }
}

TEST(ThreadPoolTest, WeightedChunksZeroTotalRunsOneChunk) {
  ThreadPool pool(4);
  const std::vector<std::uint32_t> weights(10, 0);
  std::vector<int> visits(weights.size(), 0);
  std::atomic<int> chunks{0};
  pool.parallel_weighted_chunks(
      weights, [&](std::size_t, std::size_t lo, std::size_t hi) {
        ++chunks;
        for (std::size_t i = lo; i < hi; ++i) ++visits[i];
      });
  EXPECT_EQ(chunks.load(), 1);
  for (const int v : visits) EXPECT_EQ(v, 1);
}

TEST(ThreadPoolTest, WeightedChunksEmptyInputIsNoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_weighted_chunks(
      std::span<const std::uint32_t>{},
      [&](std::size_t, std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ResultsIndependentOfThreadCount) {
  // Each index computes into its own slot; totals must match at any
  // parallelism level (the determinism contract).
  const auto run = [](std::size_t threads) {
    std::vector<double> out(500);
    ThreadPool pool(threads);
    pool.parallel_for(
        500, [&](std::size_t i) { out[i] = static_cast<double>(i) * 1.5; });
    return std::accumulate(out.begin(), out.end(), 0.0);
  };
  const double t1 = run(1);
  const double t4 = run(4);
  const double t7 = run(7);
  EXPECT_DOUBLE_EQ(t1, t4);
  EXPECT_DOUBLE_EQ(t1, t7);
}

TEST(ThreadPoolTest, ExceptionPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  const auto this_thread = std::this_thread::get_id();
  std::vector<std::thread::id> seen(5);
  pool.parallel_for(5, [&](std::size_t i) {
    seen[i] = std::this_thread::get_id();
  });
  for (const auto& id : seen) EXPECT_EQ(id, this_thread);
}

// MLDCS_THREADS parsing for default_pool() sizing: 0 means "no override".
TEST(ThreadOverrideTest, UnsetOrEmptyMeansNoOverride) {
  EXPECT_EQ(detail::thread_override(nullptr, 8), 0u);
  EXPECT_EQ(detail::thread_override("", 8), 0u);
}

TEST(ThreadOverrideTest, ValidValueClampedToHardware) {
  EXPECT_EQ(detail::thread_override("1", 8), 1u);
  EXPECT_EQ(detail::thread_override("4", 8), 4u);
  EXPECT_EQ(detail::thread_override("8", 8), 8u);
  EXPECT_EQ(detail::thread_override("64", 8), 8u);  // clamp, not reject
}

TEST(ThreadOverrideTest, GarbageAndNonPositiveIgnored) {
  EXPECT_EQ(detail::thread_override("abc", 8), 0u);
  EXPECT_EQ(detail::thread_override("8abc", 8), 0u);
  EXPECT_EQ(detail::thread_override("-2", 8), 0u);
  EXPECT_EQ(detail::thread_override("3.5", 8), 0u);
  EXPECT_EQ(detail::thread_override(" 4", 8), 0u);
  EXPECT_EQ(detail::thread_override("0", 8), 0u);
}

TEST(ThreadOverrideTest, HugeValueClampsInsteadOfOverflowing) {
  EXPECT_EQ(detail::thread_override("99999999999999999999999999", 8), 8u);
}

TEST(ThreadOverrideTest, ZeroHardwareConcurrencyStillYieldsOneWorker) {
  // hardware_concurrency() may legitimately report 0 ("unknown").
  EXPECT_EQ(detail::thread_override("4", 0), 1u);
}

}  // namespace
}  // namespace mldcs::sim
