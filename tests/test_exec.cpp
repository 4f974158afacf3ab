// Tests of the task pool (src/exec/pool.hpp): its work-helping waits and
// deterministic failure reporting, and — most load-bearing —
// ordered_reduce's submission-order merge under adversarial completion
// order (the property every parallel consumer in the repo leans on for
// determinism).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/parallel.hpp"
#include "exec/pool.hpp"

namespace {

using raa::exec::Pool;

TEST(PoolTest, RunsSubmittedTasks) {
  Pool pool{2};
  std::atomic<int> sum{0};
  Pool::Group g;
  for (int i = 1; i <= 100; ++i)
    pool.submit(g, [&sum, i] { sum.fetch_add(i); });
  pool.wait(g);
  EXPECT_EQ(sum.load(), 5050);
}

TEST(PoolTest, ZeroWorkersRunsEverythingInlineInWait) {
  // A pool without threads is a valid serial executor: the waiting thread
  // runs every task itself, in submission order.
  Pool pool{0};
  std::vector<int> order;
  Pool::Group g;
  for (int i = 0; i < 8; ++i) pool.submit(g, [&order, i] { order.push_back(i); });
  pool.wait(g);
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(PoolTest, NestedSubmissionDoesNotStarve) {
  // A task submits subtasks to its own (single-worker) pool and waits on
  // them; the helping wait runs them instead of deadlocking.
  Pool pool{1};
  std::atomic<int> inner_done{0};
  Pool::Group outer;
  pool.submit(outer, [&] {
    Pool::Group inner;
    for (int i = 0; i < 4; ++i)
      pool.submit(inner, [&] { inner_done.fetch_add(1); });
    pool.wait(inner);
  });
  pool.wait(outer);
  EXPECT_EQ(inner_done.load(), 4);
}

TEST(PoolTest, ReuseAcrossRuns) {
  // One pool serves many submit/wait rounds (every System::run and bench
  // unit reuses the pool it is handed).
  Pool pool{2};
  long total = 0;
  for (int round = 0; round < 20; ++round) {
    std::atomic<long> sum{0};
    Pool::Group g;
    for (int i = 0; i < 32; ++i) pool.submit(g, [&sum] { sum.fetch_add(1); });
    pool.wait(g);
    total += sum.load();
  }
  EXPECT_EQ(total, 20 * 32);
}

TEST(PoolTest, ExceptionPropagatesAndPoolStaysUsable) {
  Pool pool{2};
  std::atomic<int> ran{0};
  Pool::Group g;
  for (int i = 0; i < 10; ++i)
    pool.submit(g, [&ran, i] {
      ran.fetch_add(1);
      if (i == 5) throw std::runtime_error("boom");
    });
  EXPECT_THROW(pool.wait(g), std::runtime_error);
  // Every task still ran (failures do not cancel siblings)...
  EXPECT_EQ(ran.load(), 10);
  // ...and the pool and the reset group are reusable afterwards.
  std::atomic<int> after{0};
  for (int i = 0; i < 10; ++i) pool.submit(g, [&after] { after.fetch_add(1); });
  pool.wait(g);
  EXPECT_EQ(after.load(), 10);
}

TEST(PoolTest, LowestIndexExceptionWins) {
  // Two tasks fail; the lower submission index is reported regardless of
  // which failure was *observed* first.
  Pool pool{4};
  for (int attempt = 0; attempt < 10; ++attempt) {
    Pool::Group g;
    for (int i = 0; i < 8; ++i)
      pool.submit(g, [i] {
        if (i == 2) {
          std::this_thread::sleep_for(std::chrono::milliseconds(3));
          throw std::runtime_error("early-index, late-finishing");
        }
        if (i == 6) throw std::runtime_error("late-index, fast-failing");
      });
    try {
      pool.wait(g);
      FAIL() << "expected a throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "early-index, late-finishing");
    }
  }
}

TEST(OrderedReduce, MergesInSubmissionOrderUnderAdversarialJitter) {
  // Tasks finish in roughly *reverse* submission order (later tasks sleep
  // less); the merge must still observe 0, 1, 2, ... n-1.
  Pool pool{4};
  constexpr std::size_t n = 24;
  std::vector<std::size_t> merged;
  raa::exec::ordered_reduce<std::size_t>(
      pool, n,
      [&](std::size_t i) {
        std::this_thread::sleep_for(std::chrono::microseconds(200 * (n - i)));
        return i;
      },
      [&](std::size_t i, std::size_t&& value) {
        EXPECT_EQ(i, value);
        merged.push_back(value);
      });
  ASSERT_EQ(merged.size(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(merged[i], i);
}

TEST(OrderedReduce, MergePrefixSurvivesTaskFailure) {
  // Task 5 throws: results 0..4 still merge, everything still runs, and
  // the exception surfaces after the prefix.
  Pool pool{2};
  std::vector<std::size_t> merged;
  std::atomic<int> ran{0};
  EXPECT_THROW(raa::exec::ordered_reduce<std::size_t>(
                   pool, 10,
                   [&](std::size_t i) {
                     ran.fetch_add(1);
                     if (i == 5) throw std::runtime_error("task 5");
                     return i;
                   },
                   [&](std::size_t, std::size_t&& v) { merged.push_back(v); }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 10);
  ASSERT_EQ(merged.size(), 5u);
  for (std::size_t i = 0; i < merged.size(); ++i) EXPECT_EQ(merged[i], i);
}

TEST(OrderedReduce, WorksOnZeroWorkerPool) {
  Pool pool{0};
  long sum = 0;
  raa::exec::ordered_reduce<long>(
      pool, 100, [](std::size_t i) { return static_cast<long>(i); },
      [&](std::size_t, long&& v) { sum += v; });
  EXPECT_EQ(sum, 4950);
}

TEST(PoolShutdown, DropsPendingTasksOnZeroWorkerPool) {
  // Destroying a pool with tasks still queued (a violated Group contract)
  // must drop them unrun — deterministically observable on a zero-worker
  // pool, where nothing else could possibly run them.
  std::atomic<int> ran{0};
  Pool::Group g;  // outlives the pool on purpose
  {
    Pool pool{0};
    for (int i = 0; i < 16; ++i) pool.submit(g, [&ran] { ++ran; });
  }
  EXPECT_EQ(ran.load(), 0);
}

TEST(PoolShutdown, JoinsWorkersWithJobsStillQueued) {
  // Shutdown racing a half-drained queue: the dtor must stop and join the
  // workers without running the whole backlog or deadlocking. Counts are
  // loose by design — TSan value is the clean teardown, not a number.
  std::atomic<int> ran{0};
  Pool::Group g;
  {
    Pool pool{2};
    for (int i = 0; i < 64; ++i)
      pool.submit(g, [&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++ran;
      });
  }
  EXPECT_LE(ran.load(), 64);
}

TEST(PoolTest, HelpWhileRunsTasksUntilConditionFlips) {
  // help_while on a zero-worker pool must run the queued task that flips
  // the condition (this is exactly how the sharded memsim commit loop
  // adopts producer batches).
  Pool pool{0};
  bool ready = false;
  Pool::Group g;
  pool.submit(g, [&ready] { ready = true; });
  pool.help_while(g, [&] { return !ready; });
  EXPECT_TRUE(ready);
  pool.wait(g);
}

}  // namespace
