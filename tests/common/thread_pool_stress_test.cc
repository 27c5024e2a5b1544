// Multi-threaded stress tests for ThreadPool, written to run (and stay
// clean) under -fsanitize=thread. Sizes are modest so the TSan preset
// finishes quickly, but every cross-thread edge the pool exposes is
// exercised: concurrent submitters, concurrent ParallelFor callers,
// exception propagation, and shutdown under pressure.

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace mqa {
namespace {

TEST(ThreadPoolStressTest, ManyExternalSubmitters) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  constexpr int kSubmitters = 4;
  constexpr int kTasksEach = 200;

  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &counter] {
      std::vector<std::future<void>> futures;
      futures.reserve(kTasksEach);
      for (int i = 0; i < kTasksEach; ++i) {
        futures.push_back(pool.Submit([&counter] { ++counter; }));
      }
      for (auto& f : futures) f.get();
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(counter.load(), kSubmitters * kTasksEach);
}

TEST(ThreadPoolStressTest, ConcurrentParallelForCallers) {
  ThreadPool pool(4);
  constexpr int kCallers = 3;
  constexpr size_t kN = 500;
  std::vector<std::atomic<int>> hits(kN);

  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &hits] {
      pool.ParallelFor(kN, [&hits](size_t i) { ++hits[i]; });
    });
  }
  for (auto& t : callers) t.join();
  for (const auto& h : hits) EXPECT_EQ(h.load(), kCallers);
}

// Regression test for the ParallelFor exception contract: a throwing
// iteration must propagate to the caller after ALL sibling chunks finished
// (the old behaviour unwound immediately, letting still-running chunks
// touch the caller's destroyed callable — a use-after-free under ASan).
TEST(ThreadPoolStressTest, ParallelForPropagatesExceptionAfterAllChunks) {
  ThreadPool pool(4);
  constexpr size_t kN = 64;
  std::atomic<size_t> executed{0};
  bool caught = false;
  try {
    // The callable owns heap state; if a sibling chunk outlived the call it
    // would touch freed memory.
    auto owned = std::make_shared<std::vector<int>>(kN, 1);
    pool.ParallelFor(kN, [&executed, owned](size_t i) {
      executed += static_cast<size_t>((*owned)[i]);
      if (i == 3) throw std::runtime_error("iteration failed");
      // Give sibling chunks a chance to overlap with the failing one.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  } catch (const std::runtime_error& e) {
    caught = true;
    EXPECT_STREQ(e.what(), "iteration failed");
  }
  EXPECT_TRUE(caught);
  // Every chunk ran to completion or up to its throwing iteration; at
  // minimum all chunks were entered, so most iterations executed.
  EXPECT_GE(executed.load(), kN - kN / 4);

  // The pool survives and stays usable.
  std::atomic<int> after{0};
  pool.ParallelFor(10, [&after](size_t) { ++after; });
  EXPECT_EQ(after.load(), 10);
}

TEST(ThreadPoolStressTest, FirstOfSeveralExceptionsWins) {
  ThreadPool pool(4);
  // Several chunks throw; exactly one exception reaches the caller and the
  // pool does not terminate.
  EXPECT_THROW(
      pool.ParallelFor(256, [](size_t i) {
        if (i % 8 == 0) throw std::runtime_error("boom");
      }),
      std::runtime_error);
}

TEST(ThreadPoolStressTest, ShutdownDrainsWhileSubmitterRaces) {
  std::atomic<int> done{0};
  constexpr int kTasks = 100;
  {
    ThreadPool pool(2);
    for (int i = 0; i < kTasks; ++i) {
      pool.Post([&done] { ++done; });
    }
  }  // ~ThreadPool drains the queue before joining
  EXPECT_EQ(done.load(), kTasks);
}

TEST(ThreadPoolStressTest, SubmitFromWorkerTask) {
  // A task may enqueue follow-up work without blocking on it.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  Mutex mu;
  std::vector<std::future<void>> inner;  // guarded by mu
  std::vector<std::future<void>> outer;
  outer.reserve(16);
  for (int i = 0; i < 16; ++i) {
    outer.push_back(pool.Submit([&pool, &counter, &mu, &inner] {
      ++counter;
      std::future<void> f = pool.Submit([&counter] { ++counter; });
      MutexLock lock(&mu);
      inner.push_back(std::move(f));
    }));
  }
  for (auto& f : outer) f.get();
  // Each outer task stored its inner future before its own future
  // resolved, so every inner task can now be awaited directly.
  for (auto& f : inner) f.get();
  EXPECT_EQ(counter.load(), 32);
}

}  // namespace
}  // namespace mqa
