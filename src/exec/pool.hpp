#pragma once
/// \file pool.hpp
/// Bounded task-queue executor with group-restricted helping waits. Three
/// callers: the sharded memory simulator's producer lanes (ShardSource in
/// memsim/system.cpp, one private pool per sharded run), ordered_reduce
/// (exec/parallel.hpp: bench --jobs lanes and run_comparison's concurrent
/// halves) and the fleet coordinator's job lanes (fleet/fleet.cpp).
///
/// Design points that the layers above rely on:
///  * Group-restricted helping. Any thread blocked in wait()/help_while()
///    pops and runs queued tasks of the group it is waiting on, and only
///    those: a waiter makes progress on exactly the work it needs and
///    never executes unrelated tasks inside its own timing window. A Pool
///    with zero worker threads is therefore a valid (deterministic,
///    inline) executor, and a task may submit subtasks to its own pool
///    and wait on them without risking worker starvation deadlock. This
///    filtered pop is why the pool is a mutexed deque rather than a
///    Chase–Lev deque (exec/wsq.hpp), which offers only owner-pop and
///    thief-steal at its two ends.
///  * Deterministic failure reporting. Every task carries its submission
///    index within its Group; wait() rethrows the exception of the
///    *lowest-index* failed task, independent of completion order.
///  * Reuse. Groups reset on wait(); a pool is submitted to repeatedly
///    over its lifetime (every bench unit, every fleet attempt).

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <stop_token>
#include <thread>
#include <vector>

namespace raa::exec {

/// See file comment.
class Pool {
 public:
  /// Tracks one batch of submitted tasks. Owned by the submitting scope,
  /// which must wait() it before destruction; all bookkeeping fields are
  /// guarded by the pool mutex.
  class Group {
   public:
    Group() = default;
    Group(const Group&) = delete;
    Group& operator=(const Group&) = delete;

   private:
    friend class Pool;
    std::size_t submitted = 0;
    std::size_t finished = 0;
    /// Submission index of the first (lowest-index) failed task.
    std::size_t error_index = 0;
    std::exception_ptr error;
  };

  /// Spawns `workers` threads. 0 is valid: every task then runs inline in
  /// the waiting thread's wait()/help_while().
  explicit Pool(unsigned workers);

  /// Joins the workers. Tasks still queued — possible only when a Group
  /// was destroyed without wait(), violating its contract — are dropped
  /// unrun (their captures may already dangle).
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Enqueue `fn` under `g`. Runs on a worker or inside a helping wait;
  /// may be called from inside a task (nested submission).
  void submit(Group& g, std::function<void()> fn);

  /// Help-run queued tasks *of `g`* until every task of `g` has finished,
  /// then rethrow the lowest-index captured exception (if any). Resets
  /// `g`. Helping is group-restricted on purpose: a waiter must never
  /// execute unrelated work inside its own timing window (the bench
  /// harness records per-unit wall clocks around these waits), and the
  /// awaited tasks are by definition queued or already running, so
  /// restricted helping cannot starve.
  void wait(Group& g);

  /// wait() variant that returns the error instead of throwing (for
  /// cancellation paths that are already unwinding). Resets `g`.
  std::exception_ptr wait_collect(Group& g);

  /// True once any task of `g` has finished with an exception.
  bool failed(const Group& g) const;

  /// Help-run queued tasks of `g` while `not_ready()` returns true.
  /// Between tasks the predicate is re-evaluated with no pool lock held
  /// (it may take its own locks); when no task of `g` is queued the caller
  /// sleeps until any task is enqueued or finishes. The condition must be
  /// flipped by a task of this pool (or already be false), else this
  /// never returns.
  void help_while(const Group& g, const std::function<bool()>& not_ready);

 private:
  struct Task {
    std::function<void()> fn;
    Group* group = nullptr;
    std::size_t index = 0;
  };

  /// Pop-and-run one queued task — the oldest overall, or the oldest of
  /// `only`'s — and return true; false when none was eligible.
  bool run_one(const Group* only = nullptr);
  void worker_loop(std::stop_token stop);
  /// Stop, wake and join the worker threads.
  void shutdown_workers();
  std::exception_ptr take_error(Group& g);

  mutable std::mutex mutex_;
  std::condition_variable cv_;  ///< signalled on enqueue and completion
  std::deque<Task> queue_;
  /// Bumped on every enqueue/completion; helping waiters use it to avoid
  /// missed wakeups between predicate check and sleep.
  std::uint64_t epoch_ = 0;
  bool stopping_ = false;
  std::vector<std::jthread> workers_;
};

}  // namespace raa::exec
