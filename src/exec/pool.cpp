#include "exec/pool.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace raa::exec {

Pool::Pool(unsigned workers) {
  try {
    workers_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
      workers_.emplace_back(
          [this](std::stop_token stop) { worker_loop(stop); });
  } catch (...) {
    // Thread exhaustion mid-spawn: wake and join the workers that did
    // start (their CV predicate is only re-evaluated on notify, so the
    // jthread destructors' bare request_stop would hang) and propagate.
    shutdown_workers();
    throw;
  }
}

void Pool::shutdown_workers() {
  {
    const std::scoped_lock lock{mutex_};
    stopping_ = true;
  }
  for (auto& t : workers_) t.request_stop();
  cv_.notify_all();
  workers_.clear();  // jthread destructors join
}

Pool::~Pool() {
  shutdown_workers();
  // Leftover tasks mean a group was destroyed without wait() — a contract
  // violation; its lambdas' captures may already dangle, so dropping them
  // unrun is the only safe option.
  queue_.clear();
}

void Pool::submit(Group& g, std::function<void()> fn) {
  RAA_CHECK(fn != nullptr);
  {
    const std::scoped_lock lock{mutex_};
    queue_.push_back(Task{std::move(fn), &g, g.submitted++});
    ++epoch_;
  }
  cv_.notify_all();
}

bool Pool::run_one(const Group* only) {
  Task task;
  {
    const std::scoped_lock lock{mutex_};
    auto it = queue_.begin();
    if (only != nullptr)
      it = std::find_if(queue_.begin(), queue_.end(),
                        [only](const Task& t) { return t.group == only; });
    if (it == queue_.end()) return false;
    task = std::move(*it);
    queue_.erase(it);
  }
  std::exception_ptr error;
  try {
    task.fn();
  } catch (...) {
    error = std::current_exception();
  }
  {
    const std::scoped_lock lock{mutex_};
    Group& g = *task.group;
    ++g.finished;
    if (error && (!g.error || task.index < g.error_index)) {
      // Move, don't share: the group's reference must be the only one, so
      // the exception object is freed by whoever finally takes it (the
      // waiter), never by a worker racing the waiter's rethrow-and-read.
      g.error = std::move(error);
      g.error_index = task.index;
    }
    ++epoch_;
  }
  cv_.notify_all();
  return true;
}

void Pool::worker_loop(std::stop_token stop) {
  while (!stop.stop_requested()) {
    if (run_one()) continue;
    std::unique_lock lock{mutex_};
    cv_.wait(lock,
             [&] { return !queue_.empty() || stopping_ || stop.stop_requested(); });
  }
}

void Pool::help_while(const Group& g,
                      const std::function<bool()>& not_ready) {
  for (;;) {
    std::uint64_t seen;
    {
      const std::scoped_lock lock{mutex_};
      seen = epoch_;
    }
    // Predicate runs with no pool lock held: it may take external locks
    // (the sharded simulator checks per-core channel state here).
    if (!not_ready()) return;
    if (run_one(&g)) continue;
    std::unique_lock lock{mutex_};
    // Any enqueue/completion since `seen` was captured re-tests the
    // predicate instead of sleeping through its flip.
    cv_.wait(lock, [&] { return epoch_ != seen; });
  }
}

bool Pool::failed(const Group& g) const {
  const std::scoped_lock lock{mutex_};
  return g.error != nullptr;
}

std::exception_ptr Pool::take_error(Group& g) {
  const std::scoped_lock lock{mutex_};
  std::exception_ptr error = std::exchange(g.error, nullptr);
  g.submitted = 0;
  g.finished = 0;
  g.error_index = 0;
  return error;
}

void Pool::wait(Group& g) {
  if (std::exception_ptr error = wait_collect(g))
    std::rethrow_exception(error);
}

std::exception_ptr Pool::wait_collect(Group& g) {
  help_while(g, [&] {
    const std::scoped_lock lock{mutex_};
    return g.finished < g.submitted;
  });
  return take_error(g);
}

}  // namespace raa::exec
