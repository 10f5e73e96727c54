#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "core/thread_pool.hpp"

namespace naas::core {

/// Dependency-aware task scheduler on top of ThreadPool — the engine of the
/// asynchronous evaluation pipeline. Where ThreadPool::parallel_for is a
/// fork-join (every caller is a barrier), TaskGraph lets independent task
/// chains interleave freely: a task becomes runnable the moment its
/// predecessors finish, regardless of what unrelated chains are doing, so
/// one slow chain no longer idles the pool between "generations".
///
/// Contract, in order of importance:
///  1. *Determinism is the caller's job, scheduling is ours*: tasks must
///     write only to their own result slots (or to state owned by a single
///     continuation chain); the graph guarantees every task runs exactly
///     once with its dependencies complete, never in which global order.
///     With slot-keyed writes and reductions expressed as dependent tasks,
///     outputs are bit-identical for any thread count.
///  2. *Nested submission*: a task body may submit further tasks (the
///     continuation style the search pipeline uses to schedule generation
///     g+1 from generation g's completion) and may fulfill promises.
///  3. *Serial fallback*: with a null/serial pool, run() executes ready
///     tasks inline in id order (oldest submission first); combined with
///     rule 1 this is byte-identical to any parallel run.
///  4. *Errors*: the first exception cancels all remaining tasks (their
///     bodies are skipped, unfulfilled promises are force-completed) and is
///     rethrown from run().
class TaskGraph {
 public:
  using TaskId = std::uint64_t;

  /// Work-accounting for the scheduler; see ArchEvaluator's meters and
  /// bench_async_pipeline's idle-fraction measurement.
  struct Stats {
    long long tasks_executed = 0;  ///< bodies actually run
    long long tasks_skipped = 0;   ///< cancelled after an error
    double busy_seconds = 0;       ///< summed task body time
    double wall_seconds = 0;       ///< summed run() wall time
    int workers = 1;               ///< threads claiming tasks during run()
    /// Fraction of worker capacity spent not executing task bodies —
    /// the number the async pipeline exists to shrink.
    double idle_fraction() const {
      const double capacity = workers * wall_seconds;
      if (capacity <= 0) return 0;
      const double idle = capacity - busy_seconds;
      return idle < 0 ? 0 : idle / capacity;
    }
  };

  /// `pool` (not owned, may be null) supplies the workers; null or a
  /// 1-thread pool selects the inline serial mode.
  explicit TaskGraph(ThreadPool* pool = nullptr);

  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Registers a task. It becomes ready once every id in `deps` has
  /// completed (ids of already-completed tasks are allowed and count as
  /// satisfied). Never blocks; call from anywhere, including task bodies.
  TaskId submit(std::function<void()> fn,
                const std::vector<TaskId>& deps = {});

  /// Creates a completion placeholder with no body: dependents become ready
  /// only when fulfill() is called. This is how a dynamically-growing chain
  /// (generation g's continuation submits generation g+1) exposes a single
  /// id that outside tasks can depend on before the chain's tail exists.
  TaskId make_promise();

  /// Completes `promise` (exactly once, typically from the chain's final
  /// continuation body).
  void fulfill(TaskId promise);

  /// Drives the graph to quiescence: returns when every submitted task
  /// (including ones submitted by task bodies while running) has completed.
  /// Rethrows the first task exception after cancelling the remainder. May
  /// be called again after more submissions; must not be called from inside
  /// a task body.
  void run();

  /// Threads that claim tasks during run() (>= 1).
  int parallelism() const { return pool_ && !pool_->serial() ? pool_->size() : 1; }

  /// Cumulative work accounting across all run() calls.
  Stats stats() const;

 private:
  struct Task {
    std::function<void()> fn;        ///< empty for promises
    std::vector<TaskId> dependents;  ///< ids waiting on this task
    int unmet = 0;                   ///< outstanding dependencies
    bool is_promise = false;
  };

  void worker_loop();
  void run_serial();
  /// Executes one claimed task body outside the lock; returns holding it.
  void execute(TaskId id, std::unique_lock<std::mutex>& lk);
  TaskId pop_ready_locked();
  void complete_locked(TaskId id);
  void cancel_remaining_locked();

  ThreadPool* pool_ = nullptr;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<TaskId, Task> tasks_;  ///< live (not yet completed) tasks
  std::set<TaskId> ready_;  ///< runnable tasks, claimed lowest id first
  TaskId next_id_ = 1;
  std::size_t pending_ = 0;  ///< live tasks, including running and promises
  int running_ = 0;          ///< bodies currently executing
  std::exception_ptr error_;
  Stats stats_;
};

}  // namespace naas::core
