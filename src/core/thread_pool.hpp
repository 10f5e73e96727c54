#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace naas::core {

/// Fixed-size worker pool for the evaluation fan-out of the search loops.
///
/// Design goals, in order:
///  1. *Determinism*: the pool never decides results, only scheduling.
///     `parallel_for`/`parallel_map` hand out indices from a shared atomic
///     counter and results are written by index, so outputs are identical
///     for any thread count and any interleaving (no work stealing between
///     unrelated loops, no reduction-order dependence).
///  2. *Nesting safety*: the calling thread participates in its own loop
///     (it claims indices like any worker) and never blocks waiting for a
///     queue slot. A pool worker that itself calls `parallel_for` therefore
///     makes progress even when every other worker is busy — the two-level
///     NAAS search (population fan-out containing mapping-search fan-outs)
///     shares one pool without deadlock.
///  3. *Serial fallback*: with `num_threads <= 1` no threads are spawned
///     and every loop runs inline on the caller, byte-for-byte identical to
///     the pre-threading code path.
class ThreadPool {
 public:
  /// `num_threads <= 0` resolves via `default_num_threads()`;
  /// `num_threads == 1` creates a pool with no workers (inline execution).
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads that can make progress concurrently: the workers
  /// plus the calling thread. Always >= 1.
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// True when loops run inline on the caller (no worker threads).
  bool serial() const { return workers_.empty(); }

  /// Runs `fn(i)` for every i in [0, n). Blocks until all iterations are
  /// done. The caller executes iterations too. If any iteration throws, the
  /// first exception (by completion order) is rethrown here after the loop
  /// drains; iterations not yet started when the error was recorded are
  /// skipped, so on a throwing loop no output slot can be assumed written.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Maps `fn` over [0, n), assembling results *by index* so the output is
  /// independent of scheduling order.
  template <typename T>
  std::vector<T> parallel_map(std::size_t n,
                              const std::function<T(std::size_t)>& fn) {
    std::vector<T> out(n);
    parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  /// Most threads a count from outside the program (a flag or the
  /// environment) may ask for.
  static constexpr int kMaxThreads = 1024;

  /// Thread count used for `num_threads <= 0`: the NAAS_NUM_THREADS
  /// environment variable when it is in [1, kMaxThreads] (a larger value is
  /// ignored with a warning), else `hardware_concurrency`.
  static int default_num_threads();

 private:
  struct Loop;  // shared state of one parallel_for

  static void run_loop(Loop& loop);
  void worker_main();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::shared_ptr<Loop>> pending_;  ///< loops with unclaimed work
  bool stop_ = false;
};

}  // namespace naas::core
