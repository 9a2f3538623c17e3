// Scatter-gather worker pool for the experiment-sweep engine.
//
// The simulator itself is single-threaded by design (the two-phase kernel's
// determinism argument depends on it); parallelism lives one level up, at
// the granularity of whole independent simulations. This pool provides the
// only primitive that level needs: run body(i) for every index of a range
// across a fixed set of workers, block until all complete, and rethrow the
// first exception any iteration produced.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ocn::sweep {

/// The whole integer >= 1 in environment variable `name`, or `fallback` when
/// it is unset; any other value throws std::invalid_argument naming both.
int positive_env_int(const char* name, int fallback);

/// Worker-count policy for sweep execution: OCN_SWEEP_THREADS when set
/// (positive_env_int), otherwise std::thread::hardware_concurrency() (min 1).
int default_threads();

/// Fixed-size pool of workers executing index ranges on demand.
///
/// Indices of one for_each_index call are claimed dynamically (an idle
/// worker takes the next unclaimed index), so uneven per-index cost load
/// balances; callers that need determinism must make each index's work
/// independent of claim order — sweep points are, by construction.
class ThreadPool {
 public:
  /// Spawns max(1, threads) workers.
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Run body(i) for each i in [0, n); blocks until every iteration has
  /// finished. If any iteration throws, remaining unclaimed indices are
  /// abandoned and the first exception is rethrown here. Not reentrant:
  /// one range at a time, and never from inside a body running on this
  /// pool (that would deadlock waiting for a worker that is the caller).
  /// Violations throw std::logic_error instead of hanging.
  void for_each_index(std::size_t n, const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait here for a range
  std::condition_variable done_cv_;   // for_each_index waits here
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t total_ = 0;      // size of the current range
  std::size_t next_ = 0;       // next unclaimed index
  std::size_t remaining_ = 0;  // claimed-or-unclaimed indices not yet done
  std::exception_ptr first_error_;
  bool stop_ = false;
  bool in_flight_ = false;  // a range is being executed (reentrancy guard)
  std::vector<std::thread> workers_;
};

}  // namespace ocn::sweep
