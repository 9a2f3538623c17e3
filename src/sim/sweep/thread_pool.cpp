#include "sim/sweep/thread_pool.h"

#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>

#include "sim/parse.h"

namespace ocn::sweep {

int positive_env_int(const char* name, int fallback) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only getenv at construction
  // time, never on a worker thread.
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  const std::optional<int> v = parse_number<int>(env);
  if (!v || *v < 1) {
    throw std::invalid_argument(std::string(name) + "='" + env +
                                "': expected an integer >= 1");
  }
  return *v;
}

int default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return positive_env_int("OCN_SWEEP_THREADS", hw == 0 ? 1 : static_cast<int>(hw));
}

ThreadPool::ThreadPool(int threads) {
  const int n = threads < 1 ? 1 : threads;
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::for_each_index(std::size_t n,
                                const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (in_flight_) {
      // A second range while one is running means either two external
      // callers racing or — worse — a body on this pool re-entering it,
      // which would deadlock: the nested call waits on a worker slot held
      // by its own caller. Fail loudly instead of hanging.
      throw std::logic_error(
          "ThreadPool::for_each_index is not reentrant: a range is already "
          "in flight on this pool");
    }
    in_flight_ = true;
    body_ = &body;
    total_ = n;
    next_ = 0;
    remaining_ = n;
    first_error_ = nullptr;
  }
  work_cv_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return remaining_ == 0; });
  body_ = nullptr;
  in_flight_ = false;
  if (first_error_) std::rethrow_exception(first_error_);
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] {
      return stop_ || (body_ != nullptr && next_ < total_);
    });
    if (stop_) return;
    const std::size_t i = next_++;
    const auto* body = body_;
    lock.unlock();
    std::exception_ptr error;
    try {
      (*body)(i);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error) {
      if (!first_error_) first_error_ = error;
      // Abandon unclaimed work: the range fails as a whole.
      remaining_ -= total_ - next_;
      next_ = total_;
    }
    if (--remaining_ == 0) done_cv_.notify_all();
  }
}

}  // namespace ocn::sweep
