#include "core/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace pastri {
namespace {

/// True on pool threads, and on a caller while it runs its own share of
/// a pooled loop: a parallel_for started there runs inline.
thread_local bool t_in_parallel = false;

int initial_default_threads() {
  if (const char* env = std::getenv("OMP_NUM_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) {
      return static_cast<int>(std::min<long>(v, kMaxThreads));
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(
      std::clamp<unsigned>(hw, 1, static_cast<unsigned>(kMaxThreads)));
}

std::atomic<int>& default_width() {
  static std::atomic<int> width{initial_default_threads()};
  return width;
}

/// One parallel_for call, owned by the caller's stack frame.  Helpers
/// reach it through their Worker slot and touch it for the last time
/// when they decrement `pending` under `mu`.
struct Job {
  detail::LoopBody body;
  std::size_t n;
  std::size_t chunk;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};

  std::mutex mu;
  std::condition_variable done;
  int pending = 0;           // helpers still running; guarded by mu
  std::exception_ptr error;  // first exception; guarded by mu

  Job(detail::LoopBody b, std::size_t count, std::size_t step)
      : body(b), n(count), chunk(step) {}

  void work(int tid) noexcept {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t begin =
          next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) return;
      try {
        body.run(body.fn, tid, begin, std::min(n, begin + chunk));
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  }

  void helper_done() {
    std::lock_guard<std::mutex> lock(mu);
    if (--pending == 0) done.notify_one();
  }
};

/// The persistent helper threads.  Idle helpers sit on `idle_` and block
/// on their own condition variable; a caller takes as many as it needs
/// (starting new ones only when none is idle), so concurrent callers
/// never share a helper.  A helper returns itself to `idle_` before it
/// reports completion, so a caller's next loop finds the same helpers
/// (with their thread_local state) idle again.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& w : workers_) {
        std::lock_guard<std::mutex> wl(w->mu);
        w->stop = true;
        w->wake.notify_one();
      }
    }
    for (const auto& w : workers_) w->thread.join();
  }

  /// Hand tids 1..helpers of `job` to helper threads.  If a thread cannot
  /// be started, the remaining tids are dropped: the dispatched helpers
  /// and the caller claim their indices instead.
  void dispatch(Job& job, int helpers) {
    std::lock_guard<std::mutex> lock(mu_);
    for (int tid = 1; tid <= helpers; ++tid) {
      Worker* w = nullptr;
      if (!idle_.empty()) {
        w = idle_.back();
        idle_.pop_back();
      } else {
        try {
          w = start_worker();
        } catch (...) {
          std::lock_guard<std::mutex> jl(job.mu);
          job.pending -= helpers - tid + 1;
          return;
        }
      }
      std::lock_guard<std::mutex> wl(w->mu);
      w->job = &job;
      w->tid = tid;
      w->wake.notify_one();
    }
  }

  std::size_t started() {
    std::lock_guard<std::mutex> lock(mu_);
    return workers_.size();
  }

 private:
  struct Worker {
    std::mutex mu;
    std::condition_variable wake;
    Job* job = nullptr;  // guarded by mu
    int tid = 0;         // guarded by mu
    bool stop = false;   // guarded by mu
    std::thread thread;  // last: starts after the members it uses
  };

  Pool() = default;

  /// Called with mu_ held.  idle_ keeps capacity for every worker, so
  /// returning a helper to it never allocates.
  Worker* start_worker() {
    if (workers_.size() == workers_.capacity()) {
      workers_.reserve(2 * workers_.size() + 4);
    }
    idle_.reserve(workers_.capacity());
    auto w = std::make_unique<Worker>();
    w->thread = std::thread([this, raw = w.get()] { run(*raw); });
    workers_.push_back(std::move(w));
    return workers_.back().get();
  }

  void run(Worker& w) {
    t_in_parallel = true;
    for (;;) {
      Job* job = nullptr;
      int tid = 0;
      {
        std::unique_lock<std::mutex> lock(w.mu);
        w.wake.wait(lock, [&] { return w.job != nullptr || w.stop; });
        if (w.job == nullptr) return;
        job = w.job;
        tid = w.tid;
        w.job = nullptr;
      }
      job->work(tid);
      {
        std::lock_guard<std::mutex> lock(mu_);
        idle_.push_back(&w);
      }
      job->helper_done();
    }
  }

  std::mutex mu_;
  std::vector<std::unique_ptr<Worker>> workers_;  // guarded by mu_
  std::vector<Worker*> idle_;                     // guarded by mu_
};

}  // namespace

int default_threads() {
  return default_width().load(std::memory_order_relaxed);
}

void set_default_threads(int threads) {
  if (threads < 1 || threads > kMaxThreads) {
    throw std::invalid_argument("default thread count must be in [1, " +
                                std::to_string(kMaxThreads) + "]");
  }
  default_width().store(threads, std::memory_order_relaxed);
}

int resolve_threads(int requested) {
  if (requested > kMaxThreads) {
    throw std::invalid_argument(
        "num_threads " + std::to_string(requested) + " exceeds the limit of " +
        std::to_string(kMaxThreads));
  }
  return requested > 0 ? requested : default_threads();
}

namespace detail {

void run_parallel(std::size_t n, int threads, std::size_t chunk,
                  LoopBody body) {
  if (threads > kMaxThreads) {
    throw std::invalid_argument("parallel_for: too many threads");
  }
  chunk = std::max<std::size_t>(chunk, 1);
  const std::size_t chunks = n / chunk + (n % chunk != 0);
  const int width = static_cast<int>(
      std::min<std::size_t>(chunks, static_cast<std::size_t>(
                                        std::max(threads, 1))));
  if (width <= 1 || t_in_parallel) {
    body.run(body.fn, 0, 0, n);
    return;
  }

  Job job(body, n, chunk);
  job.pending = width - 1;
  Pool::instance().dispatch(job, width - 1);
  t_in_parallel = true;
  job.work(0);
  t_in_parallel = false;
  {
    std::unique_lock<std::mutex> lock(job.mu);
    job.done.wait(lock, [&] { return job.pending == 0; });
  }
  if (job.error) std::rethrow_exception(job.error);
}

std::size_t pool_threads_started() { return Pool::instance().started(); }

}  // namespace detail
}  // namespace pastri
