// parallel.h - The library's one parallel executor.
//
// PaSTRI's blocks (and ERI quartets) are independent, so every parallel
// loop in the library is the same shape: a dynamic parallel for over
// [0, n) whose body knows which worker slot it runs in.  parallel_for
// runs it on a persistent, lazily started std::thread pool:
//
//   parallel_for(n, threads, chunk, [&](int tid, std::size_t i) { ... });
//
//  * tid is always in [0, threads), and no two threads run with the same
//    tid at once, so per-tid workspaces and partial sums need no lock.
//  * Indices are claimed dynamically, `chunk` at a time.
//  * The first exception stops further claims; it is rethrown on the
//    caller after every helper has finished.
//  * threads <= 1, n <= 1 (or a single chunk), and calls made from inside
//    another parallel_for run inline on the caller and touch no pool
//    thread.
//  * Concurrent callers each get their own helpers; idle helpers block,
//    they never spin.  A warm call allocates nothing.
#pragma once

#include <cstddef>
#include <type_traits>

namespace pastri {

/// Largest team any caller may ask for.  Thread counts arrive from
/// outside the program (Params::num_threads, the C API, pastri_tool
/// --threads); a pool that grows on demand must not be asked to start
/// millions of threads.
inline constexpr int kMaxThreads = 512;

/// Team width that a thread count of 0 resolves to: OMP_NUM_THREADS when
/// it is set to a positive integer, otherwise
/// std::thread::hardware_concurrency(), clamped to [1, kMaxThreads].  The
/// environment is read once, on first use.
int default_threads();

/// Replace default_threads() for the rest of the process.  Throws
/// std::invalid_argument unless 1 <= threads <= kMaxThreads.
void set_default_threads(int threads);

/// The one place a requested thread count becomes a team width: values
/// <= 0 mean default_threads(); values above kMaxThreads throw
/// std::invalid_argument (before any thread is started).
int resolve_threads(int requested);

namespace detail {

/// Type-erased loop body: runs fn(tid, i) for i in [begin, end).
struct LoopBody {
  void (*run)(const void* fn, int tid, std::size_t begin, std::size_t end);
  const void* fn;
};

void run_parallel(std::size_t n, int threads, std::size_t chunk,
                  LoopBody body);

/// Pool threads started so far in this process (for tests).
std::size_t pool_threads_started();

}  // namespace detail

/// Run fn(tid, i) for every i in [0, n) on up to `threads` threads (a
/// resolved width, see resolve_threads), claiming `chunk` indices at a
/// time.  Returns after every index ran; rethrows the first exception.
template <class Fn>
void parallel_for(std::size_t n, int threads, std::size_t chunk, Fn&& fn) {
  using F = std::remove_reference_t<Fn>;
  detail::run_parallel(
      n, threads, chunk,
      {[](const void* f, int tid, std::size_t begin, std::size_t end) {
         F& body = *const_cast<F*>(static_cast<const F*>(f));
         for (std::size_t i = begin; i < end; ++i) body(tid, i);
       },
       &fn});
}

}  // namespace pastri
