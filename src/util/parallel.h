#ifndef THOR_UTIL_PARALLEL_H_
#define THOR_UTIL_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <type_traits>
#include <vector>

namespace thor {

/// \brief Fixed-size thread pool behind `ParallelFor` / `ParallelMap`.
///
/// The pool is a plain task queue; parallel loops are built on top of it
/// with an atomic index counter, so the pool itself never needs to know
/// about loop shapes. Waiting for a loop never blocks on queued-but-
/// unstarted helper tasks (the calling thread claims indices itself), which
/// makes nested `ParallelFor` calls — RunThor fanning out clusters whose
/// Phase-II internals fan out again — deadlock-free by construction.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const;

  /// Enqueues a task for execution by some worker.
  void Submit(std::function<void()> task);

  /// The process-wide pool, created on first use with `DefaultThreads()`
  /// workers. Intentionally never destroyed so worker shutdown cannot race
  /// static destructors.
  static ThreadPool* Global();

 private:
  struct Impl;
  Impl* impl_;
};

/// Parses a thread-count string (as found in `THOR_THREADS`); returns
/// `fallback` for null, empty, non-numeric, or non-positive values.
int ParseThreadCount(const char* text, int fallback);

/// Default parallelism: `THOR_THREADS` if set to a positive integer,
/// otherwise `std::thread::hardware_concurrency()` (at least 1). Resolved
/// at first use and fixed for the life of the process.
int DefaultThreads();

/// Resolves an options-struct `threads` knob: values > 0 are taken as-is,
/// anything else means "use the global default". `threads = 1` is the
/// serial escape hatch: the loop runs inline on the calling thread.
int ResolveThreads(int threads);

/// \brief Runs `fn(i)` for every `i` in `[0, n)` using up to `threads`
/// threads (0 = global default, 1 = serial inline).
///
/// The calling thread always participates, and indices are handed out by
/// an atomic counter, so every index runs exactly once on some thread.
/// The first exception thrown by `fn` is rethrown on the calling thread
/// after remaining work is abandoned. Iterations must be independent:
/// determinism is preserved exactly when `fn(i)` writes only to
/// index-`i`-owned state.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                 int threads = 0);

/// `ParallelFor` that collects `fn(i)` into `out[i]`. Results are index-
/// addressed, so the output is identical to the serial loop regardless of
/// scheduling.
template <typename Fn>
auto ParallelMap(size_t n, Fn&& fn, int threads = 0)
    -> std::vector<std::decay_t<decltype(fn(size_t{0}))>> {
  std::vector<std::decay_t<decltype(fn(size_t{0}))>> out(n);
  ParallelFor(
      n, [&](size_t i) { out[i] = fn(i); }, threads);
  return out;
}

}  // namespace thor

#endif  // THOR_UTIL_PARALLEL_H_
