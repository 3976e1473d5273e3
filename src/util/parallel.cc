#include "src/util/parallel.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

namespace thor {

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::function<void()>> queue;
  std::vector<std::thread> workers;
  bool shutdown = false;

  void WorkerLoop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [this] { return shutdown || !queue.empty(); });
        if (queue.empty()) return;  // shutdown and drained
        task = std::move(queue.front());
        queue.pop_front();
      }
      task();
    }
  }
};

ThreadPool::ThreadPool(int num_threads) : impl_(new Impl) {
  if (num_threads < 1) num_threads = 1;
  impl_->workers.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    impl_->workers.emplace_back([this] { impl_->WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->shutdown = true;
  }
  impl_->cv.notify_all();
  for (std::thread& worker : impl_->workers) worker.join();
  delete impl_;
}

int ThreadPool::num_threads() const {
  return static_cast<int>(impl_->workers.size());
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->queue.push_back(std::move(task));
  }
  impl_->cv.notify_one();
}

ThreadPool* ThreadPool::Global() {
  // Leaked on purpose: tasks submitted from other static-storage objects
  // must never race pool teardown at exit.
  static ThreadPool* pool = new ThreadPool(DefaultThreads());
  return pool;
}

int ParseThreadCount(const char* text, int fallback) {
  if (text == nullptr || *text == '\0') return fallback;
  char* end = nullptr;
  long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0') return fallback;
  if (value < 1 || value > 4096) return fallback;
  return static_cast<int>(value);
}

int DefaultThreads() {
  // Resolved once per process: hardware_concurrency() reads sysfs on every
  // call, and this runs on every ParallelFor with threads = 0.
  static const int threads = [] {
    int hardware = static_cast<int>(std::thread::hardware_concurrency());
    if (hardware < 1) hardware = 1;
    return ParseThreadCount(std::getenv("THOR_THREADS"), hardware);
  }();
  return threads;
}

int ResolveThreads(int threads) {
  return threads > 0 ? threads : DefaultThreads();
}

namespace {

// Shared state of one ParallelFor call. Helpers hold a shared_ptr, so the
// caller may return as soon as all indices are completed even if some
// queued helper task has not started yet (it will find no work and exit).
struct ForState {
  ForState(size_t n_in, std::function<void(size_t)> fn_in)
      : n(n_in), fn(std::move(fn_in)) {}

  const size_t n;
  const std::function<void(size_t)> fn;
  std::atomic<size_t> next{0};
  std::atomic<size_t> completed{0};
  std::atomic<bool> cancelled{false};
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;  // guarded by mu

  // Credits `count` finished-or-abandoned indices; every index is credited
  // exactly once, so `completed == n` means the loop is done.
  void Credit(size_t count) {
    if (completed.fetch_add(count) + count == n) {
      std::lock_guard<std::mutex> lock(mu);
      cv.notify_all();
    }
  }

  // Atomically claims all unclaimed indices without running them.
  void AbandonRest() {
    size_t first_unclaimed = next.exchange(n);
    if (first_unclaimed < n) Credit(n - first_unclaimed);
  }

  void RunWorker() {
    for (;;) {
      if (cancelled.load(std::memory_order_acquire)) {
        AbandonRest();
        return;
      }
      size_t i = next.fetch_add(1);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(mu);
          if (!error) error = std::current_exception();
        }
        cancelled.store(true, std::memory_order_release);
      }
      Credit(1);
    }
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return completed.load() == n; });
    if (error) std::rethrow_exception(error);
  }
};

}  // namespace

void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                 int threads) {
  if (n == 0) return;
  int effective = ResolveThreads(threads);
  if (static_cast<size_t>(effective) > n) effective = static_cast<int>(n);
  if (effective <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto state = std::make_shared<ForState>(n, fn);
  ThreadPool* pool = ThreadPool::Global();
  for (int h = 1; h < effective; ++h) {
    pool->Submit([state] { state->RunWorker(); });
  }
  state->RunWorker();
  state->Wait();
}

}  // namespace thor
